"""File writes: every file logse writes goes through output._write_over.

_write_over rewrites a result file over its old bytes and cuts it to the new
length; a plain open(path, "wb") elsewhere would bring back the truncate
that makes a rerun wait on the last run's write-back.  The sources are
parsed, so docstrings and comments that name these calls do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "logse"

# open(...), os.open(...), io.open(...), os.fdopen(...), Path.write_text(...),
# Path.write_bytes(...)
WRITE_CALLS = ("open", "fdopen", "write_text", "write_bytes")
HELPER_FILE, HELPER = SRC / "output.py", "_write_over"


def _file_calls(source: str):
    """(enclosing function, call name, line) of every WRITE_CALLS call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in WRITE_CALLS:
                    found.append((function, name, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_scanner_finds_each_kind_of_write():
    source = '''
def f(path):
    """open(path, "wb") in a docstring is not a call."""
    with open(path, "w") as fh:
        pass
    os.open(path, os.O_WRONLY)
    os.fdopen(3, "wb")
    Path(path).write_text("x")
    path.write_bytes(b"x")
'''
    assert [name for _, name, _ in _file_calls(source)] == [
        "open", "open", "fdopen", "write_text", "write_bytes"]


def test_every_file_write_goes_through_the_helper():
    outside = []
    for path in sorted(SRC.rglob("*.py")):
        for function, name, line in _file_calls(path.read_text(encoding="utf-8")):
            if (path, function) != (HELPER_FILE, HELPER):
                outside.append(f"{path.relative_to(SRC)}:{line} {name}() in {function}")
    assert outside == []


def test_the_helper_opens_without_truncating():
    source = HELPER_FILE.read_text(encoding="utf-8")
    assert [name for function, name, _ in _file_calls(source) if function == HELPER] == [
        "open", "open"]
    assert "O_TRUNC" not in source
