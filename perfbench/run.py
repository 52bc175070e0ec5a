"""Closed-loop benchmark of the logse solvers.

    python3 perfbench/run.py --workload {relax,bypass} \\
        --seed N --seconds S --trace {0,1}

One client in one process runs the workload's batch of jobs, each job
started only after the previous one returns, and repeats the batch until
--seconds have passed (at least one batch; a job that would end past the
deadline is not started).  Every job's output is checked.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured with tracing off; wall and job times are scaled
by a calibration loop run between jobs (see CAL_REF_S), set-up time is in
seconds as measured.  With --trace 1 an untraced pass
and a traced pass share the run, and the metrics are the per-layer ones of
the traced pass (per batch) plus the tracing overhead.
"""

import os
import sys
import time

_START = time.perf_counter()
# the kernels are tridiagonal solves and vector arithmetic: one BLAS/OpenMP
# thread, set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# the keys of jobs.BUILDERS, named here so that arguments are checked before
# logse is imported
WORKLOADS = ("relax", "bypass")
# set-up is timed in this process and in this many fresh processes; the
# reported setup_s is the median
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120
# The calibration loop runs before every job, outside the job's time.  It is
# fixed numpy work that calls no logse code, so a change to logse cannot move
# it; its mean time over a run says how fast the shared core ran in that
# run.  Times in ref_s are seconds scaled to a core on which one loop takes
# CAL_REF_S: time * CAL_REF_S / (mean loop time of the run).
CAL_ITERS = 1500
CAL_N = 640
CAL_REF_S = 0.05


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit (used to "
                        "time set-up in fresh processes)")
    return p.parse_args(argv)


# ------------------------------------------------------------------ running

def make_calibration():
    """The calibration loop: CAL_ITERS explicit diffusion steps with a log
    term on CAL_N float64 values, in numpy alone.  Its mix of small
    allocating array operations, a logarithm and a trapezoid sum is the
    workloads' mix, so its speed follows theirs on a contended core more
    closely than a bare stencil does.  Returns a function that runs it once
    and returns its seconds."""
    import numpy as np

    r = np.linspace(0.01, 8.0, CAL_N)
    h = r[1] - r[0]
    u0 = r * np.exp(-0.5 * r * r)

    def calibrate():
        start = time.perf_counter()
        u = u0.copy()
        for _ in range(CAL_ITERS):
            lap = np.zeros_like(u)
            lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
            w = np.clip(1e-4 * np.log((u / r) ** 2 + 1e-300), -0.5, 0.5)
            u_new = u + 1e-4 * lap + w * u
            u_new *= np.trapezoid(u_new * u_new, r) ** -0.5
            float(np.max(np.abs(u_new - u)))
            u = u_new
        return time.perf_counter() - start

    return calibrate


def run_batch(workload, batch_index, calibrate, tracer=None, deadline=None, slowest=None):
    """Run the jobs once, in order; check each output after it returns.

    The calibration loop runs before each job; the batch wall time leaves it
    out.  With a deadline, a job starts only if its slowest earlier run
    (`slowest`, by job name) would still end before it; otherwise the batch
    stops there and is marked incomplete.
    """
    times, failures, cal = {}, [], []
    counts, diag = Counter(), {}
    spans_before = len(tracer.spans) if tracer else 0
    trace_before = dict(tracer.counts) if tracer else {}
    complete = True
    t0 = time.perf_counter()
    for j, job in enumerate(workload.jobs):
        if deadline is not None and time.perf_counter() + slowest.get(job.name, 0.0) > deadline:
            complete = False
            break
        cal.append(calibrate())
        if tracer:
            tracer.job = batch_index * len(workload.jobs) + j
        start = time.perf_counter()
        # a job that raises, or whose check raises, is a failed job; the
        # client goes on with the next one
        try:
            result = job.run()
        except Exception:
            failure = traceback.format_exc(limit=3)
        else:
            failure = None
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.job = None
        if failure is None:
            try:
                outcome = job.check(result)
            except Exception:
                failure = traceback.format_exc(limit=3)
            else:
                failure = None if outcome.ok else outcome.detail
                counts.update(outcome.counts)
                for key, value in outcome.diag.items():
                    diag[key] = max(value, diag.get(key, value))
        times[job.name] = elapsed
        if slowest is not None:
            slowest[job.name] = max(elapsed, slowest.get(job.name, 0.0))
        if failure is not None:
            failures.append(f"{job.name}: {failure}")
    wall = time.perf_counter() - t0 - sum(cal)
    if tracer:
        counts["trace.spans"] = len(tracer.spans) - spans_before
        for key, value in tracer.counts.items():
            counts[key] = value - trace_before.get(key, 0)
    return {"wall": wall, "times": times, "failures": failures, "complete": complete,
            "counts": dict(counts), "diag": diag, "cal": cal}


def run_for(workload, seconds, calibrate, tracer=None, first_index=0, whole_batches=False):
    """Repeat the batch until `seconds` have passed; the first batch runs whole.

    A job (or, with whole_batches, a batch) starts only if its slowest
    earlier run would still end in time, so a run stays within `seconds`
    instead of overshooting by most of a batch.  The jobs of a batch that
    the deadline cuts short still count as samples; its wall time and work
    counts do not.
    """
    batches, slowest = [], {}
    deadline = time.perf_counter() + seconds
    while True:
        if batches and whole_batches:
            longest = max(b["wall"] for b in batches)
            if time.perf_counter() + longest > deadline:
                return batches
        batch = run_batch(workload, first_index + len(batches), calibrate, tracer,
                          deadline if batches and not whole_batches else None, slowest)
        if batch["times"]:
            batches.append(batch)
        if not batch["complete"] or time.perf_counter() >= deadline:
            return batches


def time_setup_in_children(args):
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ------------------------------------------------------------------ metrics

def job_samples(batches):
    """Each job's times over the run, in run order, by job name."""
    samples = {}
    for b in batches:
        for name, t in b["times"].items():
            samples.setdefault(name, []).append(t)
    return samples


def end_to_end(batches, setup_samples):
    """End-to-end metrics of an untraced run.

    Each job's time is first reduced to its median over the run; job_p50_s is
    the median of those over the batch's jobs and job_max_s the largest.
    Every batch has fewer than 11 jobs, so the slowest job is the tail.
    wall_s and the job times are in ref_s (see CAL_REF_S); the notes give
    them in seconds as measured.  setup_s is in seconds as measured.
    """
    samples = job_samples(batches)
    if len(samples) >= 11:
        raise ValueError("a batch of 11 or more jobs needs a percentile tail, "
                         "not the slowest job")
    per_job = {name: statistics.median(ts) for name, ts in samples.items()}
    walls = [b["wall"] for b in batches if b["complete"]]
    cal = [t for b in batches for t in b["cal"]]
    cal_mean = statistics.fmean(cal)
    scale = CAL_REF_S / cal_mean
    measured = {"wall_s": statistics.median(walls),
                "job_p50_s": statistics.median(per_job.values()),
                "job_max_s": max(per_job.values())}
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        **{name: (value * scale, "ref_s") for name, value in measured.items()},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    runs = min(len(ts) for ts in samples.values())
    slowest = max(per_job, key=per_job.get)
    notes = {"setup_s": f"median of {len(setup_samples)} set-ups",
             "wall_s": f"median of {len(walls)} whole batches",
             "job_p50_s": f"median of {len(per_job)} per-job medians, "
                          f"each over at least {runs} runs",
             "job_max_s": f"slowest per-job median: {slowest}, "
                          f"{len(samples[slowest])} runs"}
    for name, value in measured.items():
        notes[name] += f"; {value!r} s as measured"
    notes["calibration"] = (f"{len(cal)} loops, mean {cal_mean * 1e3:.3f} ms, "
                            f"min {min(cal) * 1e3:.3f} ms, max {max(cal) * 1e3:.3f} ms; "
                            f"ref_s = s * {scale!r}")
    return metrics, notes


def per_layer(tracer, traced, untraced):
    """Per-batch layer metrics of the traced pass."""
    linear_hook = ("logse.numerics", "linear_ground_state", "imagtime")
    n = len(traced)
    layers = tracer.layer_totals()

    def layer(name, key):
        return layers.get(name, {}).get(key, 0) / n

    def count(key):
        return tracer.counts.get(key, 0) / n

    traced_wall = sum(b["wall"] for b in traced) / n
    untraced_wall = sum(b["wall"] for b in untraced) / len(untraced)
    diag = {}
    for b in traced:
        for key, value in b["diag"].items():
            diag[key] = max(value, diag.get(key, value))
    stepped = tracer.stepped_busy_s
    realtime_busy = layer("realtime", "busy_s")
    output_busy = layer("output.write_csv", "busy_s") + layer("output.write_json", "busy_s")
    m = {
        "imagtime.solves": (layer("imagtime", "calls"), "count"),
        "imagtime.steps": (count("imagtime.steps"), "count"),
        "imagtime.linear_stencil_calls": (
            tracer.calls_under("stencils.second_difference", linear_hook) / n, "count"),
        "imagtime.busy_s": (layer("imagtime", "busy_s"), "s"),
        "imagtime.self_s": (layer("imagtime", "self_s"), "s"),
        "imagtime.steps_per_s": (
            tracer.counts.get("imagtime.steps", 0) / stepped if stepped else 0.0, "1/s"),
        "imagtime.l2_err": (diag.get("imagtime.l2_err", 0.0), "1"),
        "stencils.second_difference.calls": (layer("stencils.second_difference", "calls"), "count"),
        "stencils.second_difference.busy_s": (layer("stencils.second_difference", "busy_s"), "s"),
        "stencils.radial_laplacian.calls": (layer("stencils.radial_laplacian", "calls"), "count"),
        "stencils.radial_laplacian.busy_s": (layer("stencils.radial_laplacian", "busy_s"), "s"),
        "realtime.steps": (count("realtime.steps"), "count"),
        "realtime.busy_s": (realtime_busy, "s"),
        "realtime.self_s": (layer("realtime", "self_s"), "s"),
        "realtime.cn_solve.calls": (layer("realtime.cn_solve", "calls"), "count"),
        "realtime.cn_solve.busy_s": (layer("realtime.cn_solve", "busy_s"), "s"),
        "realtime.steps_per_s": (
            count("realtime.steps") / realtime_busy if realtime_busy else 0.0, "1/s"),
        "realtime.norm_drift": (diag.get("realtime.norm_drift", 0.0), "1"),
        "poisson.calls": (layer("poisson", "calls"), "count"),
        "poisson.busy_s": (layer("poisson", "busy_s"), "s"),
        "poisson.quadrature.busy_s": (layer("poisson.quadrature", "busy_s"), "s"),
        "poisson.self_s": (layer("poisson", "self_s"), "s"),
        "scf.sweeps": (count("scf.sweeps"), "count"),
        "scf.busy_s": (layer("scf", "busy_s"), "s"),
        "scf.self_s": (layer("scf", "self_s"), "s"),
        "scf.l2_err": (diag.get("scf.l2_err", 0.0), "1"),
        "output.write_csv.calls": (layer("output.write_csv", "calls"), "count"),
        "output.write_csv.busy_s": (layer("output.write_csv", "busy_s"), "s"),
        "output.write_json.busy_s": (layer("output.write_json", "busy_s"), "s"),
        "output.rows": (count("output.rows"), "count"),
        "output.bytes": (count("output.bytes"), "bytes"),
        "grids.norm.calls": (layer("grids.norm", "calls"), "count"),
        "grids.norm.busy_s": (layer("grids.norm", "busy_s"), "s"),
        "grids.l2_distance.busy_s": (layer("grids.l2_distance", "busy_s"), "s"),
        "simpson.calls": (layer("simpson", "calls"), "count"),
        "simpson.busy_s": (layer("simpson", "busy_s"), "s"),
        "observables.entropy.busy_s": (layer("observables.entropy", "busy_s"), "s"),
        "observables.internal_energy.busy_s": (
            layer("observables.internal_energy", "busy_s"), "s"),
        "residual.calls": (layer("residual", "calls"), "count"),
        "residual.busy_s": (layer("residual", "busy_s"), "s"),
        "residual.max": (diag.get("residual.max", 0.0), "1"),
        "analytic.sample.calls": (layer("analytic.sample", "calls"), "count"),
        "analytic.sample.busy_s": (layer("analytic.sample", "busy_s"), "s"),
        "cli.calls": (layer("cli", "calls"), "count"),
        "cli.self_s": (layer("cli", "self_s"), "s"),
        "imagtime.share": (layer("imagtime", "busy_s") / traced_wall, "1"),
        "realtime.share": (realtime_busy / traced_wall, "1"),
        "output.share": (output_busy / traced_wall, "1"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall, "1"),
    }
    return m


# ------------------------------------------------------------------ records

def machine_record():
    import numpy
    import scipy

    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    try:
        record["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        record["blas"] = "unknown"
    return record


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def source_digest():
    """Hash of the package and benchmark sources: counts are kept per digest."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "logse").rglob("*.py")) + sorted(
        Path(__file__).resolve().parent.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(batches, args):
    """Work counts must repeat exactly: across whole batches and across runs."""
    problems = []
    whole = [b for b in batches if b["complete"]]
    first = whole[0]["counts"]
    for i, b in enumerate(whole[1:], 1):
        if b["counts"] != first:
            problems.append(f"batch {i} counts {b['counts']} != batch 0 counts {first}")
    store = OUT / "counts"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{args.workload}-seed{args.seed}-trace{args.trace}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != first:
            problems.append(f"counts {first} differ from an earlier run's {earlier}")
    else:
        path.write_text(json.dumps(first, sort_keys=True))
    return problems


def print_metrics(metrics, notes):
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:38s} {value!r} {unit}{note}")


# ------------------------------------------------------------------ main

def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "logse" / "__init__.py").is_file():
        print(f"perfbench: no logse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import jobs
    import tracing

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = jobs.build(args.workload, args.seed, out_dir)
    workload.warmup()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(repr(setup_s))
        return 0
    calibrate = make_calibration()
    calibrate()
    if args.trace:
        try:
            tracing.resolve_hooks()
        except tracing.HookMissing as err:
            print(f"perfbench: cannot trace: {err}", file=sys.stderr)
            return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed, 1 client, 1 process",
              "jobs_per_batch": [job.name for job in workload.jobs],
              "inputs": workload.inputs,
              "largest_array_computed": workload.largest_array,
              "known_failures": jobs.KNOWN_FAILURES, "machine": machine_record()}
    print(json.dumps({"record": record}))

    if args.trace:
        # half the run untraced, half traced: their difference is the overhead
        # whole batches only, so that the per-layer figures are per batch
        untraced = run_for(workload, args.seconds / 2, calibrate, whole_batches=True)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            batches = run_for(workload, args.seconds / 2, calibrate, tracer,
                              first_index=len(untraced), whole_batches=True)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, batches, untraced)
        notes = {}
        all_batches = untraced + batches
    else:
        batches = run_for(workload, args.seconds, calibrate)
        setup_samples = [setup_s] + time_setup_in_children(args)
        metrics, notes = end_to_end(batches, setup_samples)
        all_batches = batches

    attempted = sum(len(b["times"]) for b in all_batches)
    failures = [f for b in all_batches for f in b["failures"]]
    count_problems = check_counts(batches, args)
    if args.trace:
        metrics["fail_frac"] = (len(failures) / attempted, "1")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                  "jobs_per_batch": record["jobs_per_batch"]})
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    for problem in failures + count_problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    print(f"{args.workload}: {len(all_batches)} batches, {attempted} jobs, "
          f"{len(failures)} failed; counts per batch {batches[0]['counts']}")
    if not args.trace:
        print(f"  {'fail_frac':38s} {len(failures) / attempted!r} 1  "
              "(failed / attempted in the result line)")
    print_metrics(metrics, notes)
    if not args.trace:
        print(f"  calibration: {notes['calibration']}")
        for name, ts in job_samples(batches).items():
            print(f"  job {name:30s} " + " ".join(f"{t:.4f}" for t in ts) + " s")
    result = {
        "correct": not failures and not count_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
