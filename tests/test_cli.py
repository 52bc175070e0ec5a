"""Command-line interface: outputs, config handling, exit codes."""

import json
import math
import warnings

import pytest

from logse.cli import build_parser, main
from logse.output import parse_config_file, save_config_file

PI = math.pi


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_analytic_constant_json_values(tmp_path):
    code = run(tmp_path, "analytic", "--case", "constant", "--N", "1",
               "--b0", repr(PI))
    assert code == 0
    data = json.loads((tmp_path / "analytic_result.json").read_text())
    assert data["omega"] == pytest.approx(3 * PI, rel=1e-15)
    assert data["S_psi_quadrature"] == pytest.approx(1.5, abs=1e-8)
    assert data["config"]["case"] == "constant"
    header = (tmp_path / "analytic_profiles.csv").read_text().splitlines()[0]
    assert header.split(",") == [
        "r[a]", "psi_re", "psi_im", "density",
        "entropy_density[1/a]", "T_psi[hbar/tau]", "V_eff[hbar/tau]",
    ]


def test_analytic_general_entropy(tmp_path):
    assert run(tmp_path, "analytic", "--case", "general", "--N", "1", "--q", "2") == 0
    data = json.loads((tmp_path / "analytic_result.json").read_text())
    assert data["S_psi_quadrature"] == pytest.approx(1.5, abs=1e-7)
    assert data["relation_checks"]["omega_S23"] == pytest.approx(
        data["relation_checks"]["omega_S23_target"], abs=1e-12
    )


def test_analytic_inverse_square_entropy(tmp_path):
    assert run(tmp_path, "analytic", "--case", "inverse_square", "--N", "2",
               "--L2", "1", "--SY", "0", "--r-max", "80", "--n", "6000") == 0
    data = json.loads((tmp_path / "analytic_result.json").read_text())
    assert data["S_psi_quadrature"] == pytest.approx(8.0, abs=1e-6)
    assert data["mu_sq"] == pytest.approx((8.0) ** (-1 / 3) * math.exp(-1 / 3))


def test_analytic_inverse_square_default_grid_holds_the_tail(tmp_path, recwarn):
    # without --r-max the inverse-square case extends its grid to 30/mu^2
    assert run(tmp_path, "analytic", "--case", "inverse_square") == 0
    assert not recwarn.list
    data = json.loads((tmp_path / "analytic_result.json").read_text())
    assert data["config"]["r_max"] == pytest.approx(30.0 / data["mu_sq"], rel=1e-15)
    assert data["S_psi_quadrature"] == pytest.approx(data["S_psi_closed_form"], abs=1e-6)
    assert run(tmp_path, "analytic", "--case", "inverse_square", "--r-max", "12") == 0
    data = json.loads((tmp_path / "analytic_result.json").read_text())
    assert data["config"]["r_max"] == 12.0


def test_groundstate_reports_l2_vs_analytic(tmp_path):
    assert run(tmp_path, "groundstate", "--b0", repr(PI), "--q", "0", "--N", "1") == 0
    data = json.loads((tmp_path / "groundstate_result.json").read_text())
    assert data["analytic_case"] == "constant"
    assert data["l2_vs_analytic"] < 1e-3
    assert data["converged"] is True
    assert 0 < data["newton_steps"] < data["steps"]
    hist = (tmp_path / "groundstate_history.csv").read_text().splitlines()
    assert hist[0] == "step,residual,norm,omega_estimate"
    assert len(hist) == 1 + data["steps"]  # one row per flow or Newton iteration


def test_evolve_stationary_summary(tmp_path):
    assert run(tmp_path, "evolve", "--case", "constant", "--N", "1",
               "--b0", repr(PI), "--steps", "100", "--stride", "50",
               "--n", "1000", "--r-max", "8") == 0
    data = json.loads((tmp_path / "evolve_result.json").read_text())
    assert data["norm_drift"] < 1e-8
    assert data["phase_rel_error"] < 1e-3
    lines = (tmp_path / "evolve_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t[tau],r[a],psi_re,psi_im,density"
    assert len(lines) == 1 + 3 * 1000  # t = 0, 50 dt, 100 dt snapshots


def test_field_constant_over_r(tmp_path):
    assert run(tmp_path, "field", "--f-model", "constant-over-r", "--b0", "1") == 0
    data = json.loads((tmp_path / "field_result.json").read_text())
    assert abs(data["extracted_q"]) < 1e-9
    assert data["extracted_b0"] == pytest.approx(1.0, abs=1e-9)


def test_field_linear_rho_converges_at_defaults(tmp_path):
    assert run(tmp_path, "field", "--f-model", "linear-rho") == 0
    data = json.loads((tmp_path / "field_result.json").read_text())
    assert data["converged"] is True


def test_field_linear_rho_strong_source_is_self_consistent_or_exits_3(tmp_path):
    # the damped fixed-point iteration exited 0 here with a state whose
    # residual in its own field was 7e2
    code = run(tmp_path, "field", "--f-model", "linear-rho", "--eps", "30")
    assert code in (0, 3)
    if code == 0:
        data = json.loads((tmp_path / "field_result.json").read_text())
        assert data["converged"] is True
        assert data["omega"] == pytest.approx(5.903877, rel=1e-6)


@pytest.mark.parametrize("flag, key", [("--mixing", "mixing"),
                                       ("--inner-steps", "inner_steps")])
def test_removed_field_options_exit_2_naming_them(tmp_path, capsys, flag, key):
    assert run(tmp_path, "field", flag, "1") == 2
    assert flag in capsys.readouterr().err
    conf = tmp_path / "old.conf"
    conf.write_text(f"{key} = 1\n")
    assert run(tmp_path, "field", "--config", str(conf)) == 2
    assert repr(key) in capsys.readouterr().err


def test_max_sweeps_bounds_the_coupled_newton_steps(tmp_path, capsys):
    # --max-sweeps still parses, as the budget of coupled Newton steps
    assert run(tmp_path, "field", "--f-model", "linear-rho", "--eps", "5",
               "--max-sweeps", "1") == 3
    assert "after 1 coupled Newton steps" in capsys.readouterr().err
    conf = tmp_path / "budget.conf"
    conf.write_text("f_model = linear-rho\neps = 5\nmax_sweeps = 50\n")
    assert run(tmp_path, "field", "--config", str(conf)) == 0
    data = json.loads((tmp_path / "field_result.json").read_text())
    assert 0 < data["sweeps"] <= 50 and data["config"]["max_sweeps"] == 50


@pytest.mark.parametrize("argv", [
    ("analytic", "--case", "general", "--N", "1", "--q", "-1e-1"),
    ("field", "--point-charge", "-1e-3"),
    ("groundstate", "--b0", "-1e-1"),
], ids=["analytic-q", "field-point-charge", "groundstate-b0"])
def test_negative_values_in_scientific_notation(tmp_path, argv):
    # argparse alone takes "-1e-1" for an option and exits
    *head, flag, value = argv
    assert run(tmp_path / "spaced", *argv) == 0
    assert run(tmp_path / "joined", *head, f"{flag}={value}") == 0
    spaced = sorted((tmp_path / "spaced").iterdir())
    assert [p.name for p in spaced] == [p.name for p in sorted((tmp_path / "joined").iterdir())]
    for path in spaced:
        assert path.read_bytes() == (tmp_path / "joined" / path.name).read_bytes()
    config = json.loads(next(p for p in spaced if p.suffix == ".json").read_text())["config"]
    assert config[flag[2:].replace("-", "_")] == float(value)


def test_report_subset_and_json(tmp_path, capsys):
    code = run(tmp_path, "report", "--only", "9,10", "--json")
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] criterion  9" in out
    assert "[PASS] criterion 10" in out
    data = json.loads((tmp_path / "report_report.json").read_text())
    assert data["all_passed"] is True
    assert [c["id"] for c in data["criteria"]] == [9, 10]


def test_report_coarse_grid_control_fails_with_explanation(tmp_path, capsys):
    # deliberately coarse grid: the residual criterion must fail and the
    # output must explain the O(h^2) floor
    code = run(tmp_path, "report", "--only", "1", "--c1-n", "32")
    out = capsys.readouterr().out
    assert code == 4
    assert "[FAIL] criterion  1" in out
    assert "truncation floor" in out


def test_exit_code_2_on_bad_domain(tmp_path, capsys):
    assert run(tmp_path, "analytic", "--case", "general", "--N", "1", "--q", "0") == 2
    assert run(tmp_path, "groundstate", "--N", "-1") == 2
    assert run(tmp_path, "evolve", "--steps", "-3") == 2
    assert run(tmp_path, "evolve", "--dt", "inf", "--steps", "3") == 2
    assert run(tmp_path, "groundstate", "--log-floor", "inf") == 2
    assert run(tmp_path, "groundstate", "--tol", "inf", "--max-steps", "5") == 2
    assert run(tmp_path, "field", "--inner-steps", "0") == 2
    assert run(tmp_path, "field", "--inner-steps", "-1") == 2
    assert run(tmp_path, "field", "--max-sweeps", "0") == 2
    assert run(tmp_path, "groundstate", "--r-min", "0.5") == 2
    assert run(tmp_path, "evolve", "--r-min", "0.05") == 2
    assert run(tmp_path, "field", "--r-min", "0.05") == 2
    for only in ("11", "0", "x"):
        assert run(tmp_path, "report", "--only", only) == 2
        assert "criterion ids 1-10" in capsys.readouterr().err


def test_groundstate_accepts_explicit_origin_step(tmp_path):
    # --r-min 0.0125 is the default grid's h = 8 / 640, so r_min == h holds
    assert run(tmp_path / "a", "groundstate") == 0
    assert run(tmp_path / "b", "groundstate", "--r-min", "0.0125") == 0
    default, explicit = (json.loads((tmp_path / d / "groundstate_result.json").read_text())
                         for d in "ab")
    assert explicit["converged"]
    assert explicit["omega"] == pytest.approx(default["omega"], rel=1e-10)


def test_exit_code_3_on_nonconvergence(tmp_path, capsys):
    assert run(tmp_path, "groundstate", "--b0", "3.14", "--q", "0",
               "--max-steps", "25") == 3


@pytest.mark.parametrize("argv", [
    ("groundstate", "--b0", "1e300", "--max-steps", "50"),
    ("groundstate", "--q", "1e300", "--max-steps", "50"),
    ("field", "--b0", "1e300", "--max-sweeps", "20"),
    ("field", "--point-charge", "1e300", "--max-sweeps", "20"),
], ids=["groundstate-b0", "groundstate-q", "field-b0", "field-point-charge"])
def test_exit_code_3_when_relaxation_blows_up(tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, *argv) == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err.startswith("solver did not converge: relaxation step 1 "
                                              "left no finite positive norm")


def test_point_charge_overflow_exits_2_naming_the_charge(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, "field", "--point-charge", "1e308", "--max-sweeps", "20") == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "point_charge 1e+308 overflows" in capsys.readouterr().err


def test_default_groundstate_reruns_byte_identical(tmp_path):
    for out in ("a", "b"):
        assert main(["groundstate", "--out", str(tmp_path / out)]) == 0
    for name in ("groundstate_result.json", "groundstate_psi.csv", "groundstate_history.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cached_parser_leaks_nothing_between_calls(tmp_path):
    # one parser serves every main call of a process; each call's files must
    # equal those of a call on a freshly built parser
    conf = tmp_path / "run.conf"
    conf.write_text("case = q1\nN = 2\n")
    calls = [
        ("groundstate", "--b0", "2.5", "--N", "2", "--weight", "radial"),
        ("analytic", "--case", "general", "--q", "2", "--N", "8", "--n", "512"),
        ("groundstate",),
        ("analytic",),
        ("analytic", "--config", str(conf)),
    ]
    for k, argv in enumerate(calls):
        assert main([*argv, "--out", str(tmp_path / "shared" / str(k))]) == 0
    for k, argv in enumerate(calls):
        build_parser.cache_clear()
        assert main([*argv, "--out", str(tmp_path / "fresh" / str(k))]) == 0
    for k in range(len(calls)):
        shared = sorted((tmp_path / "shared" / str(k)).iterdir())
        fresh = sorted((tmp_path / "fresh" / str(k)).iterdir())
        assert [p.name for p in shared] == [p.name for p in fresh]
        for a, b in zip(shared, fresh):
            assert a.read_bytes() == b.read_bytes(), (calls[k], a.name)


def test_default_evolve_reruns_byte_identical(tmp_path):
    for out in ("a", "b"):
        assert main(["evolve", "--out", str(tmp_path / out)]) == 0
    for name in ("evolve_result.json", "evolve_trajectory.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_config_file_roundtrip_and_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# gausson point\ncase = constant\nN = 8\nb0 = 3.141592653589793\n")
    assert main(["analytic", "--config", str(conf), "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "analytic_result.json").read_text())
    assert data["N"] == 8
    assert type(data["config"]["N"]) is int  # file values are checked, not converted

    # command line wins over the file
    assert main(["analytic", "--config", str(conf), "--N", "1",
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "analytic_result.json").read_text())
    assert data["N"] == 1


def test_unknown_config_key_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense = 1\n")
    assert main(["analytic", "--config", str(conf), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, line", [
    ("analytic", "case = foo"),
    ("field", "f_model = nope"),
    ("groundstate", "weight = cube"),
    ("analytic", "spacing = cubic"),
    ("evolve", "steps = 2.5"),
    ("analytic", "n = abc"),
])
def test_config_file_values_checked_like_flags(tmp_path, capsys, command, line):
    conf = tmp_path / "bad.conf"
    conf.write_text(line + "\n")
    assert main([command, "--config", str(conf), "--out", str(tmp_path)]) == 2
    assert repr(line.split(" = ")[0]) in capsys.readouterr().err


def test_saved_config_reruns_byte_identical(tmp_path):
    saved = tmp_path / "resolved.conf"
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["analytic", "--case", "q1", "--N", "2", "--b0", repr(PI),
                 "--out", str(out1), "--save-config", str(saved)]) == 0
    assert main(["analytic", "--config", str(saved), "--out", str(out2)]) == 0
    for name in ("analytic_result.json", "analytic_profiles.csv"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b


def test_physical_scales_convert_coupling(tmp_path):
    # b0_tilde = 2 m b0 a^2 / hbar^2: with (hbar=1, m=1, a=2) a physical
    # b0 = pi/8 lands on the dimensionless Gausson point b0 = pi
    assert run(tmp_path, "analytic", "--case", "constant", "--N", "1",
               "--b0", repr(PI / 8.0), "--hbar", "1", "--mass", "1", "--a", "2") == 0
    data = json.loads((tmp_path / "analytic_result.json").read_text())
    assert data["profile"]["b0_tilde"] == pytest.approx(PI, rel=1e-15)
    assert data["omega"] == pytest.approx(3 * PI, rel=1e-14)


def test_partial_physical_scales_rejected(tmp_path):
    assert run(tmp_path, "analytic", "--case", "constant", "--N", "1",
               "--hbar", "1") == 2


def test_analytic_observable_block(tmp_path):
    assert run(tmp_path, "analytic", "--case", "constant", "--N", "1",
               "--b0", repr(PI)) == 0
    data = json.loads((tmp_path / "analytic_result.json").read_text())
    obs = data["observables"]
    # constant temperature: the entropy term is T * S = pi * 3/2
    assert obs["entropy_term"] == pytest.approx(PI * 1.5, rel=1e-6)
    assert obs["internal_energy"] == pytest.approx(
        obs["kinetic"] + obs["potential"] + obs["entropy_term"]
    )


def test_config_parser_coercion(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("x = 1\ny = 2.5\nflag = true\nname = uniform\n")
    conf = parse_config_file(path)
    assert conf == {"x": 1, "y": 2.5, "flag": True, "name": "uniform"}
    save_config_file(path, conf)
    assert parse_config_file(path) == conf
