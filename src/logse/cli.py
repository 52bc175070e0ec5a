"""Command-line front end.

Subcommands: analytic (closed-form catalog), groundstate (imaginary-time
relaxation), evolve (real-time propagation), field (self-consistent minimal
model), report (acceptance suite).  Configuration may come from a flat
key=value file (--config) with command-line flags taking precedence; every
output JSON embeds the fully resolved configuration, and identical
configurations produce byte-identical outputs.

Exit codes: 0 success, 2 precondition violation, 3 solver non-convergence,
4 acceptance failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .analytic import (
    CaseTag,
    case_constant,
    case_general,
    case_inverse_square,
    case_q1,
    constant_entropy_candidates,
    effective_potential,
    transcendental_residual,
)
from .errors import ConvergenceError, DomainError
from .grids import RadialGrid, l2_distance
from .observables import entropy, entropy_density, internal_energy, quantum_temperature
from .output import parse_config_file, save_config_file, write_csv, write_json
from .scales import CouplingProfile, ScaleSet, to_dimensionless
from .numerics import (
    SolverOptions,
    evolve_real_time,
    f_constant_over_r,
    f_linear_density,
    f_zero,
    ground_state_from_coupling_values,
    self_consistent_minimal_model,
)

PI = math.pi

# reused per-command defaults; CLI flags all default to None so that values
# resolve as: explicit flag > config file > this table
_GRID_DEFAULTS = {"r_min": None, "r_max": 12.0, "n": 2048, "spacing": "uniform"}
_SCALE_DEFAULTS = {"hbar": None, "mass": None, "a": None}
_DEFAULTS = {
    "analytic": {
        "case": "constant", "N": 1.0, "q": 2.0, "b0": PI, "L2": 0.0, "SY": 0.0,
        **{**_GRID_DEFAULTS, "r_max": None}, **_SCALE_DEFAULTS,
    },
    "groundstate": {
        "b0": PI, "q": 0.0, "N": 1.0, "dt": None, "max_steps": 25000,
        "tol": 1e-6, "log_floor": 1e-30, "weight": "sphere",
        **{**_GRID_DEFAULTS, "r_max": 8.0, "n": 640}, **_SCALE_DEFAULTS,
    },
    "evolve": {
        "case": "constant", "N": 1.0, "q": 2.0, "b0": PI, "L2": 0.0, "SY": 0.0,
        "dt": 1e-4, "steps": 1000, "stride": 100,
        **{**_GRID_DEFAULTS, "r_max": 10.0, "n": 2000}, **_SCALE_DEFAULTS,
    },
    "field": {
        "f_model": "constant-over-r", "b0": 1.0, "eps": 1e-3,
        "point_charge": 0.0, "N": 1.0, "tol": 1e-6, "max_sweeps": 200,
        **{**_GRID_DEFAULTS, "r_max": 8.0, "n": 512}, **_SCALE_DEFAULTS,
    },
    "report": {"json": False, "only": None, "c1_n": 4096},
}
# options of the damped fixed-point field iteration that the coupled Newton
# solve replaced; a flag or config key naming one exits 2
_REMOVED = {"field": ("mixing", "inner_steps")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it as
    it was, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="logse",
        description="logarithmic wave equation with radially varying coupling: "
                    "analytic catalog, observables, solvers and acceptance report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--save-config", help="write the resolved configuration here")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--prefix", help="output file prefix (default: command name)")

    def grid_flags(p):
        p.add_argument("--r-min", type=float, dest="r_min",
                       help="inner radius (omit for an origin-step uniform grid)")
        p.add_argument("--r-max", type=float, dest="r_max")
        p.add_argument("--n", type=int, help="number of grid points")
        p.add_argument("--spacing", choices=["uniform", "log"])

    def case_flags(p):
        p.add_argument("--case", choices=[c.value for c in CaseTag])
        p.add_argument("--N", type=float, help="normalization (particle number)")
        p.add_argument("--q", type=float, help="inverse-square coupling charge")
        p.add_argument("--b0", type=float, help="constant part of the coupling")
        p.add_argument("--L2", type=float, help="angular separation constant")
        p.add_argument("--SY", type=float, help="angular entropy constant")

    def scale_flags(p):
        # when all three are given, --b0 and --q are read as physical
        # (energy, energy*length^2) and converted to dimensionless form
        p.add_argument("--hbar", type=float)
        p.add_argument("--mass", type=float)
        p.add_argument("--a", type=float, help="length scale of the log argument")

    p = sub.add_parser("analytic", help="evaluate a closed-form stationary solution")
    common(p); case_flags(p); grid_flags(p); scale_flags(p)

    p = sub.add_parser("groundstate", help="imaginary-time ground-state relaxation")
    common(p); grid_flags(p); scale_flags(p)
    p.add_argument("--N", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--b0", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--max-steps", type=int, dest="max_steps")
    p.add_argument("--tol", type=float, help="tolerance on the stationary residual")
    p.add_argument("--log-floor", type=float, dest="log_floor")
    p.add_argument("--weight", choices=["sphere", "radial"],
                   help="norm convention: 4*pi*r^2 (sphere) or r^2 (radial)")

    p = sub.add_parser("evolve", help="real-time propagation of an analytic state")
    common(p); case_flags(p); grid_flags(p); scale_flags(p)
    p.add_argument("--dt", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--stride", type=int, help="trajectory snapshot stride")

    p = sub.add_parser("field", help="self-consistent wavefunction + auxiliary field")
    common(p); grid_flags(p); scale_flags(p)
    p.add_argument("--f-model", dest="f_model",
                   choices=["constant-over-r", "zero", "linear-rho"])
    p.add_argument("--b0", type=float, help="strength of the constant-over-r source")
    p.add_argument("--eps", type=float, help="strength of the linear-rho source")
    p.add_argument("--point-charge", type=float, dest="point_charge")
    p.add_argument("--N", type=float)
    p.add_argument("--tol", type=float, help="tolerance on the coupled residual")
    p.add_argument("--max-sweeps", type=int, dest="max_sweeps",
                   help="budget of coupled Newton steps over all continuation rungs")
    for key in _REMOVED["field"]:
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=argparse.SUPPRESS)

    p = sub.add_parser("report", help="run the acceptance suite")
    common(p)
    p.add_argument("--json", action="store_true", default=None,
                   help="also write a machine-readable report")
    p.add_argument("--only", help="comma-separated criterion ids, e.g. 2,9,10")
    p.add_argument("--c1-n", type=int, dest="c1_n",
                   help="grid size for the residual criterion (discretization control)")

    # each subcommand's flags by key, to check config-file values against
    for p in sub.choices.values():
        p.set_defaults(flag_actions={action.dest: action for action in p._actions})
    return parser


def _resolve(args) -> dict:
    """Merge flag > config-file > default into one flat dict."""
    table = dict(_DEFAULTS[args.command])
    file_conf = parse_config_file(args.config) if args.config else {}
    for key in _REMOVED.get(args.command, ()):
        if key in file_conf or getattr(args, key) is not None:
            raise DomainError(f"--{key.replace('_', '-')} (config key {key!r}) was removed: "
                              f"the field is one coupled Newton solve, with no mixing "
                              f"or inner sweeps")
    if file_conf:
        unknown = set(file_conf) - set(table)
        if unknown:
            raise DomainError(
                f"unknown config keys for '{args.command}': {sorted(unknown)}"
            )
        for key, value in file_conf.items():
            # checked against the flag owning the key, not converted
            action = args.flag_actions[key]
            kinds = {float: (int, float), int: (int,)}.get(action.type, object)
            if (not isinstance(value, kinds) or isinstance(value, bool) and action.type
                    or action.choices is not None and value not in action.choices):
                raise DomainError(f"config key {key!r}: {value!r} is not a valid "
                                  f"{action.option_strings[0]} "
                                  f"({action.choices or action.type.__name__})")
        table.update(file_conf)
    for key in table:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            table[key] = cli_value
    return _apply_scales(table)


def _apply_scales(conf: dict) -> dict:
    """Convert physical (b0, q) to dimensionless when unit scales are given."""
    given = [conf.get(key) is not None for key in ("hbar", "mass", "a")]
    if not any(given):
        return conf
    if not all(given):
        raise DomainError("physical units need all three of --hbar, --mass, --a")
    scales = ScaleSet(conf["hbar"], conf["mass"], conf["a"])
    out = dict(conf)
    profile = to_dimensionless(conf.get("b0", 0.0) or 0.0,
                               conf.get("q", 0.0) or 0.0, scales)
    if "b0" in conf:
        out["b0"] = profile.b0_tilde
    if "q" in conf:
        out["q"] = profile.q_tilde
    return out


def _grid_from(conf) -> RadialGrid:
    if conf["r_min"] is None:
        if conf["spacing"] == "log":
            raise DomainError("log spacing needs an explicit --r-min")
        return RadialGrid.uniform_from_origin(conf["r_max"], conf["n"])
    maker = RadialGrid.log if conf["spacing"] == "log" else RadialGrid.uniform
    return maker(conf["r_min"], conf["r_max"], conf["n"])


def _build_case(conf):
    case = conf["case"]
    if case == "general":
        return case_general(conf["N"], conf["q"])
    if case == "q1":
        return case_q1(conf["N"], conf["b0"])
    if case == "constant":
        return case_constant(conf["N"], conf["b0"])
    return case_inverse_square(conf["N"], conf["L2"], conf["SY"])


def _paths(conf, args, kind_map):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prefix = args.prefix or args.command
    return {kind: out / f"{prefix}_{name}" for kind, name in kind_map.items()}


def _maybe_save_config(args, conf):
    if args.save_config:
        save_config_file(args.save_config, conf)


# ----------------------------------------------------------------- commands

def cmd_analytic(args) -> int:
    conf = _resolve(args)
    sol = _build_case(conf)
    if conf["r_max"] is None:  # the inverse-square tail needs r_max ~ 30/mu^2
        conf["r_max"] = _GRID_DEFAULTS["r_max"] if sol.mu_sq is None else 30.0 / sol.mu_sq
    grid = _grid_from(conf)
    psi = sol.sample(grid)
    r = grid.r

    # the observable block is computed on the grid-renormalized sample so the
    # normalization precondition holds even when the grid truncates the tail
    report = internal_energy(psi.normalized(), sol.profile)
    payload = {
        "command": "analytic",
        "case": sol.case.value,
        "N": sol.norm,
        "profile": {"b0_tilde": sol.profile.b0_tilde, "q_tilde": sol.profile.q_tilde},
        "omega": sol.omega,
        "S_psi_closed_form": sol.entropy_closed_form(),
        "S_psi_quadrature": entropy(psi),
        "observables": {
            "kinetic": report.kinetic,
            "potential": report.potential,
            "entropy": report.entropy,
            "entropy_term": report.entropy_term,
            "internal_energy": report.internal_energy,
        },
        "relation_checks": _relation_checks(sol),
        "config": conf,
    }
    if sol.k_tilde is not None:
        payload["k_tilde"] = sol.k_tilde
    if sol.mu_sq is not None:
        payload["mu_sq"] = sol.mu_sq
        payload["L_sq"] = sol.L_sq
        payload["S_Y"] = sol.S_Y

    paths = _paths(conf, args, {"json": "result.json", "csv": "profiles.csv"})
    write_json(paths["json"], payload)
    values = psi.values.astype(complex)
    write_csv(
        paths["csv"],
        ["r[a]", "psi_re", "psi_im", "density",
         "entropy_density[1/a]", "T_psi[hbar/tau]", "V_eff[hbar/tau]"],
        [r, values.real, values.imag, psi.density(),
         entropy_density(psi), quantum_temperature(sol.profile, r),
         effective_potential(sol, r)],
    )
    _maybe_save_config(args, conf)
    print(f"wrote {paths['json']} and {paths['csv']}")
    return 0


def _relation_checks(sol) -> dict:
    if sol.case is CaseTag.GENERAL:
        value = sol.omega * sol.entropy_closed_form() ** (2.0 / 3.0)
        target = PI * 1.5 ** (2.0 / 3.0) * (3.0 - sol.profile.q_tilde)
        return {"omega_S23": value, "omega_S23_target": target}
    if sol.case is CaseTag.Q_ONE:
        return {
            "transcendental_residual": transcendental_residual(
                sol.k_tilde, sol.norm, sol.profile.b0_tilde
            ),
            "omega_identity": sol.omega - (2.0 * sol.profile.b0_tilde - sol.k_tilde**2),
        }
    if sol.case is CaseTag.CONSTANT:
        cands = constant_entropy_candidates(sol.norm, sol.profile.b0_tilde)
        return {
            "S_printed_form": cands["printed"],
            "S_n_scaled_form": cands["n_scaled"],
            "S_relation_9half": sol.norm * (4.5 - sol.omega / sol.profile.b0_tilde),
        }
    return {
        "S_formula_N_L2_SY_3": sol.norm * (sol.L_sq + sol.S_Y + 3.0),
        "omega_is_minus_mu4": sol.omega + sol.mu_sq**2,
    }


def cmd_groundstate(args) -> int:
    conf = _resolve(args)
    grid = _grid_from(conf)
    profile = CouplingProfile(conf["b0"], conf["q"])
    opts = SolverOptions(dt=conf["dt"], max_steps=conf["max_steps"],
                         convergence_tol=conf["tol"], log_floor=conf["log_floor"])
    weight = 4.0 * PI if conf["weight"] == "sphere" else 1.0
    result = ground_state_from_coupling_values(
        profile.evaluate(grid.r), conf["N"], grid, opts, angular_weight=weight
    )
    payload = {
        "command": "groundstate",
        "profile": {"b0_tilde": conf["b0"], "q_tilde": conf["q"]},
        "N": conf["N"],
        "omega": result.omega,
        "converged": result.converged,
        "steps": result.steps,
        "newton_steps": result.newton_steps,
        "config": conf,
    }
    reference = _matching_case(conf)
    if reference is not None and abs(weight - reference.angular_weight) < 1e-12:
        payload["analytic_case"] = reference.case.value
        payload["l2_vs_analytic"] = l2_distance(result.psi, reference.psi)
        payload["omega_analytic"] = reference.omega

    paths = _paths(conf, args, {"json": "result.json", "psi": "psi.csv",
                                "history": "history.csv"})
    write_json(paths["json"], payload)
    write_csv(paths["psi"], ["r[a]", "psi_re", "psi_im", "density"],
              [grid.r, result.psi.values.real, np.zeros_like(grid.r),
               result.psi.density()])
    hist = np.asarray(result.history, dtype=float).reshape(-1, 4)
    write_csv(paths["history"],
              ["step", "residual", "norm", "omega_estimate"],
              [hist[:, 0], hist[:, 1], hist[:, 2], hist[:, 3]])
    _maybe_save_config(args, conf)
    print(f"wrote {paths['json']} (omega = {result.omega:.10g})")
    return 0


def _matching_case(conf):
    """Analytic reference for a (b0, q) profile when one exists."""
    b0, q, N = conf["b0"], conf["q"], conf["N"]
    try:
        if q == 0.0 and b0 > 0.0:
            return case_constant(N, b0)
        if q == 1.0 and b0 > 0.0:
            return case_q1(N, b0)
        if q == 1.0 and b0 == 0.0:
            return case_inverse_square(N)
    except (DomainError, ConvergenceError):
        return None
    return None


def cmd_evolve(args) -> int:
    conf = _resolve(args)
    sol = _build_case(conf)
    grid = _grid_from(conf)
    psi0 = sol.sample(grid)
    opts = SolverOptions(dt=conf["dt"])
    result = evolve_real_time(psi0, sol.profile, opts, n_steps=conf["steps"],
                              snapshot_stride=conf["stride"], keep_snapshots=True)
    rho0 = psi0.normalized().density()
    density_drift = float(np.max(np.abs(result.psi.density() - rho0)))
    t_end = float(result.times[-1])
    phase_expected = -sol.omega * t_end
    payload = {
        "command": "evolve",
        "case": sol.case.value,
        "steps": conf["steps"],
        "dt": conf["dt"],
        "norm_drift": result.norm_drift,
        "density_drift": density_drift,
        "phase_final": float(result.phases[-1]),
        "phase_expected": phase_expected,
        "phase_rel_error": abs(float(result.phases[-1]) - phase_expected)
        / max(abs(phase_expected), 1e-300),
        "config": conf,
    }
    paths = _paths(conf, args, {"json": "result.json", "traj": "trajectory.csv"})
    write_json(paths["json"], payload)
    t_col, r_col, re_col, im_col, rho_col = [], [], [], [], []
    for t, values in result.snapshots:
        t_col.append(np.full_like(grid.r, t))
        r_col.append(grid.r)
        re_col.append(values.real)
        im_col.append(values.imag)
        rho_col.append(np.abs(values) ** 2)
    write_csv(paths["traj"],
              ["t[tau]", "r[a]", "psi_re", "psi_im", "density"],
              [np.concatenate(c) for c in (t_col, r_col, re_col, im_col, rho_col)])
    _maybe_save_config(args, conf)
    print(f"wrote {paths['json']} (norm drift {result.norm_drift:.3e})")
    return 0


def cmd_field(args) -> int:
    conf = _resolve(args)
    grid = _grid_from(conf)
    opts = SolverOptions(convergence_tol=conf["tol"])
    model = conf["f_model"]
    psi0 = None
    if model == "constant-over-r":
        f = f_constant_over_r(conf["b0"])
    elif model == "linear-rho":
        f = f_linear_density(conf["eps"])
    else:
        f = f_zero
        # seed the decoupled limit with the box mode it converges to
        span = grid.r_max + grid.h
        psi0 = np.sin(PI * grid.r / span) / grid.r
    result = self_consistent_minimal_model(
        f, conf["N"], grid, opts, point_charge=conf["point_charge"],
        max_sweeps=conf["max_sweeps"], psi0=psi0,
    )
    payload = {
        "command": "field",
        "f_model": model,
        "extracted_q": result.field.extracted_q,
        "extracted_b0": result.field.extracted_b0,
        "omega": result.omega,
        "sweeps": result.sweeps,
        "converged": result.converged,
        "config": conf,
    }
    paths = _paths(conf, args, {"json": "result.json", "field": "field.csv",
                                "psi": "psi.csv"})
    write_json(paths["json"], payload)
    write_csv(paths["field"], ["r[a]", "phi", "dphi[coupling]"],
              [grid.r, result.field.phi, result.field.dphi])
    write_csv(paths["psi"], ["r[a]", "psi_re", "psi_im", "density"],
              [grid.r, result.psi.values.real, np.zeros_like(grid.r),
               result.psi.density()])
    _maybe_save_config(args, conf)
    print(f"wrote {paths['json']} (q = {result.field.extracted_q:.6g}, "
          f"b0 = {result.field.extracted_b0:.6g})")
    return 0


def cmd_report(args) -> int:
    conf = _resolve(args)
    only = None
    if conf["only"]:
        only = [tok.strip() for tok in str(conf["only"]).split(",") if tok.strip()]
        if not only or not set(only) <= set(map(str, acceptance.ALL_CRITERIA)):
            raise DomainError(f"--only takes criterion ids 1-10, got {conf['only']!r}")
        only = [int(tok) for tok in only]
    results = acceptance.run_all(only=only, c1_n_points=conf["c1_n"])
    print(acceptance.format_report(results))
    if conf["json"]:
        paths = _paths(conf, args, {"json": "report.json"})
        payload = acceptance.report_dict(results)
        payload["config"] = conf
        write_json(paths["json"], payload)
        print(f"wrote {paths['json']}")
    _maybe_save_config(args, conf)
    return 0 if all(r.passed for r in results) else 4


_COMMANDS = {
    "analytic": cmd_analytic,
    "groundstate": cmd_groundstate,
    "evolve": cmd_evolve,
    "field": cmd_field,
    "report": cmd_report,
}


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write "--flag -1e-1" as "--flag=-1e-1".

    argparse reads a token that starts with "-" as an option unless it looks
    like "-1" or "-0.1", so a negative value in scientific notation (or -inf)
    would leave its flag without an argument.
    """
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_negative_number(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _is_negative_number(arg: str) -> bool:
    try:
        float(arg)
    except ValueError:
        return False
    return arg.startswith("-")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return _COMMANDS[args.command](args)
    except DomainError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 2
    except ConvergenceError as err:
        print(f"solver did not converge: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
