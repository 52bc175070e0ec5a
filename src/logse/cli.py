"""Command-line front end.

Subcommands: analytic (closed-form catalog), groundstate (imaginary-time
relaxation), evolve (real-time propagation), field (self-consistent minimal
model), report (acceptance suite).  Each declares its settings once, in
SETTINGS; a flat key=value file (--config) may set them, flags taking
precedence.  Every output JSON embeds the configuration the run used,
--save-config writes the settings as given, and identical configurations
produce byte-identical outputs.

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
from .observables import entropy, entropy_density, internal_energy
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
_DEFAULTS = SolverOptions()

# Each subcommand's settings, key -> (flag type or tuple of choices, default,
# help).  The flag is "--" plus the key with "_" written as "-", and a config
# file names the key itself.  Values resolve as: explicit flag > config file >
# default; the JSON config block and --save-config keep the table's key order.
_CASE = {
    "case": (tuple(c.value for c in CaseTag), "constant", "closed-form family"),
    "N": (float, 1.0, "normalization (particle number)"),
    "q": (float, 2.0, "inverse-square coupling charge"),
    "b0": (float, PI, "constant part of the coupling"),
    "L2": (float, 0.0, "angular separation constant"),
    "SY": (float, 0.0, "angular entropy constant"),
}
# when all three are given, b0 is read as a physical energy and q (and field's
# point_charge and eps, which enter b as q does) as an energy*length^2
_SCALES = {
    "hbar": (float, None, "reduced Planck constant"),
    "mass": (float, None, "particle mass"),
    "a": (float, None, "length scale of the log argument"),
}


def _grid(r_max, n) -> dict:
    return {
        "r_max": (float, r_max, "outer radius"),
        "n": (int, n, "number of grid points"),
    }


SETTINGS = {
    # r_max None: 12, or 30/mu^2 for the inverse-square tail
    "analytic": {**_CASE, "r_min": (float, None, "inner radius (omit for r_max/n)"),
                 **_grid(None, 2048), **_SCALES},
    "groundstate": {
        "b0": (float, PI, "constant part of the coupling"),
        "q": (float, 0.0, "inverse-square coupling charge"),
        "N": (float, 1.0, "normalization (particle number)"),
        "max_steps": (int, _DEFAULTS.max_steps, "budget of flow and Newton iterations"),
        "tol": (float, _DEFAULTS.convergence_tol, "tolerance on the stationary residual"),
        "weight": (("sphere", "radial"), "sphere",
                   "norm convention: 4*pi*r^2 (sphere) or r^2 (radial)"),
        **_grid(8.0, 640), **_SCALES,
    },
    "evolve": {
        **_CASE,
        "dt": (float, 1e-4, "time step"),
        "steps": (int, 1000, "number of time steps"),
        "stride": (int, 100, "trajectory snapshot stride"),
        **_grid(10.0, 2000), **_SCALES,
    },
    "field": {
        "f_model": (("constant-over-r", "zero", "linear-rho"), "constant-over-r",
                    "field source model"),
        "b0": (float, 1.0, "strength of the constant-over-r source"),
        "eps": (float, 1e-3, "strength of the linear-rho source"),
        "point_charge": (float, 0.0, "point charge at the origin"),
        "N": (float, 1.0, "normalization (particle number)"),
        "tol": (float, _DEFAULTS.convergence_tol, "tolerance on the coupled residual"),
        "max_sweeps": (int, 200,
                       "budget of coupled Newton steps over all continuation rungs"),
        **_grid(8.0, 512), **_SCALES,
    },
    "report": {
        "json": (bool, False, "also write a machine-readable report"),
        "only": (str, None, "comma-separated criterion ids, e.g. 2,9,10"),
    },
}

# the config-file values each flag type admits (a bool is no number); values
# are checked, not converted
_ADMITS = {float: (int, float), int: int, bool: bool, str: object}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from SETTINGS; parse_args
    leaves it as it was, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="logse",
        description="logarithmic wave equation with radially varying coupling: "
                    "analytic catalog, observables, solvers and acceptance report",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, settings in SETTINGS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--save-config", help="write the settings as given here")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--prefix", help="output file prefix (default: command name)")
        # flags default to None: an omitted one leaves the file's or the table's value
        for key, (kind, _, text) in settings.items():
            how = ({"action": "store_true"} if kind is bool else
                   {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            p.add_argument(_flag(key), dest=key, default=None, help=text, **how)
    return parser


def _resolve(args) -> dict:
    """The settings as given, flag > config file > default, in table order."""
    settings = SETTINGS[args.command]
    conf = {key: default for key, (_, default, _) in settings.items()}
    file_conf = parse_config_file(args.config) if args.config else {}
    unknown = set(file_conf) - set(settings)
    if unknown:
        raise DomainError(f"unknown config keys for '{args.command}': {sorted(unknown)}")
    for key, value in file_conf.items():
        kind = settings[key][0]
        fits = (value in kind if isinstance(kind, tuple) else isinstance(value, _ADMITS[kind])
                and not (isinstance(value, bool) and kind in (int, float)))
        if not fits:
            raise DomainError(f"config key {key!r}: {value!r} is not a valid {_flag(key)} "
                              f"({list(kind) if isinstance(kind, tuple) else kind.__name__})")
    conf.update(file_conf)
    for key in conf:
        if getattr(args, key) is not None:
            conf[key] = getattr(args, key)
    return conf


def _apply_scales(conf: dict) -> dict:
    """A copy of conf, with physical couplings converted to dimensionless when
    unit scales are given; the command runs on it and may change it."""
    out = dict(conf)
    given = [conf.get(key) is not None for key in ("hbar", "mass", "a")]
    if not any(given):
        return out
    if not all(given):
        raise DomainError("physical units need all three of --hbar, --mass, --a")
    scales = ScaleSet(conf["hbar"], conf["mass"], conf["a"])
    out["b0"] = to_dimensionless(conf["b0"], 0.0, scales).b0_tilde
    for key in ("q", "point_charge", "eps"):
        if key in conf:
            out[key] = to_dimensionless(0.0, conf[key], scales).q_tilde
    return out


def _grid_from(conf) -> RadialGrid:
    # only analytic has an r_min: the solvers' grid is the origin-step one
    if conf.get("r_min") is None:
        return RadialGrid.uniform_from_origin(conf["r_max"], conf["n"])
    return RadialGrid.uniform(conf["r_min"], conf["r_max"], conf["n"])


def _build_case(conf):
    case = conf["case"]
    if case == "general":
        return case_general(conf["N"], conf["q"])
    if case == "q1":
        return case_q1(conf["N"], conf["b0"])
    if case == "constant":
        return case_constant(conf["N"], conf["b0"])
    return case_inverse_square(conf["N"], conf["L2"], conf["SY"])


def _paths(args, kind_map):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prefix = args.prefix or args.command
    return {kind: out / f"{prefix}_{name}" for kind, name in kind_map.items()}


# ----------------------------------------------------------------- commands

def cmd_analytic(args, conf) -> int:
    """Evaluate a closed-form stationary solution."""
    sol = _build_case(conf)
    if conf["r_max"] is None:  # the inverse-square tail needs r_max ~ 30/mu^2
        conf["r_max"] = 12.0 if sol.mu_sq is None else 30.0 / sol.mu_sq
    # record the (b0, q) of the state, which its case may fix whatever was given
    conf.update(b0=sol.profile.b0_tilde, q=sol.profile.q_tilde)
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
        payload.update(mu_sq=sol.mu_sq, L_sq=sol.L_sq, S_Y=sol.S_Y)

    paths = _paths(args, {"json": "result.json", "csv": "profiles.csv"})
    write_json(paths["json"], payload)
    values = psi.values.astype(complex)
    write_csv(
        paths["csv"],
        ["r[a]", "psi_re", "psi_im", "density",
         "entropy_density[1/a]", "T_psi[hbar/tau]", "V_eff[hbar/tau]"],
        [r, values.real, values.imag, psi.density(),
         entropy_density(psi), sol.profile.evaluate(r),
         effective_potential(sol, r)],
    )
    print(f"wrote {paths['json']} and {paths['csv']}")
    return 0


def _relation_checks(sol) -> dict:
    if sol.case is CaseTag.GENERAL:
        value = sol.omega * sol.entropy_closed_form() ** (2.0 / 3.0)
        target = PI * 1.5 ** (2.0 / 3.0) * (3.0 - sol.profile.q_tilde)
        return {"omega_S23": value, "omega_S23_target": target}
    if sol.case is CaseTag.Q_ONE:
        return {
            "transcendental_residual":
                transcendental_residual(sol.k_tilde, sol.norm, sol.profile.b0_tilde),
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


def cmd_groundstate(args, conf) -> int:
    """Imaginary-time ground-state relaxation."""
    grid = _grid_from(conf)
    profile = CouplingProfile(conf["b0"], conf["q"])
    opts = SolverOptions(max_steps=conf["max_steps"], convergence_tol=conf["tol"])
    weight = 4.0 * PI if conf["weight"] == "sphere" else 1.0
    result = ground_state_from_coupling_values(profile.evaluate(grid.r), conf["N"], grid, opts,
                                               angular_weight=weight)
    payload = {
        "command": "groundstate",
        "profile": {"b0_tilde": conf["b0"], "q_tilde": conf["q"]},
        "N": conf["N"],
        "omega": result.omega,
        "converged": result.converged,
        "steps": result.steps,
        "newton_steps": result.newton_steps,
        "rejected_steps": result.rejected_steps,
        "initial_exponent": result.initial_exponent,
        "config": conf,
    }
    reference = _matching_case(conf)
    if reference is not None and abs(weight - reference.angular_weight) < 1e-12:
        payload["analytic_case"] = reference.case.value
        payload["l2_vs_analytic"] = l2_distance(result.psi, reference.psi)
        payload["omega_analytic"] = reference.omega

    paths = _paths(args, {"json": "result.json", "psi": "psi.csv",
                          "history": "history.csv"})
    write_json(paths["json"], payload)
    write_csv(paths["psi"], ["r[a]", "psi_re", "psi_im", "density"],
              [grid.r, result.psi.values.real, np.zeros_like(grid.r),
               result.psi.density()])
    hist = np.asarray(result.history, dtype=float).reshape(-1, 4)
    write_csv(paths["history"], ["step", "residual", "norm", "omega_estimate"], list(hist.T))
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


def cmd_evolve(args, conf) -> int:
    """Real-time propagation of an analytic state."""
    sol = _build_case(conf)
    # record the (b0, q) of the state, which its case may fix whatever was given
    conf.update(b0=sol.profile.b0_tilde, q=sol.profile.q_tilde)
    grid = _grid_from(conf)
    psi0 = sol.sample(grid)
    dt = conf["dt"]
    coupling = sol.profile.evaluate(grid.r)
    # the library only warns: a stiff kick still returns a trajectory
    max_coupling = float(np.max(np.abs(coupling)))
    if dt * max_coupling > 1.0:
        raise DomainError(
            f"dt * max|b(r)| = {dt * max_coupling:.3g} > 1: the nonlinear phase "
            f"step is unstable at the inner grid edge (r = {grid.r_min:g}); lower "
            f"--dt to at most {1.0 / max_coupling:.3g}, or move the edge out with "
            "a smaller --n (the edge sits at r_max/n)")
    # phases are unwrapped between records: a turn of pi or more there aliases
    interval = min(conf["stride"] or conf["steps"], conf["steps"])
    turn = abs(sol.omega) * interval * dt
    if turn >= PI:
        raise DomainError(f"|omega| * {interval} steps * dt = {turn:.3g} >= pi: the phase "
                          "aliases between recorded snapshots; lower --stride or --dt")
    result = evolve_real_time(psi0, coupling, dt, n_steps=conf["steps"],
                              snapshot_stride=conf["stride"], keep_snapshots=True)
    rho0 = np.abs(result.snapshots[0][1]) ** 2  # the propagator's t = 0 state
    density_drift = float(np.max(np.abs(result.psi.density() - rho0)))
    t_end = float(result.times[-1])
    phase_expected = -sol.omega * t_end
    payload = {
        "command": "evolve",
        "case": sol.case.value,
        "steps": conf["steps"],
        "dt": dt,
        "norm_drift": result.norm_drift,
        "density_drift": density_drift,
        "phase_final": float(result.phases[-1]),
        "phase_expected": phase_expected,
        "phase_rel_error": abs(float(result.phases[-1]) - phase_expected)
        / max(abs(phase_expected), 1e-300),
        "config": conf,
    }
    paths = _paths(args, {"json": "result.json", "traj": "trajectory.csv"})
    write_json(paths["json"], payload)
    # one group of rows per snapshot, each encoded as it is made
    groups = ([np.full_like(grid.r, t), grid.r, values.real, values.imag, np.abs(values) ** 2]
              for t, values in result.snapshots)
    write_csv(paths["traj"], ["t[tau]", "r[a]", "psi_re", "psi_im", "density"],
              next(groups), groups)
    print(f"wrote {paths['json']} (norm drift {result.norm_drift:.3e})")
    return 0


def cmd_field(args, conf) -> int:
    """Self-consistent wavefunction and auxiliary field."""
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
    paths = _paths(args, {"json": "result.json", "field": "field.csv",
                          "psi": "psi.csv"})
    write_json(paths["json"], payload)
    write_csv(paths["field"], ["r[a]", "phi", "dphi[coupling]"],
              [grid.r, result.field.phi, result.field.dphi])
    write_csv(paths["psi"], ["r[a]", "psi_re", "psi_im", "density"],
              [grid.r, result.psi.values.real, np.zeros_like(grid.r),
               result.psi.density()])
    print(f"wrote {paths['json']} (q = {result.field.extracted_q:.6g}, "
          f"b0 = {result.field.extracted_b0:.6g})")
    return 0


def cmd_report(args, conf) -> int:
    """Run the acceptance suite."""
    # imported here: criterion 3's quad oracle loads scipy.integrate
    from . import acceptance

    only = None
    if conf["only"]:
        only = [tok.strip() for tok in str(conf["only"]).split(",") if tok.strip()]
        if not only or not set(only) <= set(map(str, acceptance.ALL_CRITERIA)):
            raise DomainError(f"--only takes criterion ids 1-10, got {conf['only']!r}")
        only = {int(tok) for tok in only}
    results = acceptance.run_all(only=only)
    print(acceptance.format_report(results))
    if conf["json"]:
        paths = _paths(args, {"json": "report.json"})
        payload = acceptance.report_dict(results)
        payload["config"] = conf
        write_json(paths["json"], payload)
        print(f"wrote {paths['json']}")
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
    args = build_parser().parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        given = _resolve(args)
        code = _COMMANDS[args.command](args, _apply_scales(given))
    except DomainError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 2
    except ConvergenceError as err:
        print(f"solver did not converge: {err}", file=sys.stderr)
        return 3
    if args.save_config:
        save_config_file(args.save_config, given)
    return code


if __name__ == "__main__":
    sys.exit(main())
