"""The two workloads: their jobs, inputs, output checks and warm-up.

A job is one CLI invocation or one solver call, except the closed-form
catalog, which is one job of several passes over its millisecond calls.
Every job has a check that compares its output with the analytic tolerance
of the acceptance criterion or test it comes from; a job fails on an
exception, a non-zero exit, a non-converged result or an output outside its
tolerance.

Inputs come from the workload seed: the job order within a relax batch,
the catalog's parameter draws, and a small width perturbation of the initial
guess for library calls that take a psi0.  CLI jobs at their default
configuration stay literal.  Every batch of one run repeats the same jobs,
so work counts are identical from batch to batch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import logse
from logse import cli, numerics
from logse.analytic import (
    case_constant,
    case_general,
    case_inverse_square,
    case_q1,
    constant_entropy_candidates,
    effective_potential,
)
from logse.grids import RadialGrid, l2_distance
from logse.numerics import SolverOptions, f_constant_over_r

PI = math.pi

# relative width perturbation of psi0 guesses; small enough that the
# iteration counts, and so the run time, barely depend on the seed
PSI0_WIDTH_JITTER = 0.02
# criterion 1's residual bound, and the slack allowed on the documented
# truncation floor 1.25*b0^2*h^2 for rows that cannot meet it
RESIDUAL_BOUND = 1e-5
FLOOR_SLACK = 1.01
# printed with every run; the linear-rho field run is left out of the timed
# workload because its time is the sweep budget
KNOWN_FAILURES = [
    "bypass: criterion 1 rows with N=1 cannot meet the 1e-5 residual bound at "
    "n=4096; they are checked against the floor 1.25*b0^2*h^2 and the "
    "2048->4096 refinement ratio instead",
    "relax: `logse field --f-model linear-rho` at CLI defaults exits 3 after "
    "3000 sweeps (last psi change 7.0e-5 vs tol 1e-6, about 15 s); not timed",
]


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    diag: dict = field(default_factory=dict)    # measured errors, reported only
    counts: dict = field(default_factory=dict)  # work counts that must repeat


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    jobs: list
    warmup: Callable[[], None]
    inputs: dict           # seed-drawn parameters, recorded with the result
    largest_array: dict    # computed from the input sizes, not measured


def _rel(value, target):
    return abs(value - target) / abs(target)


def _outcome(checks: dict, diag=None, counts=None) -> Outcome:
    """checks maps a description to a pass flag."""
    failed = [name for name, ok in checks.items() if not ok]
    return Outcome(not failed, "; ".join(failed), diag or {}, counts or {})


def _gaussian_guess(grid: RadialGrid, jitter: float) -> np.ndarray:
    sigma = grid.r_max / 8.0 * (1.0 + jitter)
    return np.exp(-0.5 * (grid.r / sigma) ** 2)


def cli_job(name: str, argv: list, out_dir: Path, check_payload) -> Job:
    """A `logse` invocation in this process; its result JSON is checked.

    check_payload(payload) returns (checks, diag, counts).  The bytes of every
    file the job wrote are added to its counts as output.bytes.
    """
    full = [*argv, "--out", str(out_dir), "--prefix", name]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(full)
        return rc, err.getvalue()

    def check(result):
        rc, err = result
        if rc != 0:
            return Outcome(False, f"exit {rc}: {err.strip()}")
        payload = json.loads((out_dir / f"{name}_result.json").read_text())
        checks, diag, counts = check_payload(payload)
        counts["output.bytes"] = sum(p.stat().st_size for p in out_dir.glob(f"{name}_*"))
        return _outcome(checks, diag, counts)

    return Job(name, run, check)


def _check_groundstate(payload):
    l2 = payload["l2_vs_analytic"]
    rel = _rel(payload["omega"], payload["omega_analytic"])
    checks = {"converged": payload["converged"], f"L2 {l2:.3e} < 1e-3": l2 < 1e-3,
              f"omega rel {rel:.3e} < 1e-2": rel < 1e-2}
    return checks, {"imagtime.l2_err": l2}, {"imagtime.steps": payload["steps"]}


def _ground_state_jobs(rng: random.Random, out_dir: Path):
    """The cold solves: the CLI-default Gausson and one linear V_eff solve."""
    jitter = rng.uniform(-PSI0_WIDTH_JITTER, PSI0_WIDTH_JITTER)
    sol = case_constant(8, PI)
    grid = RadialGrid.uniform_from_origin(8.0, 640)
    v_eff = effective_potential(sol, grid.r)
    psi0 = _gaussian_guess(grid, jitter)

    def linear_check(result):
        psi, omega = result
        l2 = l2_distance(psi, sol.psi)
        rel = _rel(omega, sol.omega)
        return _outcome({f"L2 {l2:.3e} < 1e-3": l2 < 1e-3,
                         f"omega rel {rel:.3e} < 1e-2": rel < 1e-2},
                        {"imagtime.l2_err": l2})

    # the inverse-square state (same code path as the Gausson, 7 s a job)
    # is left out: it would leave each job only two or three runs
    jobs = [
        cli_job("gausson", ["groundstate"], out_dir, _check_groundstate),
        Job("linear",
            lambda: numerics.linear_ground_state(v_eff, 8.0, grid, SolverOptions(), psi0=psi0),
            linear_check),
    ]

    def warmup():
        tiny = RadialGrid.uniform_from_origin(8.0, 64)
        _run_warmup(out_dir, [["groundstate", "--n", "64", "--tol", "1e9"]])
        numerics.linear_ground_state(effective_potential(sol, tiny.r), 8.0, tiny,
                                     SolverOptions(convergence_tol=1e9),
                                     psi0=_gaussian_guess(tiny, jitter))

    return jobs, warmup, jitter


# builder's choice; n, r_max, dt and stride are criterion 6's
EVOLVE_STEPS = 2000
EVOLVE_N = 4000
EVOLVE_STRIDE = 100


def _evolve_job(out_dir: Path) -> Job:
    """`logse evolve` on the Gausson at criterion 6's size, checked on its bounds."""
    def check(payload):
        checks = {
            f"norm drift {payload['norm_drift']:.3e} < 1e-8": payload["norm_drift"] < 1e-8,
            f"density drift {payload['density_drift']:.3e} < 1e-4":
                payload["density_drift"] < 1e-4,
            f"phase rel {payload['phase_rel_error']:.3e} < 1e-3":
                payload["phase_rel_error"] < 1e-3,
        }
        return (checks, {"realtime.norm_drift": payload["norm_drift"]},
                {"realtime.steps": payload["steps"]})

    argv = ["evolve", "--n", str(EVOLVE_N), "--r-max", "10", "--dt", "1e-4",
            "--stride", str(EVOLVE_STRIDE), "--steps", str(EVOLVE_STEPS)]
    return cli_job("evolve", argv, out_dir, check)


def _field_jobs(rng: random.Random, out_dir: Path):
    """The self-consistent field: the q = 1 closure and the CLI point charge."""
    jitter = rng.uniform(-PSI0_WIDTH_JITTER, PSI0_WIDTH_JITTER)
    grid = RadialGrid.uniform_from_origin(8.0, 512)
    psi0 = _gaussian_guess(grid, jitter)
    sol = case_q1(1, PI)

    def scf_run():
        return numerics.self_consistent_minimal_model(
            f_constant_over_r(PI), 1.0, grid, SolverOptions(convergence_tol=1e-8),
            point_charge=1.0, psi0=psi0)

    def scf_check(res):
        l2 = l2_distance(res.psi, sol.psi)
        rel = _rel(res.omega, sol.omega)
        dq, db = abs(res.field.extracted_q - 1.0), abs(res.field.extracted_b0 - PI)
        return _outcome({"converged": res.converged,
                         f"|q - 1| {dq:.3e} < 1e-9": dq < 1e-9,
                         f"|b0 - pi| {db:.3e} < 1e-9": db < 1e-9,
                         f"L2 {l2:.3e} < 5e-4": l2 < 5e-4,
                         f"omega rel {rel:.3e} < 1e-3": rel < 1e-3},
                        {"scf.l2_err": l2}, {"scf.sweeps": res.sweeps})

    def cli_check(payload):
        dq, db = abs(payload["extracted_q"] - 0.5), abs(payload["extracted_b0"] - 1.0)
        checks = {"converged": payload["converged"],
                  f"|q - 0.5| {dq:.3e} < 1e-6": dq < 1e-6,
                  f"|b0 - 1| {db:.3e} < 1e-6": db < 1e-6}
        return checks, {}, {"scf.sweeps": payload["sweeps"]}

    jobs = [Job("scf_q1", scf_run, scf_check),
            cli_job("pointcharge", ["field", "--point-charge", "0.5"], out_dir, cli_check)]

    def warmup():
        tiny = RadialGrid.uniform_from_origin(8.0, 64)
        _run_warmup(out_dir, [["field", "--n", "64", "--tol", "1e9"]])
        numerics.self_consistent_minimal_model(
            f_constant_over_r(PI), 1.0, tiny, SolverOptions(convergence_tol=1e9),
            point_charge=1.0, psi0=_gaussian_guess(tiny, jitter))

    return jobs, warmup, jitter


def relax(rng: random.Random, out_dir: Path) -> Workload:
    """Imaginary-time relaxation: two cold solves and two field solves.

    The field jobs run the same engine differently: warm-started 60-step
    sweeps alternate with a Poisson solve and mixing, so a change that
    speeds a cold solve but adds per-call set-up cost shows in their times.
    """
    cold_jobs, cold_warmup, cold_jitter = _ground_state_jobs(rng, out_dir)
    field_jobs, field_warmup, field_jitter = _field_jobs(rng, out_dir)
    jobs = cold_jobs + field_jobs
    rng.shuffle(jobs)

    def warmup():
        cold_warmup()
        field_warmup()

    return Workload(jobs, warmup,
                    {"psi0_width_jitter": {"linear": cold_jitter, "scf_q1": field_jitter}},
                    {"array": "float64 state at n=640", "bytes": 640 * 8})


def _draw_q(rng):
    """q from criterion 1's range [-1, 3], away from the excluded 0 and 1."""
    while True:
        q = rng.uniform(-1.0, 3.0)
        if min(abs(q), abs(q - 1.0)) > 0.25:
            return q


def _draw_N(rng):
    """N log-uniform over criterion 1's range [1, 64]."""
    return math.exp(rng.uniform(0.0, math.log(64.0)))


def _analytic_jobs(rng, out_dir, prefix):
    """`logse analytic` for each of the four cases with drawn parameters."""
    general = (_draw_N(rng), _draw_q(rng))
    q1 = (_draw_N(rng), rng.uniform(PI, 2 * PI))
    constant = (_draw_N(rng), rng.uniform(PI / 2, 2 * PI))
    invsq = (rng.uniform(1.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    mu_sq = case_inverse_square(*invsq).mu_sq
    cases = {
        "general": (["--N", repr(general[0]), "--q", repr(general[1])], general),
        "q1": (["--N", repr(q1[0]), "--b0", repr(q1[1])], q1),
        "constant": (["--N", repr(constant[0]), "--b0", repr(constant[1])], constant),
        # the exponential tail needs r_max ~ 30/mu^2 for the entropy quadrature
        "inverse_square": (["--N", repr(invsq[0]), "--L2", repr(invsq[1]),
                            "--SY", repr(invsq[2]), "--r-max", repr(30.0 / mu_sq)], invsq),
    }

    def check(payload):
        s_quad, s_exact = payload["S_psi_quadrature"], payload["S_psi_closed_form"]
        rel = abs(s_quad - s_exact) / max(1.0, abs(s_exact))
        checks = {f"entropy quadrature rel {rel:.3e} < 1e-6": rel < 1e-6}
        rc = payload["relation_checks"]
        if payload["case"] == "general":
            err = abs(rc["omega_S23"] - rc["omega_S23_target"])
            checks[f"|omega S^(2/3) - target| {err:.3e} < 1e-10"] = err < 1e-10 * max(
                1.0, abs(rc["omega_S23_target"]))
        elif payload["case"] == "q1":
            err = abs(rc["transcendental_residual"])
            checks[f"transcendental residual {err:.3e} < 1e-10"] = err < 1e-10 * max(
                1.0, payload["N"] * payload["profile"]["b0_tilde"] ** 2 / (2 * PI))
        elif payload["case"] == "inverse_square":
            checks["omega == -mu^4"] = abs(rc["omega_is_minus_mu4"]) < 1e-15
        return checks, {}, {}

    jobs = [cli_job(f"{prefix}analytic-{case}", ["analytic", "--case", case, *argv], out_dir,
                    check)
            for case, (argv, _) in cases.items()]
    return jobs, {case: params for case, (_, params) in cases.items()}


def _residual_job(rng):
    """Criterion 1: residuals at n=4096 and n=2048 for N in {1, 8, 64}."""
    fine = RadialGrid.uniform(1e-3, 12.0, 4096)
    half = RadialGrid.uniform(1e-3, 12.0, 2048)
    sols = [case_general(N, _draw_q(rng)) for N in (1, 8, 64)]

    def run():
        return [(numerics.residual(sol.sample(fine), sol.omega, sol.profile),
                 numerics.residual(sol.sample(half), sol.omega, sol.profile))
                for sol in sols]

    def check(result):
        checks = {}
        for sol, (res_fine, res_half) in zip(sols, result):
            row = f"N={sol.norm:g}"
            ratio = res_half / res_fine
            checks[f"{row} refinement ratio {ratio:.3f} in [3.5, 4.5]"] = 3.5 <= ratio <= 4.5
            floor = 1.25 * sol.profile.b0_tilde**2 * fine.h**2
            if floor < RESIDUAL_BOUND:
                checks[f"{row} residual {res_fine:.3e} < 1e-5"] = res_fine < RESIDUAL_BOUND
            else:  # the standing criterion 1 failure: check the documented floor
                checks[f"{row} residual {res_fine:.3e} <= floor {floor:.3e}"] = (
                    res_fine <= FLOOR_SLACK * floor)
        return _outcome(checks, {"residual.max": max(res for res, _ in result)})

    return Job("criterion1-residuals", run, check), [sol.profile.q_tilde for sol in sols]


def _entropy_job(rng):
    """Criteria 2 and 4: entropy quadratures against their closed forms."""
    n_gen = _draw_N(rng)
    invsq = (rng.uniform(1.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    const = (_draw_N(rng), rng.uniform(PI / 2, 2 * PI))
    sol_inv = case_inverse_square(*invsq)
    specs = [
        (case_general(n_gen, 2.0),
         RadialGrid.uniform_from_origin(8.0 + 6.0 * n_gen ** (1 / 3.0), 6001), 1.5 * n_gen),
        (sol_inv, RadialGrid.uniform_from_origin(30.0 / sol_inv.mu_sq, 8001),
         invsq[0] * (invsq[1] + invsq[2] + 3.0)),
        (case_constant(*const), RadialGrid.uniform_from_origin(12.0, 8001),
         constant_entropy_candidates(*const)["n_scaled"]),
    ]

    def run():
        return [logse.entropy(sol.sample(grid)) for sol, grid, _ in specs]

    def check(result):
        checks = {}
        for (sol, _, target), s in zip(specs, result):
            rel = abs(s - target) / max(1.0, abs(target))
            checks[f"{sol.case.value} entropy rel {rel:.3e} < 1e-6"] = rel < 1e-6
        return _outcome(checks)

    drawn = {"general_N": n_gen, "inverse_square": invsq, "constant": const}
    return Job("criteria2-4-entropy", run, check), drawn


def _poisson_job(rng):
    """Criterion 8: Poisson round trips of (q, b0) on n=8192 out to r=100."""
    grid = RadialGrid.uniform_from_origin(100.0, 8192)
    pairs = [(rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)) for _ in range(3)]
    sources = [2.0 * b0 / grid.r for _, b0 in pairs]

    def run():
        return [numerics.solve_radial_poisson(source, grid, point_charge=q)
                for source, (q, _) in zip(sources, pairs)]

    def check(result):
        checks = {}
        for (q, b0), fs in zip(pairs, result):
            dq, db = abs(fs.extracted_q - q), abs(fs.extracted_b0 - b0)
            checks[f"(q={q:.3f}, b0={b0:.3f}) errors {dq:.3e}, {db:.3e} < 1e-6"] = (
                dq < 1e-6 and db < 1e-6)
        return _outcome(checks)

    return Job("criterion8-poisson", run, check), pairs


# passes of the closed-form catalog in its one job: one pass takes about
# 0.1 s, so eight make a job of about a second, near the evolve job's length
CATALOG_PASSES = 8


def _catalog_job(rng, out_dir: Path):
    """The closed-form catalog as one job: CATALOG_PASSES passes of the
    analytic CLI for the four cases and criteria 1, 2/4 and 8, each pass with
    its own drawn parameters.  Its single calls take milliseconds, and a
    median over calls that short follows the machine's speed from one
    millisecond to the next rather than the code."""
    parts, drawn = [], []
    for k in range(CATALOG_PASSES):
        analytic_jobs, analytic_params = _analytic_jobs(rng, out_dir, f"pass{k}-")
        residual_job, residual_q = _residual_job(rng)
        entropy_job, entropy_params = _entropy_job(rng)
        poisson_job, poisson_params = _poisson_job(rng)
        parts += [*analytic_jobs, residual_job, entropy_job, poisson_job]
        drawn.append({"analytic": analytic_params, "residual_q": residual_q,
                      "entropy": entropy_params, "poisson_q_b0": poisson_params})

    def run():
        return [part.run() for part in parts]

    def check(results):
        failed, diag, counts = [], {}, Counter()
        for part, result in zip(parts, results):
            outcome = part.check(result)
            if not outcome.ok:
                failed.append(f"{part.name}: {outcome.detail}")
            counts.update(outcome.counts)
            for key, value in outcome.diag.items():
                diag[key] = max(value, diag.get(key, value))
        return Outcome(not failed, "; ".join(failed), diag, dict(counts))

    return Job("catalog", run, check), drawn


def bypass(rng: random.Random, out_dir: Path) -> Workload:
    """Real-time evolve plus the closed-form catalog: no relaxation at all."""
    catalog_job, catalog_params = _catalog_job(rng, out_dir)
    # a fixed order: with two jobs the order only decides which runs first,
    # and the peak RSS differs by about 3 MB between the two orders
    jobs = [_evolve_job(out_dir), catalog_job]

    def warmup():
        tiny = RadialGrid.uniform_from_origin(8.0, 64)
        _run_warmup(out_dir, [["evolve", "--n", "64", "--steps", "10", "--stride", "5"]])
        _run_warmup(out_dir, [["analytic", "--case", c, "--n", "64", "--r-max", "48"]
                              for c in ("general", "q1", "constant", "inverse_square")])
        sol = case_general(8, 2.0)
        numerics.residual(sol.sample(tiny), sol.omega, sol.profile)
        logse.entropy(sol.sample(tiny))
        numerics.solve_radial_poisson(1.0 / tiny.r, tiny)

    snapshots = EVOLVE_STEPS // EVOLVE_STRIDE + 1
    return Workload(jobs, warmup, {"catalog_passes": catalog_params},
                    {"array": "float64 trajectory CSV column",
                     "bytes": snapshots * EVOLVE_N * 8})


def _run_warmup(out_dir: Path, argvs):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*argv, "--out", str(out_dir), "--prefix", "warmup"])
        if rc != 0:
            raise RuntimeError(f"warm-up `logse {' '.join(argv)}` exited {rc}")


BUILDERS = {"relax": relax, "bypass": bypass}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    return BUILDERS[name](random.Random(seed), out_dir)
