"""Acceptance suite: every exit criterion as an executable check.

Each criterion function returns a CriterionResult with one row per
measurement (value, bound, pass flag) plus notes explaining failures.  The
suite is analytic-oracle and property-based only, deterministic, and runs at
desk scale; the CLI `report` command and tests/test_acceptance.py both drive
exactly these functions.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .analytic import (
    case_constant,
    case_general,
    case_inverse_square,
    case_q1,
    constant_entropy_candidates,
    effective_potential,
    solve_k_transcendental,
    transcendental_residual,
)
from .grids import RadialGrid, l2_distance
from .observables import entropy, gp_expansion_error
from .scales import CouplingProfile
from .numerics import (
    SolverOptions,
    evolve_real_time,
    ground_state_from_coupling_values,
    linear_ground_state,
    residual,
    solve_radial_poisson,
)

PI = math.pi


@dataclass
class CheckRow:
    name: str
    value: float
    bound: str
    passed: bool


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    runtime: float
    rows: list[CheckRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.title} ({self.runtime:.2f} s)"


ALL_CRITERIA = {}


def _criterion(cid, title, runtime_limit=None):
    """Register the body below as criterion `cid` in ALL_CRITERIA.

    The body takes `check(name, value, bound, ok=None)` and the notes list.
    A row whose bound reads "< x" passes when value < x, read from that text;
    any other bound needs its own `ok` flag.  With a runtime limit the timed
    body gets a last "runtime [s]" row.
    """
    def register(body):
        @functools.wraps(body)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            rows, notes = [], []

            def check(name, value, bound, ok=None):
                if ok is None:
                    ok = value < float(bound.removeprefix("< "))
                rows.append(CheckRow(name, float(value), bound, bool(ok)))

            body(check, notes, *args, **kwargs)
            runtime = time.perf_counter() - t0
            if runtime_limit is not None:
                check("runtime [s]", runtime, f"< {runtime_limit:g}")
            return CriterionResult(cid, title, all(r.passed for r in rows),
                                   runtime, rows, notes)

        ALL_CRITERIA[cid] = run
        return run
    return register


@_criterion(1, "general-case eigenvalues and Eq-residual convergence", runtime_limit=5.0)
def criterion_1(check, notes):
    """Eigenvalue reproduction and stationary residual for the general case."""
    grid_fine = RadialGrid.uniform(1e-3, 12.0, 4096)
    grid_half = RadialGrid.uniform(1e-3, 12.0, 2048)
    for N in (1, 8, 64):
        for q in (2.0, 3.0, -1.0):
            sol = case_general(N, q)
            check(f"omega exact N={N} q={q:g}", sol.omega, "== pi(3-q)/N^(2/3)",
                  sol.omega == PI * (3.0 - q) / N ** (2.0 / 3.0))
            check(f"b0 exact N={N} q={q:g}", sol.profile.b0_tilde, "== pi/N^(2/3)",
                  sol.profile.b0_tilde == PI / N ** (2.0 / 3.0))
            res_fine = residual(sol.sample(grid_fine), sol.omega, sol.profile)
            check(f"residual n=4096 N={N} q={q:g}", res_fine, "< 1e-5")
            res_half = residual(sol.sample(grid_half), sol.omega, sol.profile)
            ratio = res_half / res_fine
            check(f"refinement ratio N={N} q={q:g}", ratio, "in [3.5, 4.5]",
                  3.5 <= ratio <= 4.5)
            if res_fine >= 1e-5:
                h = grid_fine.h
                floor = 1.25 * sol.profile.b0_tilde**2 * h * h
                notes.append(
                    f"N={N} q={q:g}: residual {res_fine:.3e} is at the O(h^2) "
                    f"truncation floor 1.25*b0^2*h^2 = {floor:.3e} of second-order "
                    f"central differences on this grid; the 1e-5 bound needs "
                    f"n >~ {int(11.999 * math.sqrt(1.25) * sol.profile.b0_tilde / math.sqrt(1e-5)) + 1} "
                    "uniform points"
                )


@_criterion(2, "entropy quadrature matches closed forms", runtime_limit=2.0)
def criterion_2(check, notes):
    """Entropy quadrature against closed forms (general and inverse-square)."""
    for N in (1, 8, 64):
        sol = case_general(N, 2.0)
        grid = RadialGrid.uniform_from_origin(8.0 + 6.0 * N ** (1 / 3.0), 6001)
        s = entropy(sol.sample(grid))
        check(f"general N={N}: |S - 1.5N|/1.5N", abs(s - 1.5 * N) / (1.5 * N), "< 1e-6")
    for N, L2, SY in ((1, 0.0, 0.0), (2, 1.0, 0.0)):
        sol = case_inverse_square(N, L2, SY)
        # the density decays like exp(-2 mu^2 r); reach ~ e^-60 at the edge
        grid = RadialGrid.uniform_from_origin(30.0 / sol.mu_sq, 8001)
        s = entropy(sol.sample(grid))
        target = N * (L2 + SY + 3.0)
        check(f"inverse-square (N={N},L2={L2:g},SY={SY:g})", abs(s - target) / target,
              "< 1e-6")


@_criterion(3, "transcendental equation closure (q = 1)", runtime_limit=2.0)
def criterion_3(check, notes):
    """Transcendental closure of the q = 1 family."""
    for b0 in (PI, 2 * PI):
        n_star = (PI / b0) ** 1.5
        check(f"|k| at closure point b0={b0:g}", abs(solve_k_transcendental(n_star, b0)),
              "< 1e-10")
    k = solve_k_transcendental(2.0, PI)
    norm_quad, _ = quad(
        lambda r: 4 * PI * r**2 * np.exp(2 * k * r - PI * r**2), 0.0, np.inf
    )
    check("quadrature norm error at (N=2, b0=pi)", abs(norm_quad - 2.0), "< 1e-6")
    check("transcendental residual at (N=2, b0=pi)",
          abs(transcendental_residual(k, 2.0, PI)), "< 1e-10")


@_criterion(4, "constant-case entropy form comparison documented")
def criterion_4(check, notes):
    """Entropy closed-form comparison for the constant-coupling case."""
    grid = RadialGrid.uniform_from_origin(12.0, 8001)

    sol8 = case_constant(8, PI)
    s_quad = entropy(sol8.sample(grid))
    cands = constant_entropy_candidates(8, PI)
    match_printed = abs(cands["printed"] - s_quad) <= 1e-6 * abs(s_quad)
    match_scaled = abs(cands["n_scaled"] - s_quad) <= 1e-6 * abs(s_quad)
    check("(N=8) one closed form matches quadrature", s_quad,
          "rel 1e-6 to a candidate", match_printed or match_scaled)
    winner = "printed" if match_printed else ("n_scaled" if match_scaled else "none")
    notes.append(
        f"(N=8, b0=pi): quadrature S = {s_quad:.9f}; "
        f"printed form = {cands['printed']:.9f}, "
        f"N-scaled-logarithm form = {cands['n_scaled']:.9f}; "
        f"matching form: {winner}"
    )

    sol1 = case_constant(1, PI)
    s1 = entropy(sol1.sample(grid))
    c1 = constant_entropy_candidates(1, PI)
    both = (abs(c1["printed"] - s1) <= 1e-6 and abs(c1["n_scaled"] - s1) <= 1e-6
            and abs(s1 - 1.5) <= 1e-6)
    check("(N=1) both forms agree with quadrature at 3/2", s1, "|S - 3/2| < 1e-6", both)


@_criterion(5, "imaginary-time ground-state convergence")
def criterion_5(check, notes):
    """Imaginary-time relaxation reproduces two closed-form ground states."""
    t_a = time.perf_counter()
    grid = RadialGrid.uniform_from_origin(8.0, 640)
    res = ground_state_from_coupling_values(
        CouplingProfile(PI, 0.0).evaluate(grid.r), 1.0, grid, SolverOptions()
    )
    run_a = time.perf_counter() - t_a
    sol = case_constant(1, PI)
    check("gausson L2 error", l2_distance(res.psi, sol.psi), "< 1e-3")
    check("gausson omega rel error", abs(res.omega - 3 * PI) / (3 * PI), "< 1e-2")
    check("gausson runtime [s]", run_a, "< 60")

    t_b = time.perf_counter()
    grid = RadialGrid.uniform_from_origin(30.0, 800)
    res = ground_state_from_coupling_values(
        CouplingProfile(0.0, 1.0).evaluate(grid.r), 1.0, grid, SolverOptions(),
        angular_weight=1.0,
    )
    run_b = time.perf_counter() - t_b
    soli = case_inverse_square(1)
    check("inverse-square omega rel error", abs(res.omega - soli.omega) / abs(soli.omega),
          "< 1e-2")
    check("inverse-square runtime [s]", run_b, "< 60")


@_criterion(6, "real-time norm/density conservation and phase")
def criterion_6(check, notes):
    """Real-time conservation and stationarity of the Gausson."""
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform_from_origin(10.0, 4000)
    psi0 = sol.sample(grid)
    res = evolve_real_time(psi0, sol.profile, dt=1e-4, n_steps=1000)
    check("norm drift over 1000 steps", res.norm_drift, "< 1e-8")
    drift = float(np.max(np.abs(res.psi.density() - psi0.normalized().density())))
    check("density max-norm drift", drift, "< 1e-4")
    phase_rel = abs(res.phases[-1] + sol.omega * res.times[-1]) / (sol.omega * res.times[-1])
    check("phase vs omega*t rel error", phase_rel, "< 1e-3")


@_criterion(7, "linear/nonlinear indistinguishability via V_eff")
def criterion_7(check, notes):
    """Linear problem with the effective potential reproduces each case."""
    grid8 = RadialGrid.uniform_from_origin(8.0, 640)
    grid30 = RadialGrid.uniform_from_origin(30.0, 800)
    cases = [
        ("general (N=1, q=2)", case_general(1, 2.0), grid8, 4 * PI),
        ("q1 (N=2, b0=pi)", case_q1(2, PI), grid8, 4 * PI),
        ("constant (N=8, b0=pi)", case_constant(8, PI), grid8, 4 * PI),
        ("inverse-square (N=1)", case_inverse_square(1), grid30, 1.0),
    ]
    for name, sol, grid, weight in cases:
        psi, _ = linear_ground_state(
            lambda r: effective_potential(sol, r), sol.norm, grid,
            SolverOptions(), angular_weight=weight,
        )
        check(f"{name} L2 error", l2_distance(psi, sol.psi), "< 1e-3")


@_criterion(8, "Poisson / asymptotics round trip")
def criterion_8(check, notes):
    """Poisson solve plus asymptotic extraction round-trips (q, b0)."""
    grid = RadialGrid.uniform_from_origin(100.0, 8192)
    for q, b0 in ((0.0, 1.0), (3.0, 2.0), (1.0, 0.0)):
        fs = solve_radial_poisson(2.0 * b0 / grid.r, grid, point_charge=q)
        check(f"(q={q:g}, b0={b0:g}) charge error", abs(fs.extracted_q - q), "< 1e-6")
        check(f"(q={q:g}, b0={b0:g}) slope error", abs(fs.extracted_b0 - b0), "< 1e-6")


@_criterion(9, "N-free omega-entropy relation")
def criterion_9(check, notes):
    """N-free relation omega * S^(2/3) for the general family."""
    target = PI * 1.5 ** (2.0 / 3.0) * (3.0 - 2.0)
    for N in (1, 8, 64):
        sol = case_general(N, 2.0)
        value = sol.omega * sol.entropy_closed_form() ** (2.0 / 3.0)
        check(f"N={N}: |omega S^(2/3) - target|", abs(value - target), "< 1e-10")


@_criterion(10, "Gross-Pitaevskii expansion remainder bound")
def criterion_10(check, notes):
    """Lagrange bound on the cubic (GP) approximation of the log term."""
    xs = np.linspace(0.5, 2.0, 601)
    slacks = []
    ok = True
    for x in xs:
        diff = gp_expansion_error(float(x)).difference
        bound = (x - 1.0) ** 2 / (2.0 * min(1.0, float(x)) ** 2)
        ok = ok and (abs(diff) <= bound + 1e-15)
        slacks.append(bound - abs(diff))
    check("min slack of the remainder bound over x in [0.5, 2]", min(slacks), ">= 0", ok)


def run_all(only=None) -> list[CriterionResult]:
    """Run the selected criteria (all by default) in ascending order."""
    return [ALL_CRITERIA[cid]() for cid in sorted(only or ALL_CRITERIA)]


def format_report(results) -> str:
    lines = [r.line() for r in results]
    for r in results:
        for row in r.rows:
            if not row.passed:
                lines.append(
                    f"    FAIL row: {row.name} = {row.value:.6e} (required {row.bound})"
                )
        for note in r.notes:
            lines.append(f"    note: {note}")
    total = sum(1 for r in results if r.passed)
    lines.append(f"{total}/{len(results)} criteria passed")
    return "\n".join(lines)


def report_dict(results) -> dict:
    """Machine-readable form of the acceptance report."""
    return {
        "criteria": [
            {
                "id": r.cid,
                "title": r.title,
                "passed": r.passed,
                "runtime_s": r.runtime,
                "rows": [
                    {"name": row.name, "value": row.value, "bound": row.bound,
                     "passed": row.passed}
                    for row in r.rows
                ],
                "notes": list(r.notes),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
