"""Ground states: imaginary-time relaxation (nonlinear), direct solve (linear).

Both work on the substituted variable u = r*psi, which turns the radial
Laplacian into a plain second derivative D2 with u -> 0 at both ends; both
need r_min == h (RadialGrid.origin_step), which puts the left ghost node at
r = 0, where u vanishes by regularity, so that boundary is exact.

The nonlinear ground state comes from the normalized gradient flow

    d_tau psi = lap psi + b(r) ln(max(|psi|^2, floor)) psi

(floor = observables.LOG_FLOOR) with a backward-Euler kinetic term (Bao & Du,
SIAM J. Sci. Comput. 25, 2004).  With w = b ln max((u/r)^2, floor),
H u = D2 u + w u, the Rayleigh quotient omega_n = -(Hu . u)/(u . u) and
stiff = min(w + 2b, 0), each step solves

    (I - dt D2 - dt diag(stiff)) u_new = u + dt (w - stiff + omega_n) u

(one LAPACK gtsv call on its three diagonals, in buffers a relaxation
keeps for all its steps) and renormalizes to a h u.u = N
(a = angular_weight).  w + 2b = d(w u)/du is the log term's Jacobian;
taking its non-positive part (the -2q/r^2 stiffness near the origin)
implicitly lifts the h^2 step limit and keeps the matrix SPD and strictly
diagonally dominant (diagonal at least 1 + 2 dt/h^2 against off-diagonals
summing to 2 dt/h^2), so gtsv's partial pivoting never swaps a row.
omega_n makes the fixed point H u + omega u = 0 for every dt, where
renormalization alone drifts with dt when b(r) varies.  The run stops once
the stationary residual max|H u + omega_n u| / max|u| is below tol, and
returns that iterate as it is.

Without psi0 the flow starts from the far-field Gausson exp(-a r^2/2),
a = b(r_max) clamped to [(r_max/8)^-2, 1/h^2] (_start_exponent): for
constant b the Gausson exp(-b r^2/2) is the exact ground state
(Bialynicki-Birula & Mycielski, Ann. Phys. 100, 1976), and
b(r) = b0 - q/r^2 keeps its Gaussian tail.  Where an inner node's b exceeds
b(r_max) beyond roundoff (q < 0, the collapse basin in which the narrow
start stalls), or b(r_max) is not above (r_max/8)^-2 (the inverse-square
family), the start is the Gaussian of width r_max/8.  From it the Gausson
on (8, 640) takes 22 iterations; from the far field, 2.

The flow decreases the discrete functional whose minimizer on
a h u.u = N is its fixed point (the log floored as in w),

    E_h(u) = -a h u.D2u - a h sum b r^2 (rho ln rho - rho)
           = a h (omega_n u.u + b.u^2),

the second form by b r^2 rho ln rho = w u^2 and u.Hu = -omega_n u.u, so it
costs one dot product beyond stationary (discrete_energy).  The step dt is
sized by the residual, pseudo-transient continuation with switched
evolution relaxation (Mulder & van Leer, AIAA 85-1519, 1985; Kelley & Keyes,
SIAM J. Numer. Anal. 35, 1998): it starts at the constant _RELAX_DT, not
settable, and after each accepted flow step it is multiplied by
min(residual before / residual after, 2), the guess's residual counting as
infinite.  A flow step is accepted only if E_h does not rise by more than
_ENERGY_ROUNDOFF times a h (|omega_n u.u| + |b.u^2|), roundoff; the check
keeps back 2 sqrt(n) eps of those magnitudes, the roundoff of evaluating E_h
twice (the probabilistic bound for sums of n rounded terms; Higham & Mary,
SIAM J. Sci. Comput. 41, 2019), so that E_h summed in any other order also
stays within the allowance.  Otherwise dt is halved and the step retried
from the same iterate.  A failed solve or a
norm that is not finite and positive also halves dt and retries, unless dt
is not above the starting step: then ConvergenceError is raised with the
iterate before it, as when dt underflows to zero.  Rejected trials are
counted in GroundStateResult.rejected_steps; they take no history row.

The flow converges linearly, so from the first flow iterate on the engine
tries Newton's method on F(u, omega) = H u + omega u = 0 with the norm
constraint a h u.u = N (Kelley, Solving Nonlinear Equations with Newton's
Method, SIAM 2003).  The Jacobian in u is the symmetric tridiagonal
J = D2 + diag(w + 2b [rho > floor] + omega) (the floored log term is
flat), bordered by u (the omega column) and by 2a h u (the constraint row).
One step solves J [x1 x2] = [F u] by one LAPACK gtsv call (J is
indefinite, so with partial pivoting) and eliminates the border,

    u_lin = u - x1 + ((u . x1) / (u . x2)) x2,

which keeps the norm to first order.  The iterate is put back on the norm
along x2, u_new = u_lin + s x2 with the root s nearest 0 of
a h u_new.u_new = N, and omega is its Rayleigh quotient, as after a flow
step.  Scaling u_lin instead would add b ln(scale^2) to w, which no
omega absorbs where b varies: for b = -1/r^2 it raised a Newton iterate's
residual from 6e-3 to 1.07, all of it at the origin.  O(n) per step.

Newton converges to whichever stationary state is near, excited ones and
-u included, so a ground-state guard takes an iterate only if it has no
negative lobe and its residual is below the current one.  An iterate whose
entries all lie above -_SHALLOW_DEPTH max u is taken as |u| before the
residual test (fold_shallow): where q != 0 pins the density at the origin,
Newton from an early flow iterate overshoots the far tail's sign (the
point charge's first iterate: -2.9e-4 max u beyond r = 3.5, which |u|
turns into a residual of 1.5 from 68).  Measured tail overshoots reach
-1.8e-2 max u, lobes of -u and of excited states start at -4.7e-2; a
deeper iterate is rejected.  A rejected iterate is discarded and a flow
step taken in its place; Newton resumes once the flow's residual is below
half the residual the rejected iterate started from.  A Newton step is
taken whole or not at all; it is not checked against E_h and leaves dt as
it is.  A rejected attempt leaves no history row.

Where b varies, omega is first order in the residual: its variation at
fixed u.u is -2 (F + b u) . du / (u.u), whose b u part vanishes against
du orthogonal to u only for constant b.  A state returned at a residual
just below tol then carries an omega error of about tol (1.5e-7 relative
for the inverse-square state stopped at 3.4e-7), which moves with dt.  So
where b is not constant to within roundoff (_constant), one more guarded
Newton step follows the step that reached tol, within opts.max_steps; it
takes the residual to roundoff, and omega with it.  For constant b the
returned state is the first below tol.

A state that reaches tol, or the last iterate of a spent budget, is
refused with ConvergenceError when it is as narrow as the grid: when
origin_scale, h^2 max|D2 u| / max|u|, is above _GRID_SCALE = 0.5.  For q < 0 the discrete functional is unbounded
below as the state concentrates at the origin, and at N = 8 Newton reaches
such a grid-scale collapse in tens of iterations (rho(r_min) 1e5 and more,
omega -716 to -5.6e5, origin scale 1.05 to 1.93 on (8, 640) and
(10, 2000)).  A state resolved on its grid reads about 2 h^2 b (the
Gausson: 1.1e-3 on (8, 640), 0.11 on (8, 64), 0.43 on (8, 32), where a
node falls every half width); a grid coarser still is refused too.

The flow step, the stationary terms, E_h, the Jacobian's diagonal, the
guard's sign test and the border elimination are module-level functions
(flow_step, stationary, discrete_energy, jacobian_diagonal, fold_shallow,
bordered_newton_update); the SCF's coupled Newton solve shares all but
flow_step and discrete_energy.

The linear ground state of -lap psi + V psi = omega psi needs no flow: it is
the lowest eigenpair of the symmetric tridiagonal matrix -D2 + diag(V),
solved directly by bisection and inverse iteration (LAPACK stebz, stein).
Every LAPACK routine here comes from numerics._lapack, which calls the
LAPACK that numpy has loaded (scipy's extension where numpy's library does
not export the routines).

One inner product for every engine state, the start included: the
h-sum a h u.u, in which D2 is symmetric, E_h and omega are taken and the
real-time Cayley step is unitary.  The relaxation's and the SCF's start,
linear_ground_state's eigenvector and the propagator's psi0 are scaled onto
a h u.u = N (norm_scale), and the flow, Newton and the SCF hold it.  So the
returned state minimizes E_h on it, and dE_h*/db0 = S_h + N_h holds on the
grid (S_h = -a h sum r^2 rho ln rho, N_h = a h u.u), as does
dE_h*/dq = a h sum (rho ln rho - rho).  The grid rule
(grids.integrate_radial) is for sampled states only; an engine state's
grid-rule norm reads N to O(h^2) (6.6e-7 relative for the catalog's
inverse-square states at n = 800).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, DomainError
from ..grids import FULL_SPHERE, RadialGrid, RadialWavefunction, grid_values
from ..observables import LOG_FLOOR
from ._lapack import TridiagonalSystem, eigh_tridiagonal_lowest
from .options import SolverOptions
from .stencils import second_difference_dirichlet

# starting relaxation step
_RELAX_DT = 0.01
# a flow step may raise E_h by this fraction of its terms' magnitudes
_ENERGY_ROUNDOFF = 1e-12
# a Newton iterate whose entries all lie above
# -_SHALLOW_DEPTH max(u) is taken as |u|: its negative entries are a sign
# overshoot in the far tail (measured down to -1.8e-2 max u), not a lobe of
# -u or of an excited state (-4.7e-2 max u and deeper)
_SHALLOW_DEPTH = 3e-2
# a converged state with origin_scale above this is grid-scale: the
# Gausson reads 0.11 on (8, 64) and 0.43 on (8, 32), about 2 h^2 b;
# collapses onto the origin (q < 0, N = 8) read 1.05 to 1.93
_GRID_SCALE = 0.5
# the start without psi0 follows b(r_max) unless an inner node's coupling
# exceeds it by more than this many ulps of max|b|
_FAR_FIELD_ULPS = 8.0
_EPS = float(np.finfo(float).eps)


@dataclass
class GroundStateResult:
    psi: RadialWavefunction
    omega: float
    converged: bool
    steps: int  # iterations, flow and Newton
    newton_steps: int
    rejected_steps: int  # flow trials rejected (E_h rose, or no finite norm)
    history: list  # rows (step, residual, norm, omega_estimate), one per iteration
    initial_exponent: float | None  # a of the start exp(-a r^2/2); None if psi0 given


def _start_exponent(coupling: np.ndarray, grid: RadialGrid, h: float) -> float:
    """a of the start exp(-a r^2/2) that a relaxation without psi0 takes.

    The far-field coupling b(r_max) clamped to [(r_max/8)^-2, 1/h^2]; the
    cap keeps the start representable on the grid (for b = 1e300 it would
    underflow to zero on every node).  Where an inner node's b exceeds
    b(r_max) by more than _FAR_FIELD_ULPS ulps of max|b|, a is the lower
    clamp, the r_max/8-wide Gaussian; the ulps admit the roundoff of a
    constant b computed as a field (inner nodes a few ulps above b(r_max)).
    """
    low = (grid.r_max / 8.0) ** -2
    far = float(coupling[-1])
    if float(coupling[:-1].max()) - far > _coupling_slack(coupling):
        return low
    return min(max(far, low), 1.0 / (h * h))


def _coupling_slack(coupling: np.ndarray) -> float:
    """_FAR_FIELD_ULPS ulps of max|b|: how far a constant b computed as a
    field may stray from constant by roundoff."""
    return _FAR_FIELD_ULPS * _EPS * float(np.abs(coupling).max())


def _constant(coupling: np.ndarray) -> bool:
    """b constant on the grid to within _coupling_slack."""
    return float(coupling.max()) - float(coupling.min()) <= _coupling_slack(coupling)


def norm_scale(u: np.ndarray, h: float, N: float, angular_weight: float) -> float:
    """sqrt(N / (a h sum |u|^2)) (a = angular_weight), which puts u = r psi on
    the engines' norm; DomainError unless N and that norm are positive and finite."""
    if not 0.0 < N < math.inf:
        raise DomainError(f"the norm N must be positive and finite, got {N!r}")
    with np.errstate(over="ignore"):
        norm = angular_weight * h * float(np.sum(np.abs(u) ** 2))
    if not 0.0 < norm < math.inf:
        raise DomainError(f"cannot normalize a state whose norm a h sum |u|^2 is {norm:g}")
    return math.sqrt(N / norm)


def _initial_guess(grid: RadialGrid, psi0, N: float, angular_weight: float,
                   exponent: float | None = None) -> np.ndarray:
    """u = r |psi0| on the norm a h u.u = N (norm_scale).  If psi0 is None,
    the Gaussian exp(-exponent r^2/2) (_start_exponent), exponent
    (r_max/8)^-2 when None: the Gaussian of width r_max/8."""
    if psi0 is None:
        if exponent is None:
            exponent = (grid.r_max / 8.0) ** -2
        psi = np.exp(-0.5 * exponent * grid.r**2)
    else:
        if isinstance(psi0, RadialWavefunction):
            psi0 = psi0.values
        psi = grid_values(np.abs(np.asarray(psi0, dtype=complex)), grid, "psi0")
    return grid.r * (psi * norm_scale(grid.r * psi, grid.origin_step(), N, angular_weight))


def stationary(u: np.ndarray, coupling: np.ndarray, r: np.ndarray, h: float):
    """(w, F, omega, residual) of u = r psi in the coupling b (values on r):
    w = b ln max((u/r)^2, LOG_FLOOR), H u = D2 u + w u, omega = -(Hu . u)/(u . u)
    its Rayleigh quotient, F = H u + omega u, residual = max|F| / max|u|."""
    w = coupling * np.log(np.maximum((u / r) ** 2, LOG_FLOOR))
    hu = second_difference_dirichlet(u, h) + w * u
    omega = float(-(hu @ u) / (u @ u))
    f = hu + omega * u
    return w, f, omega, float(np.abs(f).max()) / float(np.abs(u).max())


def flow_step(u, w, omega, coupling, dt, h, N, angular_weight, system):
    """One step of the normalized flow from u, whose w and omega are those
    of stationary(u, ...).  The step's matrix and right-hand side go in the
    buffers of system, a TridiagonalSystem of order u.size with one
    right-hand side, which a relaxation keeps for all its steps.

    Returns (u_new, norm, info): norm is the solve's norm a h sum u^2
    (a = angular_weight) before u_new is renormalized to N, info is gtsv's.
    Unless info == 0 and norm is finite and positive, u_new is the solve as
    it came out.
    """
    stiff = np.minimum(w + 2.0 * coupling, 0.0)
    d, b = system.d, system.b[:, 0]
    np.subtract(1.0 + 2.0 * dt / (h * h), np.multiply(dt, stiff, out=d), out=d)
    system.dl.fill(-dt / (h * h))  # gtsv overwrites both off-diagonals
    system.du.fill(-dt / (h * h))
    # b = u + dt (w - stiff + omega) u, in the order of that expression
    np.subtract(w, stiff, out=b)
    b += omega
    b *= dt
    b *= u
    b += u
    info = system.solve()
    with np.errstate(over="ignore"):
        norm = angular_weight * h * float(b @ b)
    if info == 0 and 0.0 < norm < math.inf:
        return b * math.sqrt(N / norm), norm, info
    return b.copy(), norm, info


def discrete_energy(u, omega, coupling, h, angular_weight):
    """(E_h, allowance) of u = r psi whose Rayleigh quotient is omega.

    E_h = -a h u.D2u - a h sum b r^2 (rho ln rho - rho) is the functional the
    flow decreases (a = angular_weight, the log floored at LOG_FLOOR as in w).
    As b r^2 rho ln rho = w u^2 and u.Hu = -omega u.u, it is
    a h (omega u.u + b.u^2).  The allowance, _ENERGY_ROUNDOFF times the sum
    of the two terms' magnitudes, is the rise a flow step may show from
    roundoff alone.  It is returned less 2 sqrt(n) eps of those magnitudes,
    the roundoff of this evaluation and the trial's, so a rise accepted
    against it is within the full allowance however E_h is summed.
    """
    uu = u * u
    omega_term = omega * float(uu.sum())
    coupling_term = float(coupling @ uu)
    scale = angular_weight * h
    margin = 2.0 * math.sqrt(u.size) * _EPS
    return (scale * (omega_term + coupling_term),
            (_ENERGY_ROUNDOFF - margin) * scale * (abs(omega_term) + abs(coupling_term)))


def fold_shallow(u: np.ndarray):
    """The relaxation guard's sign test of a Newton iterate u: |u|, taken in
    place, when every entry lies above -_SHALLOW_DEPTH max(u) (a far-tail
    sign overshoot at most), or None when u has a deeper negative lobe (-u,
    an excited state)."""
    if not u.min() > -_SHALLOW_DEPTH * u.max():
        return None
    return np.abs(u, out=u)


def jacobian_diagonal(u, w, omega, coupling, r, h):
    """The diagonal of the Newton Jacobian in u of F = H u + omega u, whose
    w and omega are those of stationary(u, ...): w + 2b [rho > LOG_FLOOR]
    + omega - 2/h^2 (the floored log term is flat); its off-diagonals are
    1/h^2."""
    return w + 2.0 * coupling * ((u / r) ** 2 > LOG_FLOOR) + omega - 2.0 / (h * h)


def origin_scale(u: np.ndarray, h: float) -> float:
    """h^2 max|D2 u| / max|u|: the relative change of u's slope across one
    node, largest at the origin for a state as narrow as the grid."""
    return h * h * float(np.abs(second_difference_dirichlet(u, h)).max()) / float(
        np.abs(u).max())


def bordered_newton_update(u, x1, x2, h, N, angular_weight):
    """The Newton iterate from u on the norm a h u.u = N (a = angular_weight),
    given x1 = J^-1 F and x2 = J^-1 u (u-parts of the solves with the
    Jacobian J of F(u, omega)).

    Eliminates the border, u_lin = u - x1 + ((u . x1)/(u . x2)) x2, and puts
    u_lin back on the norm along x2 (the root s nearest 0 of
    a h (u_lin + s x2)^2 = N).  Returns (u_new, norm of u_lin); u_new is
    None when it is not finite.
    """
    scale = angular_weight * h
    with np.errstate(all="ignore"):
        u_new = u - x1 + (u @ x1) / (u @ x2) * x2
        excess = scale * (u_new @ u_new) - N
        slope = 2.0 * scale * (u_new @ x2)
        curvature = scale * (x2 @ x2)
        s = -2.0 * excess / (slope + np.sign(slope) * np.sqrt(
            slope * slope - 4.0 * curvature * excess))
        u_new += s * x2
    if not np.all(np.isfinite(u_new)):
        u_new = None
    return u_new, float(N + excess)


def ground_state_from_coupling_values(
    coupling: np.ndarray,
    N: float,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    angular_weight: float = FULL_SPHERE,
    psi0=None,
) -> GroundStateResult:
    """Relax to the nonlinear ground state for b(r) given as values on the grid.

    Pass profile.evaluate(grid.r) for a closed-form coupling.  Use
    angular_weight=1 for the radial-only normalization of the separable
    (b0 = 0, q = 1) family: the amplitude matters to the logarithmic term,
    so the weight selects which member of the family the flow converges to.
    Without psi0 the flow starts from exp(-a r^2/2), a = b(r_max) clamped to
    [(r_max/8)^-2, 1/h^2], or from the Gaussian of width r_max/8 where b
    rises toward the origin (_start_exponent); the result's initial_exponent
    is that a, None when psi0 is given.  Guarded Newton steps are tried from
    the first flow iterate on, and where b varies one more follows the step
    that reached tol (see the module docstring); opts.max_steps and history
    count flow and Newton iterations alike.  Raises ConvergenceError
    (carrying the last iterate and the residual history) when opts.max_steps
    is exhausted, when a flow step leaves no finite positive norm (then
    the last iterate is the one before it), or when the state that reached
    tol, or the last iterate of a spent budget, is grid-scale (origin_scale
    above _GRID_SCALE).  Raises DomainError for N not positive and finite,
    a psi0 without finite positive norm, and, before the first step, when
    opts.convergence_tol is not above eps/h^2: roundoff in D2 u keeps the
    residual above about 1.6-2.1 eps/h^2, so no budget would reach it.  A
    tolerance between eps/h^2 and that measured floor passes this check and
    may still exhaust opts.max_steps.
    """
    opts = opts or SolverOptions()
    coupling = grid_values(coupling, grid, "coupling")
    r = grid.r
    h = grid.origin_step()
    tol = opts.convergence_tol
    floor = _EPS / (h * h) if h * h > 0.0 else math.inf
    if not tol > floor:
        raise DomainError(f"convergence_tol {tol:g} is not above the residual's roundoff "
                          f"floor eps/h^2 = {floor:.3g} on this grid (h = {h:.3g})")
    dt = dt0 = _RELAX_DT

    exponent = None if psi0 is not None else _start_exponent(coupling, grid, h)
    u = _initial_guess(grid, psi0, N, angular_weight, exponent)
    system = TridiagonalSystem(r.size, 1)  # each flow step's matrix and right-hand side
    jacobian = TridiagonalSystem(r.size, 2)  # each Newton step's, with [F u]
    history = []
    newton_steps = rejected_steps = 0

    def result(u, omega, steps, converged):
        psi = RadialWavefunction(
            grid=grid, values=u / r, target_norm=N, angular_weight=angular_weight
        )
        return GroundStateResult(psi, omega, converged, steps, newton_steps,
                                 rejected_steps, history, exponent)

    def newton_step(u, w, f, omega, residual):
        """The bordered Newton iterate from u as the ground-state guard takes
        it: (u_new, stationary terms of u_new, norm of its linearized step),
        or None when the solve fails, the iterate is not finite or has a deep
        lobe (fold_shallow), or its residual is not below residual."""
        jacobian.d[:] = jacobian_diagonal(u, w, omega, coupling, r, h)
        jacobian.dl.fill(1.0 / (h * h))
        jacobian.du.fill(1.0 / (h * h))
        x = jacobian.b
        x[:, 0], x[:, 1] = f, u
        if jacobian.solve() != 0:
            return None
        u_new, norm = bordered_newton_update(u, x[:, 0], x[:, 1], h, N, angular_weight)
        if u_new is None or fold_shallow(u_new) is None:
            return None
        trial = stationary(u_new, coupling, r, h)
        return (u_new, trial, norm) if trial[3] < residual else None

    w, f, omega, _ = stationary(u, coupling, r, h)
    energy, allowance = discrete_energy(u, omega, coupling, h, angular_weight)
    # the guess is never handed to Newton, and the first flow step doubles dt
    residual = handover = math.inf
    for step in range(1, opts.max_steps + 1):
        newton = None
        if residual < handover:
            newton = newton_step(u, w, f, omega, residual)
            if newton is None:
                handover = residual / 2.0
        if newton is not None:
            u, (w, f, omega, residual), norm = newton
            energy, allowance = discrete_energy(u, omega, coupling, h, angular_weight)
            newton_steps += 1
        else:
            while True:
                u_new, norm, info = flow_step(u, w, omega, coupling, dt, h, N,
                                              angular_weight, system)
                if info == 0 and 0.0 < norm < math.inf:
                    trial = stationary(u_new, coupling, r, h)
                    trial_energy = discrete_energy(u_new, trial[2], coupling, h,
                                                   angular_weight)
                    if trial_energy[0] <= energy + allowance:
                        break
                elif dt <= dt0:
                    raise ConvergenceError(
                        f"relaxation step {step} left no finite positive norm "
                        f"(norm {norm:.3e}, gtsv info {info})",
                        last=result(u, omega, step - 1, False),
                        history=history,
                    )
                rejected_steps += 1
                dt *= 0.5
                if dt == 0.0:
                    raise ConvergenceError(
                        f"relaxation step {step}: the step size underflowed "
                        f"after {rejected_steps} rejected flow steps",
                        last=result(u, omega, step - 1, False),
                        history=history,
                    )
            # dt times min(residual before / residual after, 2)
            dt *= 2.0 if 2.0 * trial[3] <= residual else residual / trial[3]
            u, (w, f, omega, residual) = u_new, trial
            energy, allowance = trial_energy
        history.append((step, residual, norm, omega))
        if residual < tol:
            break

    converged = residual < tol
    if converged and step < opts.max_steps and not _constant(coupling):
        # where b varies, omega is first order in the residual: polish once
        newton = newton_step(u, w, f, omega, residual)
        if newton is not None:
            u, (w, f, omega, residual), norm = newton
            step += 1
            newton_steps += 1
            history.append((step, residual, norm, omega))
    scale = origin_scale(u, h)
    if converged and scale <= _GRID_SCALE:
        return result(u, omega, step, True)
    if scale <= _GRID_SCALE:
        message = (f"relaxation did not reach residual < {tol:g} within {step} steps "
                   f"(last residual {residual:.3e})")
    else:
        how = ("converged onto" if converged else
               f"stalled above tol {tol:g} (last residual {residual:.3e}) on")
        message = (f"relaxation {how} a grid-scale state after {step} steps: "
                   f"h^2 max|D2 u| / max|u| = {scale:.3g} is above {_GRID_SCALE:g} "
                   f"(omega {omega:.6g}, rho(r_min) {(u[0] / r[0]) ** 2:.3g}); a collapse "
                   f"onto the origin, or a grid too coarse for the state")
    raise ConvergenceError(message, last=result(u, omega, step, False), history=history)


def linear_ground_state(
    V_ext,
    N: float,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    angular_weight: float = FULL_SPHERE,
    psi0=None,
) -> tuple[RadialWavefunction, float]:
    """Ground state of the linear equation -lap psi + V_ext psi = omega psi.

    V_ext may be an array on the grid or a callable of r and must be bounded
    below on the grid.  Solved directly as the lowest eigenpair of
    -D2 + diag(V_ext) on u = r*psi (diagonal 2/h^2 + V, off-diagonals -1/h^2:
    the Dirichlet ghosts of second_difference_dirichlet); omega is that
    eigenvalue, and u is scaled onto a h u.u = N (a = angular_weight).
    opts and psi0 are accepted, for call compatibility with the relaxation,
    and unused.  Used to check that a linear problem with the
    effective potential of a nonlinear solution reproduces that solution.
    Raises DomainError if the matrix is not finite (h so small that 1/h^2
    overflows) or N is not positive and finite, and ConvergenceError if the
    eigensolve fails.
    """
    v = grid_values(V_ext, grid, "V_ext")
    h = grid.origin_step()
    inv_h2 = 1.0 / (h * h) if h * h > 0.0 else math.inf
    diagonal = 2.0 * inv_h2 + v
    if not np.all(np.isfinite(diagonal)):
        raise DomainError(f"-D2 + diag(V_ext) is not finite on this grid (h = {h:.3g})")
    try:
        omega, u = eigh_tridiagonal_lowest(diagonal, np.full(v.size - 1, -inv_h2))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"linear ground state: {exc}") from exc
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u  # the ground state is nodeless; take it positive
    psi = u / grid.r * norm_scale(u, h, N, angular_weight)
    return RadialWavefunction(grid, psi, N, angular_weight), float(omega)
