"""Bethe equations for the spin-1/2 pairing model, in two formulations.

The traditional rapidity equations couple M unknowns through pair
interaction terms 2/(lam_i - lam_j) and are singular whenever rapidities
approach each other or a level.  The eigenvalue-based variables

    L_i = sum_k 1/(eps_i - lam_k)

turn the same spectral problem into N coupled *quadratic* equations that
stay real and regular even where rapidities collide into complex
conjugate pairs, which is what makes them the preferred numerical route.
Both are built from one pair-interaction matrix 1/(x_i - x_j).  Only the
quadratic route is continued in g, by the predictor-corrector loop in
:func:`solve_quadratic_bethe`, in X = g L from its exact g = 0 value
2 * occupation, keeping the pair count g sum_i L_i / 2 = M at each point;
it runs on the private array kernels that :func:`quad_residuals` and
:func:`quad_jacobian` also call.  The rapidities are the roots of Q with
Q'(eps_i) = L_i Q(eps_i) on the occupied levels (El Araby, Gritsev and
Faribault, Phys. Rev. B 85, 115130 (2012)), polished by one Newton solve.
Both routes accept a point by one componentwise backward-error rule, which
is also Newton's stop (:func:`_newton`); the reported residuals stay absolute.

The dual description (lowering operators on the fully polarized state)
shifts every eigenvalue-based variable by -2/g; the dual rapidities solve
the rapidity equations with N - M unknowns at coupling -g.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CardinalityMismatch, ComplexInput, DegenerateEpsilons, NoConvergence,
                     NonFiniteEntry, PoleAtEvaluationPoint)

#: Failed continuation steps halve the increment at most this many times.
MAX_STEP_HALVINGS = 40


@dataclass(frozen=True)
class CouplingModel:
    """N spin-1/2 levels at ``eps`` with pairing coupling g and M excitations."""

    g: float
    eps: tuple
    m: int

    def __post_init__(self):
        if any(isinstance(v, (complex, np.complexfloating)) for v in (self.g, *self.eps)):
            raise ComplexInput(f"g and the levels must be real, got {self.g!r}, {self.eps!r}")
        try:  # read like the levels; an int beyond float range is refused like inf
            object.__setattr__(self, "g", float(self.g))
        except OverflowError:
            raise ValueError("coupling g must be finite, got an int beyond float range") from None
        if self.g == 0 or not math.isfinite(self.g):
            raise ValueError(f"coupling g must be finite and nonzero, got {self.g}")
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        if not all(map(math.isfinite, self.eps)):
            raise NonFiniteEntry(f"levels must be finite, got {self.eps!r}")
        if len(set(self.eps)) != len(self.eps):
            raise DegenerateEpsilons("levels must be pairwise distinct")
        if not 0 <= self.m <= self.n:
            raise CardinalityMismatch(f"excitation count {self.m} outside 0..{self.n}")

    @property
    def n(self) -> int:
        return len(self.eps)


@dataclass(frozen=True)
class LambdaVars:
    """Eigenvalue-based variables, one per level."""

    values: tuple


@dataclass(frozen=True)
class RapidityState:
    """Rapidities of a Bethe state; complex conjugate pairs are expected."""

    lambdas: tuple


def lambdas_from_rapidities(state: RapidityState, eps) -> LambdaVars:
    """Evaluate L_i = sum_k 1/(eps_i - lam_k)."""
    lams = state.lambdas
    for lam in lams:
        if lam in eps:
            raise PoleAtEvaluationPoint(f"rapidity {lam} sits on a level")
    return LambdaVars(values=tuple(sum(1 / (e - lam) for lam in lams) for e in eps))


def richardson_residuals(state: RapidityState, model: CouplingModel) -> np.ndarray:
    """Defects of the rapidity equations, one per rapidity.

    residual_i = 2/g - sum_{j != i} 2/(lam_i - lam_j)
                 - sum_k 1/(eps_k - lam_i).
    """
    lams = np.asarray(state.lambdas, dtype=complex)
    m = len(lams)
    for lam in state.lambdas:
        if lam in model.eps:
            raise PoleAtEvaluationPoint(f"rapidity {lam} sits on a level")
    if len(set(state.lambdas)) != m:
        raise PoleAtEvaluationPoint("coincident rapidities make the equations singular")
    return _richardson_residuals_arr(lams, model.g, np.asarray(model.eps))


def _inverse_gaps(x):
    """The pair-interaction matrix 1/(x_i - x_j), zero on the diagonal."""
    gaps = np.subtract.outer(x, x)
    np.fill_diagonal(gaps, np.inf)
    return 1 / gaps


def _richardson_residuals_arr(lams, g, eps):
    return (2 / g - 2 * _inverse_gaps(lams).sum(axis=1)
            - (1 / (eps - lams[:, None])).sum(axis=1))


def _richardson_jacobian(lams, g, eps):
    pair = 2 * _inverse_gaps(lams) ** 2
    jac = -pair
    np.fill_diagonal(jac, pair.sum(axis=1) - (1 / (eps - lams[:, None]) ** 2).sum(axis=1))
    return jac


def _lambda_array(lv: LambdaVars, model: CouplingModel) -> np.ndarray:
    if len(lv.values) != model.n:
        raise CardinalityMismatch(f"{len(lv.values)} variables for {model.n} levels")
    return np.asarray(lv.values)


def quad_residuals(lv: LambdaVars, model: CouplingModel) -> np.ndarray:
    """Defects of the quadratic equations in the eigenvalue-based variables.

    residual_i = L_i^2 - sum_{j != i} (L_i - L_j)/(eps_i - eps_j)
                 - (2/g) L_i.
    """
    return _quad_residuals(_lambda_array(lv, model), model.g, _inverse_gaps(model.eps))


def quad_jacobian(lv: LambdaVars, model: CouplingModel) -> np.ndarray:
    """Analytic Jacobian of :func:`quad_residuals` with respect to the variables."""
    inv = _inverse_gaps(model.eps)
    return _quad_jacobian(_lambda_array(lv, model), model.g, inv, inv.sum(axis=1))


def _quad_residuals(vals, g, inv):
    """:func:`quad_residuals` on an array, with ``inv`` the inverse gaps of the levels."""
    cross = (np.subtract.outer(vals, vals) * inv).sum(axis=1)
    return vals ** 2 - cross - (2 / g) * vals


def _quad_jacobian(vals, g, inv, inv_rows):
    """:func:`quad_jacobian` on an array; ``inv_rows`` are the row sums of ``inv``."""
    jac = inv.astype(np.result_type(vals, float))
    np.fill_diagonal(jac, 2 * vals - 2 / g - inv_rows)
    return jac


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _newton(residual, jacobian, x0, scale):
    """Damped Newton from ``x0``; returns the last iterate, its residual and whether

        |r_i| <= (n + 2) u (s_i + (|J(x)| |x|)_i)   for every i

    holds there, the one stop and acceptance rule of both routes: a componentwise
    backward error (Oettli and Prager; Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 7), n unknowns, u = 2^-53, s_i the sum of the absolute values of
    the terms of equation i, and ``scale(x)`` s + |J||x| or a bound above it.  To first
    order in u it holds at the float x nearest a root x*: |x - x*| <= u |x*| moves r_i
    by at most u (|J||x|)_i, and each term of r_i is rounded at most n + 2 times (a
    difference, a product or quotient, n - 2 additions and the two subtractions that
    join the parts; stored inverse level gaps count as data), which moves r_i by at
    most (n + 2) u s_i (Higham, ch. 3).  The line search takes a trial point that
    lowers max |r| or passes the rule; one on a pole, with an infinite or NaN residual
    or bound, does neither and is rejected without a warning.  A non-finite Jacobian
    ends the iteration.
    """
    def holds_at(x, r):
        bound = (len(x) + 2) * 2.0 ** -53 * scale(x)
        return bool((np.abs(r) <= bound).all() and bound.max() < np.inf)

    x = np.array(x0)
    r = residual(x)
    best, holds = np.max(np.abs(r)), holds_at(x, r)
    for _ in range(200):
        if holds:
            break
        jac = jacobian(x)
        if not np.all(np.isfinite(jac)):
            break
        try:
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        for _ in range(30):
            xn = x + step * dx
            rn = residual(xn)
            passes, size = holds_at(xn, rn), np.abs(rn).max()
            if passes or size < best:
                x, r, holds, best = xn, rn, passes, size
                break
            step *= 0.5
        else:
            break
    return x, r, holds


def solve_quadratic_bethe(model: CouplingModel, occupation) -> LambdaVars:
    """Solve the quadratic equations for the state with these N weak-coupling occupations.

    ``occupation`` holds N bits, ``model.m`` of them ones.  The solve runs
    in X = g L, where the equations read

        F_i = X_i^2 - 2 X_i - g sum_{j != i} (X_i - X_j)/(eps_i - eps_j) = 0.

    At g = 0 the solution is exactly X = 2 * occupation, with Jacobian
    diag(+-2), so the continuation starts there with no Newton solve and
    moves linearly in g.  Each step, at first a quarter of the way, starts
    Newton on F / g^2, the kernel of :func:`quad_residuals` at L = X / g on
    inverse gaps built once per solve, from the tangent predictor
    X + (g_next - g_X) dX/dg, dX/dg = -J^-1 dF/dg at the last accepted
    point (Allgower and Georg, *Introduction to Numerical Continuation
    Methods*, ch. 2).  A failed step halves the increment, at most
    :data:`MAX_STEP_HALVINGS` times in total; an accepted one doubles it
    back up to a quarter.  A failure raises :class:`NoConvergence` with the
    coupling reached, the last Newton max |residual| and the halvings spent.

    A point is accepted when it passes the rule of :func:`_newton` in L and
    has the pair count round(g sum_i L_i / 2) = M: summing the rapidity
    equations gives sum_i L_i = 2M/g for every M-pair state, so a jump to
    another branch changes the count by at least one.  With inv the inverse
    level gaps, J_ii = 2L_i - 2/g - sum_j inv_ij and J_ij = inv_ij, the rule's
    s_i + (|J||L|)_i is at most 3 L_i^2 + 2 |L_i| (2/|g| + sum_j |inv_ij|) +
    2 (|inv| |L|)_i, as |L_i - L_j| <= |L_i| + |L_j|: one product with |inv|
    per iterate and no Jacobian, the same in X = g L as |J_X||X| = |J||L|.
    """
    occupation = tuple(int(b) for b in occupation)
    if len(occupation) != model.n or any(b not in (0, 1) for b in occupation):
        raise CardinalityMismatch("occupation must be N bits")
    if sum(occupation) != model.m:
        raise CardinalityMismatch(
            f"occupation has {sum(occupation)} excitations, model declares {model.m}")
    if model.m == 0:
        return LambdaVars(values=(0.0,) * model.n)

    inv = _inverse_gaps(model.eps)
    inv_rows, abs2 = inv.sum(axis=1), 2 * np.abs(inv)

    def pair_flow(x):  # dF/dg = -sum_{j != i} (X_i - X_j)/(eps_i - eps_j)
        return inv @ x - inv_rows * x

    # the kernels and MAX_STEP_HALVINGS are looked up as module globals on every
    # use, so a wrapped one sees each Newton iteration
    x, g_x, slope = 2 * np.asarray(occupation, dtype=float), 0.0, None
    u, du, halvings = 0.0, 0.25, 0
    while u < 1.0:
        if slope is None:  # the tangent at X; zero where J is singular
            if g_x == 0:
                jac, flow = np.diag(2 * x - 2), pair_flow(x)
            else:  # of F / g^2: the tangent is the same for any scale of F
                jac = _quad_jacobian(x / g_x, g_x, inv, inv_rows) / g_x
                flow = pair_flow(x) / g_x ** 2
            try:
                slope = np.linalg.solve(jac, -flow)
            except np.linalg.LinAlgError:
                slope = np.zeros_like(x)
            if not np.all(np.isfinite(slope)):
                slope = np.zeros_like(x)
        u_next = min(u + du, 1.0)
        g = model.g if u_next == 1.0 else model.g * u_next
        linear = (abs2 + np.diag(4 / abs(g) + abs2.sum(axis=1))) / abs(g)  # the bound in X
        xn, r, holds = _newton(
            lambda y: _quad_residuals(y / g, g, inv),
            lambda y: _quad_jacobian(y / g, g, inv, inv_rows) / g, x + (g - g_x) * slope,
            lambda y: linear @ np.abs(y) + 3 / g ** 2 * (y * y))
        if holds and round(xn.sum() / 2) == model.m:
            u, x, g_x, slope = u_next, xn, g, None
            du = min(du * 2, 0.25)
        else:
            du /= 2
            halvings += 1
            if halvings > MAX_STEP_HALVINGS:
                raise NoConvergence(f"continuation stalled at g = {g_x:.6g}", g_reached=g_x,
                                    residual=float(np.max(np.abs(r))), halvings=halvings)
    return LambdaVars(values=tuple(float(v) for v in x / model.g))


def _rapidities_from_lambdas(nodes, lambdas):
    """Roots of Q with Q'(e) = L Q(e) at the M ``nodes`` (see :func:`solve_richardson`)."""
    system = _inverse_gaps(nodes)
    np.fill_diagonal(system, system.sum(axis=1) - lambdas)
    r = np.linalg.solve(system, -np.ones(len(nodes)))
    return np.linalg.eigvals(np.diag(nodes) - r[:, None])


def solve_richardson(model: CouplingModel, initial_levels) -> RapidityState:
    """Solve the rapidity equations for the state whose pairs fill these levels at g = 0.

    ``initial_levels`` are M distinct 0-based level indices, the set S.
    The rapidities are read off the quadratic route's L for the same
    state.  Every monic Q of degree M is

        Q(z) = prod_k (z - lam_k) = P(z) (1 + sum_{j in S} r_j / (z - eps_j)),

    P(z) = prod_{j in S} (z - eps_j).  Since L_i = Q'(eps_i) / Q(eps_i),
    and with P_i(z) = P(z) / (z - eps_i), Q(eps_i) = r_i P_i(eps_i) and
    Q'(eps_i) = P_i(eps_i) (1 + sum_{j != i} (r_j + r_i) / (eps_i - eps_j))
    at i in S, the M conditions are linear: (K_S - diag L_S) r = -1, K_S
    the matrix 1/(eps_i - eps_j) on S with its row sums on the diagonal.
    This is the transpose of ``partition.build_J_higher`` at 2S = 1 on the
    subsystem S at L_S, so it is invertible exactly when the state overlaps
    the product state filling S.  By the matrix determinant lemma
    diag(eps_S) - r 1^T has characteristic polynomial Q, so its
    eigenvalues are the rapidities.

    One Newton solve at g polishes them, sorted by real part; it must pass
    the rule of :func:`_newton`, n = M, with s_i = 2/|g| + sum_j 2/|lam_i - lam_j|
    + sum_k 1/|eps_k - lam_i|.  The count n + 2 covers the pair terms; a level
    term, summed over N > M levels, can be rounded more often, so where M is
    small the rule may refuse a point at the rounding floor.  A singular
    system or a failed polish raises :class:`NoConvergence` at ``g_reached`` = g.
    """
    levels = tuple(initial_levels)
    if len(set(levels)) != len(levels) or len(levels) != model.m:
        raise CardinalityMismatch("initial_levels must be M distinct indices")
    if any(not 0 <= i < model.n for i in levels):
        raise CardinalityMismatch("initial level index out of range")
    if model.m == 0:
        return RapidityState(lambdas=())

    lv = solve_quadratic_bethe(model, [int(i in levels) for i in range(model.n)])
    eps = np.asarray(model.eps)
    try:
        start = _rapidities_from_lambdas(eps[list(levels)], np.asarray(lv.values)[list(levels)])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"no rapidities from L at g = {model.g:.6g}: {exc}",
                            g_reached=model.g) from exc
    x, r, holds = _newton(lambda y: _richardson_residuals_arr(y, model.g, eps),
                          lambda y: _richardson_jacobian(y, model.g, eps), start.astype(complex),
                          lambda y: 2 / abs(model.g) + 2 * np.abs(_inverse_gaps(y)).sum(axis=1)
                          + np.abs(1 / (eps - y[:, None])).sum(axis=1)
                          + np.abs(_richardson_jacobian(y, model.g, eps)) @ np.abs(y))
    if not holds:
        raise NoConvergence(f"rapidity polish stalled at g = {model.g:.6g}",
                            g_reached=model.g, residual=float(np.max(np.abs(r))))
    return RapidityState(lambdas=tuple(complex(v) for v in np.sort(x)))


def dual_transform(lv: LambdaVars, model: CouplingModel) -> LambdaVars:
    """Eigenvalue-based variables of the dual state: a rigid shift by -2/g."""
    shift = 2 / model.g
    return LambdaVars(values=tuple(v - shift for v in lv.values))
