"""Bethe equations for the spin-1/2 pairing model, in two formulations.

The traditional rapidity equations couple M unknowns through pair
interaction terms 2/(lam_i - lam_j) and are singular whenever rapidities
approach each other or a level.  The eigenvalue-based variables

    L_i = sum_k 1/(eps_i - lam_k)

turn the same spectral problem into N coupled *quadratic* equations that
stay real and regular even where rapidities collide into complex
conjugate pairs, which is what makes them the preferred numerical route.
Both formulations are built from one pair-interaction matrix 1/(x_i - x_j)
(over the levels, or over the rapidities) and share one predictor-corrector
driver that continues a solution in the coupling g from the weak-coupling
limit: each step starts Newton from the tangent dx/dg of the last solution.
The quadratic route runs in X = g L, whose g = 0 solution X = 2 * occupation
is exact, and accepts a point only with the state's pair count
g sum_i L_i / 2 = M; the rapidity route starts from a Newton solve at a
small coupling g0.  A solution of one route must match the other after
conversion.

The dual description (lowering operators on the fully polarized state)
shifts every eigenvalue-based variable by -2/g; the dual rapidities solve
the rapidity equations with N - M unknowns at coupling -g.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import CardinalityMismatch, DegenerateEpsilons, NoConvergence, PoleAtEvaluationPoint

#: Newton stops below this max |residual|.  Each route's result reaches it, or on the
#: rapidity route a backward error below it (see :func:`solve_richardson`).
RESIDUAL_TOL = 1e-12
#: Failed continuation steps halve the increment at most this many times.
MAX_STEP_HALVINGS = 40
#: The starting coupling satisfies |g0| <= this fraction of the smallest level gap.
START_GAP_FRACTION = 0.05
#: Geometric substeps per doubling of the coupling.
SUBSTEPS_PER_DOUBLING = 4


@dataclass(frozen=True)
class CouplingModel:
    """N spin-1/2 levels at ``eps`` with pairing coupling g and M excitations."""

    g: float
    eps: tuple
    m: int

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        if self.g == 0:
            raise ValueError("coupling g must be nonzero")
        if not np.isfinite(self.g):
            raise ValueError(f"coupling g must be finite, got {self.g}")
        if len(set(self.eps)) != len(self.eps):
            raise DegenerateEpsilons("levels must be pairwise distinct")
        if not 0 <= self.m <= self.n:
            raise CardinalityMismatch(f"excitation count {self.m} outside 0..{self.n}")

    @property
    def n(self) -> int:
        return len(self.eps)

    @property
    def min_gap(self) -> float:
        if self.n < 2:
            return float("inf")
        e = sorted(self.eps)
        return min(b - a for a, b in zip(e, e[1:]))


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
    vals = _lambda_array(lv, model)
    cross = (np.subtract.outer(vals, vals) * _inverse_gaps(model.eps)).sum(axis=1)
    return vals ** 2 - cross - (2 / model.g) * vals


def quad_jacobian(lv: LambdaVars, model: CouplingModel) -> np.ndarray:
    """Analytic Jacobian of :func:`quad_residuals` with respect to the variables."""
    vals = _lambda_array(lv, model)
    inv = _inverse_gaps(model.eps)
    jac = inv.astype(np.result_type(vals, float))
    np.fill_diagonal(jac, 2 * vals - 2 / model.g - inv.sum(axis=1))
    return jac


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _newton(residual, jacobian, x0):
    """Damped Newton from ``x0``; returns the last iterate and its max |residual|.

    A trial point on a pole of the equations gives an infinite or NaN
    residual, which never compares below the best one, so it is rejected
    without a warning; a Jacobian that is not finite ends the iteration.
    """
    x = np.array(x0)
    r = residual(x)
    best = np.max(np.abs(r))
    for _ in range(200):
        if best < RESIDUAL_TOL:
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
            if np.max(np.abs(rn)) < best:
                x, r = xn, rn
                best = np.max(np.abs(r))
                break
            step *= 0.5
        else:
            break
    return x, float(best)


def _solve_by_continuation(g, start, equations, accepts, extra_seeds=None):
    """Follow a solution in the coupling from ``start = (g0, x0)`` to ``g``.

    ``equations(c)`` gives three functions of the variables x at coupling
    c: the residual F, its Jacobian and dF/dg.  At g0 = 0, x0 must be the
    exact solution and the path to g is linear in the coupling, first in
    steps of a quarter of the way; otherwise Newton first solves at g0
    from the seed x0 and the path is geometric, with
    :data:`SUBSTEPS_PER_DOUBLING` substeps per doubling.  Each step
    starts Newton from the tangent predictor x + (g_next - g_x) dx/dg,
    dx/dg = -J^-1 dF/dg at the last accepted point (Allgower and Georg,
    *Introduction to Numerical Continuation Methods*, ch. 2), then from
    ``extra_seeds(x)``.  A Newton solve counts only if
    ``accepts(c, x, residual)``: a residual bound, and on the quadratic
    route also the pair count of :func:`solve_quadratic_bethe`.  A failed
    step halves the path increment, at most :data:`MAX_STEP_HALVINGS`
    times in total, and an accepted one doubles it back up to its first
    size.  A failure raises :class:`NoConvergence` with the coupling
    reached, the last Newton residual and the halvings spent.
    """
    def newton_at(c, x):
        residual, jacobian, _ = equations(c)
        x, res = _newton(residual, jacobian, x)
        return x, res, accepts(c, x, res)

    g0, x = start
    if g0 != 0:
        x, res, accepted = newton_at(g0, x)
        if not accepted:
            raise NoConvergence(f"weak-coupling solve failed at g = {g0:.6g}",
                                g_reached=g0, residual=res)
    if g0 == g:
        return x

    def coupling(u):  # the path, ending exactly at g
        if u == 1.0:
            return g
        return g * u if g0 == 0 else g0 * (g / g0) ** u

    if g0 == 0:
        du0 = 0.25
    else:
        du0 = 1.0 / max(1, round(np.log2(abs(g / g0)) * SUBSTEPS_PER_DOUBLING))
    u, du, halvings, g_x, slope = 0.0, du0, 0, g0, None
    while u < 1.0:
        if slope is None:
            _, jacobian, d_dg = equations(g_x)
            slope = _tangent(jacobian, d_dg, x)
        u_next = min(u + du, 1.0)
        g_next = coupling(u_next)
        seeds = [x + (g_next - g_x) * slope] + (extra_seeds(x) if extra_seeds else [])
        for seed in seeds:
            xn, res, accepted = newton_at(g_next, seed)
            if accepted:
                break
        if accepted:
            u, x, g_x, slope = u_next, xn, g_next, None
            du = min(du * 2, du0)
        else:
            du /= 2
            halvings += 1
            if halvings > MAX_STEP_HALVINGS:
                raise NoConvergence(f"continuation stalled at g = {g_x:.6g}",
                                    g_reached=g_x, residual=res, halvings=halvings)
    return x


def _tangent(jacobian, d_dg, x):
    """dx/dg = -J^-1 dF/dg at a solution x; zero where J is singular."""
    try:
        slope = np.linalg.solve(jacobian(x), -d_dg(x))
    except np.linalg.LinAlgError:
        return np.zeros_like(x)
    return slope if np.all(np.isfinite(slope)) else np.zeros_like(x)


def solve_quadratic_bethe(model: CouplingModel, occupation) -> LambdaVars:
    """Solve the quadratic equations for the state with these N weak-coupling occupations.

    ``occupation`` holds N bits, ``model.m`` of them ones.  The solve runs
    in X = g L, where the equations read

        F_i = X_i^2 - 2 X_i - g sum_{j != i} (X_i - X_j)/(eps_i - eps_j) = 0.

    At g = 0 the solution is exactly X = 2 * occupation, with Jacobian
    diag(+-2), so the continuation starts there with no Newton solve and
    moves linearly in g.  Newton works on F / g^2, which is
    :func:`quad_residuals` at L = X / g.  Every accepted point has the pair
    count round(g sum_i L_i / 2) = M: summing the rapidity equations gives
    sum_i L_i = 2M/g for every M-pair state, so a jump to another branch
    changes the count by at least one.  The result has max |residual|
    below 1e-12.  The points on the way need only max |F| below 1e-12
    where that is looser (|g| < 1): near g = 0, L ~ 2/g puts the rounding
    error of the residual of L above 1e-12.
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

    def pair_flow(x):  # dF/dg = -sum_{j != i} (X_i - X_j)/(eps_i - eps_j)
        return inv @ x - inv.sum(axis=1) * x

    # F / g^2 for g != 0 (the tangent is the same for any scale of F);
    # quad_residuals and quad_jacobian are looked up as module globals on
    # every evaluation, so a wrapped one sees each Newton iteration
    def equations(g):
        if g == 0:
            return None, lambda x: np.diag(2 * x - 2), pair_flow
        at_g = replace(model, g=g)
        return (lambda x: quad_residuals(LambdaVars(tuple(x / g)), at_g),
                lambda x: quad_jacobian(LambdaVars(tuple(x / g)), at_g) / g,
                lambda x: pair_flow(x) / g ** 2)

    def accepts(g, x, res):
        tol = RESIDUAL_TOL * (1.0 if g == model.g else max(1.0, g ** -2))
        return res < tol and round(x.sum() / 2) == model.m

    x = _solve_by_continuation(
        model.g, (0.0, 2 * np.asarray(occupation, dtype=float)), equations, accepts)
    return LambdaVars(values=tuple(float(v) for v in x / model.g))


def _pair_rotations(lams):
    # Reseed the closest rapidity pairs as vertical complex pairs about
    # their midpoint: past a pair collision the true roots are conjugate
    # pairs, which a real-line seed can never reach.
    m = len(lams)
    seeds = []
    if m < 2:
        return seeds
    dists = sorted(
        (abs(lams[i] - lams[j]), i, j) for i in range(m) for j in range(i + 1, m))
    for _, i, j in dists[:3]:
        centre = (lams[i] + lams[j]) / 2
        half = max(abs(lams[i] - lams[j]) / 2, 1e-3)
        out = np.array(lams, dtype=complex)
        out[i] = centre + 1j * half
        out[j] = centre - 1j * half
        seeds.append(out)
    return seeds


def solve_richardson(model: CouplingModel, initial_levels) -> RapidityState:
    """Solve the rapidity equations by continuation from the weak-coupling limit.

    ``initial_levels`` are M distinct 0-based level indices.  At weak
    coupling each rapidity sits just below its level, lam_k = eps_{i_k} - g0/2;
    a tiny imaginary jitter lets pairs leave the real axis where the branch
    requires it.  The continuation's tangent uses dF/dg = -2/g^2.

    A Newton solve is accepted at max |residual| below 1e-12 or at a
    backward error below 1e-12 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 1): equation i holds exactly at the coupling
    g_i = 2 / (2/g - residual_i), a relative change of about
    |g residual_i| / 2.  Near g0 the terms are of size 2/g0, and at half
    filling from N = 12 on the absolute residual stalls near 1.4e-12.  A
    backward error in the levels or rapidities too would accept the
    singular points lam = eps_k +- delta, whose O(1/delta) terms cancel.
    """
    levels = tuple(initial_levels)
    if len(set(levels)) != len(levels) or len(levels) != model.m:
        raise CardinalityMismatch("initial_levels must be M distinct indices")
    if any(not 0 <= i < model.n for i in levels):
        raise CardinalityMismatch("initial level index out of range")
    if model.m == 0:
        return RapidityState(lambdas=())

    eps = np.asarray(model.eps)
    g0 = model.g
    while abs(g0) > START_GAP_FRACTION * model.min_gap:
        g0 /= 2
    jitter = 1j * 1e-6 * np.array([(k + 1) * (-1) ** k for k in range(model.m)])
    x = _solve_by_continuation(
        model.g,
        (g0, np.array([model.eps[i] - g0 / 2 for i in levels], dtype=complex) + jitter),
        lambda g: (lambda lam: _richardson_residuals_arr(lam, g, eps),
                   lambda lam: _richardson_jacobian(lam, g, eps),
                   lambda lam: np.full(len(lam), -2 / g ** 2)),
        lambda g, lam, res: res < RESIDUAL_TOL * max(1.0, 2 / abs(g)),
        extra_seeds=lambda lam: [lam + jitter] + _pair_rotations(lam))
    return RapidityState(lambdas=tuple(complex(v) for v in x))


def dual_transform(lv: LambdaVars, model: CouplingModel) -> LambdaVars:
    """Eigenvalue-based variables of the dual state: a rigid shift by -2/g."""
    shift = 2 / model.g
    return LambdaVars(values=tuple(v - shift for v in lv.values))
