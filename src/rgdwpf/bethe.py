"""Bethe equations for the spin-1/2 pairing model, in two formulations.

The traditional rapidity equations couple M unknowns through pair
interaction terms 2/(lam_i - lam_j) and are singular whenever rapidities
approach each other or a level.  The eigenvalue-based variables

    L_i = sum_k 1/(eps_i - lam_k)

turn the same spectral problem into N coupled *quadratic* equations that
stay real and regular even where rapidities collide into complex
conjugate pairs, which is what makes them the preferred numerical route.
Both formulations are built from one pair-interaction matrix 1/(x_i - x_j)
(over the levels, or over the rapidities) and share one driver that
continues a solution in the coupling g from the trivially solvable
weak-coupling limit (homotopy); a solution of one route must match the
other after conversion.

The dual description (lowering operators on the fully polarized state)
shifts every eigenvalue-based variable by -2/g; the dual rapidities solve
the rapidity equations with N - M unknowns at coupling -g.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import CardinalityMismatch, DegenerateEpsilons, NoConvergence, PoleAtEvaluationPoint

#: Newton stops below this max |residual|; accepted homotopy steps reach it, or on the
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


def _newton(residual, jacobian, x0):
    """Damped Newton from ``x0``; returns the last iterate and its max |residual|."""
    x = np.array(x0)
    r = residual(x)
    best = np.max(np.abs(r))
    for _ in range(200):
        if best < RESIDUAL_TOL:
            break
        try:
            dx = np.linalg.solve(jacobian(x), -r)
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


def _solve_by_continuation(model, equations, seed, extra_seeds=None):
    """Solve at weak coupling, then follow the branch to ``model.g``.

    ``equations(g)`` gives the residual and Jacobian at g as functions of
    the variables x, and the max |residual| that accepts a Newton solve
    there (at least :data:`RESIDUAL_TOL`, where Newton stops).  The start
    g0 is ``model.g`` halved until |g0| <= :data:`START_GAP_FRACTION` times
    the smallest level gap; Newton starts there from ``seed(g0)``.  The
    path to ``model.g`` is geometric: accepted steps end with a Newton
    residual below that bound, failed steps retry from ``extra_seeds(x)``
    and then halve the path increment, at most :data:`MAX_STEP_HALVINGS`
    times in total.  A failure raises :class:`NoConvergence` with the
    coupling reached, the last Newton residual and the halvings spent.
    """
    def newton_at(g, x):
        residual, jacobian, accept_below = equations(g)
        x, res = _newton(residual, jacobian, x)
        return x, res, res < accept_below

    g0 = model.g
    while abs(g0) > START_GAP_FRACTION * model.min_gap:
        g0 /= 2
    x, res, accepted = newton_at(g0, seed(g0))
    if not accepted:
        raise NoConvergence(f"weak-coupling solve failed at g = {g0:.6g}",
                            g_reached=g0, residual=res)
    if g0 == model.g:
        return x
    ratio = model.g / g0
    du0 = 1.0 / max(1, round(np.log(abs(ratio)) / np.log(2) * SUBSTEPS_PER_DOUBLING))
    u, du, halvings = 0.0, du0, 0
    while u < 1.0:
        u_next = min(u + du, 1.0)
        g = g0 * ratio ** u_next
        seeds = [x] + (extra_seeds(x) if extra_seeds is not None else [])
        for start in seeds:
            xn, res, accepted = newton_at(g, start)
            if accepted:
                break
        if accepted:
            u, x = u_next, xn
            du = min(du * 2, du0)
        else:
            du /= 2
            halvings += 1
            if halvings > MAX_STEP_HALVINGS:
                g_reached = g0 * ratio ** u
                raise NoConvergence(
                    f"continuation stalled at g = {g_reached:.6g}",
                    g_reached=g_reached, residual=res, halvings=halvings)
    return x


def solve_quadratic_bethe(model: CouplingModel, occupation) -> LambdaVars:
    """Solve the quadratic equations for the state with these N weak-coupling occupations.

    ``occupation`` holds N bits, ``model.m`` of them ones.  The homotopy seed
    is L_i = (2/g0) * occupation_i, the leading weak-coupling behaviour of
    occupied levels.  The result's max |residual| is below 1e-12.
    """
    occupation = tuple(int(b) for b in occupation)
    if len(occupation) != model.n or any(b not in (0, 1) for b in occupation):
        raise CardinalityMismatch("occupation must be N bits")
    if sum(occupation) != model.m:
        raise CardinalityMismatch(
            f"occupation has {sum(occupation)} excitations, model declares {model.m}")
    if model.m == 0:
        return LambdaVars(values=(0.0,) * model.n)

    # one model per coupling; quad_residuals and quad_jacobian are looked up
    # as module globals on every evaluation, so a wrapped one sees each
    # Newton iteration
    def equations(g):
        at_g = replace(model, g=g)
        return (lambda v: quad_residuals(LambdaVars(tuple(v)), at_g),
                lambda v: quad_jacobian(LambdaVars(tuple(v)), at_g), RESIDUAL_TOL)

    x = _solve_by_continuation(
        model, equations, lambda g0: (2 / g0) * np.asarray(occupation, dtype=float))
    return LambdaVars(values=tuple(float(v) for v in x))


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
    requires it.

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
    jitter = 1j * 1e-6 * np.array([(k + 1) * (-1) ** k for k in range(model.m)])
    x = _solve_by_continuation(
        model,
        lambda g: (lambda lam: _richardson_residuals_arr(lam, g, eps),
                   lambda lam: _richardson_jacobian(lam, g, eps),
                   RESIDUAL_TOL * max(1.0, 2 / abs(g))),
        lambda g0: np.array([model.eps[i] - g0 / 2 for i in levels], dtype=complex) + jitter,
        extra_seeds=lambda lam: [lam + jitter] + _pair_rotations(lam))
    return RapidityState(lambdas=tuple(complex(v) for v in x))


def dual_transform(lv: LambdaVars, model: CouplingModel) -> LambdaVars:
    """Eigenvalue-based variables of the dual state: a rigid shift by -2/g."""
    shift = 2 / model.g
    return LambdaVars(values=tuple(v - shift for v in lv.values))
