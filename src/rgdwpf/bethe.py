"""Bethe equations for the spin-1/2 pairing model, in two formulations.

The traditional rapidity equations couple M unknowns through pair
interaction terms 2/(lam_i - lam_j) and are singular whenever rapidities
approach each other or a level.  The eigenvalue-based variables

    L_i = sum_k 1/(eps_i - lam_k)

turn the same spectral problem into N coupled *quadratic* equations that
stay real and regular even where rapidities collide into complex
conjugate pairs, which is what makes them the preferred numerical route.
Both are built from one pair-interaction matrix 1/(x_i - x_j).  Only the
quadratic route is continued in the coupling g, by the predictor-corrector
loop in :func:`solve_quadratic_bethe`, in X = g L from its exact g = 0
value 2 * occupation, and each point keeps the pair count
g sum_i L_i / 2 = M.  The rapidities are the roots of the polynomial Q
with Q'(eps_i) = L_i Q(eps_i) on the occupied levels (El Araby, Gritsev
and Faribault, Phys. Rev. B 85, 115130 (2012)), polished by one Newton
solve of the rapidity equations.

The dual description (lowering operators on the fully polarized state)
shifts every eigenvalue-based variable by -2/g; the dual rapidities solve
the rapidity equations with N - M unknowns at coupling -g.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CardinalityMismatch, ComplexInput, DegenerateEpsilons, NoConvergence,
                     NonFiniteEntry, PoleAtEvaluationPoint)

#: Newton stops below this max |residual|.  Each route's result reaches it, or a
#: backward error in the coupling below it.
RESIDUAL_TOL = 1e-12
#: Failed continuation steps halve the increment at most this many times.
MAX_STEP_HALVINGS = 40


@dataclass(frozen=True)
class CouplingModel:
    """N spin-1/2 levels at ``eps`` with pairing coupling g and M excitations."""

    g: float
    eps: tuple
    m: int

    def __post_init__(self):
        if self.g == 0:
            raise ValueError("coupling g must be nonzero")
        if not np.isfinite(self.g):
            raise ValueError(f"coupling g must be finite, got {self.g}")
        if any(isinstance(v, (complex, np.complexfloating)) for v in (self.g, *self.eps)):
            raise ComplexInput(f"g and the levels must be real, got {self.g!r}, {self.eps!r}")
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
    """Damped Newton from ``x0``; returns the last iterate and its residual vector.

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
    return x, r


def solve_quadratic_bethe(model: CouplingModel, occupation) -> LambdaVars:
    """Solve the quadratic equations for the state with these N weak-coupling occupations.

    ``occupation`` holds N bits, ``model.m`` of them ones.  The solve runs
    in X = g L, where the equations read

        F_i = X_i^2 - 2 X_i - g sum_{j != i} (X_i - X_j)/(eps_i - eps_j) = 0.

    At g = 0 the solution is exactly X = 2 * occupation, with Jacobian
    diag(+-2), so the continuation starts there with no Newton solve and
    moves linearly in g.  Each step, at first a quarter of the way, starts
    Newton on F / g^2, which is :func:`quad_residuals` at L = X / g, from
    the tangent predictor X + (g_next - g_X) dX/dg, dX/dg = -J^-1 dF/dg at
    the last accepted point (Allgower and Georg, *Introduction to Numerical
    Continuation Methods*, ch. 2).  A failed step halves the increment, at
    most :data:`MAX_STEP_HALVINGS` times in total; an accepted one doubles
    it back up to a quarter.  A failure raises :class:`NoConvergence` with
    the coupling reached, the last Newton max |residual| and the halvings
    spent.

    Every accepted point has the pair count round(g sum_i L_i / 2) = M:
    summing the rapidity equations gives sum_i L_i = 2M/g for every M-pair
    state, so a jump to another branch changes the count by at least one.
    The result has max |residual| below 1e-12; the points on the way need
    only max |F| below 1e-12 where that is looser (|g| < 1), as L ~ 2/g
    near g = 0 puts the rounding error of the residual of L above 1e-12.
    Where Newton stalls above that, as when levels nearly coincide, a point
    is accepted at a backward error below 1e-12: equation i holds exactly
    at 2/g_i = 2/g + r_i/L_i, r_i its residual, and every |g_i - g| must be
    below 1e-12 |g|.
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

    # quad_residuals, quad_jacobian and MAX_STEP_HALVINGS are looked up as
    # module globals on every use, so a wrapped one sees each Newton iteration
    x, g_x, at_x, slope = 2 * np.asarray(occupation, dtype=float), 0.0, None, None
    u, du, halvings = 0.0, 0.25, 0
    while u < 1.0:
        if slope is None:  # the tangent at X; zero where J is singular
            if g_x == 0:
                jac, flow = np.diag(2 * x - 2), pair_flow(x)
            else:  # of F / g^2: the tangent is the same for any scale of F
                jac = quad_jacobian(LambdaVars(tuple(x / g_x)), at_x) / g_x
                flow = pair_flow(x) / g_x ** 2
            try:
                slope = np.linalg.solve(jac, -flow)
            except np.linalg.LinAlgError:
                slope = np.zeros_like(x)
            if not np.all(np.isfinite(slope)):
                slope = np.zeros_like(x)
        u_next = min(u + du, 1.0)
        g = model.g if u_next == 1.0 else model.g * u_next
        at_g = replace(model, g=g)
        xn, r = _newton(lambda y: quad_residuals(LambdaVars(tuple(y / g)), at_g),
                        lambda y: quad_jacobian(LambdaVars(tuple(y / g)), at_g) / g,
                        x + (g - g_x) * slope)
        with np.errstate(divide="ignore", invalid="ignore"):
            tol = RESIDUAL_TOL * (1.0 if g == model.g else max(1.0, g ** -2))
            holds = (np.max(np.abs(r)) < tol  # else the backward error, with L = X / g
                     or np.max(np.abs(2 / (2 / g + r * g / xn) - g)) < RESIDUAL_TOL * abs(g))
            holds = holds and round(xn.sum() / 2) == model.m
        if holds:
            u, x, g_x, at_x, slope = u_next, xn, g, at_g, None
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

    One Newton solve at g polishes them, sorted by real part.  It is
    accepted at max |residual| below 1e-12 or at a backward error below
    1e-12 (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 1):
    equation i holds exactly at g_i = 2 / (2/g - residual_i).  A backward
    error in the levels or rapidities would also accept the singular points
    lam = eps_k +- delta, whose O(1/delta) terms cancel.  A singular system
    or a failed polish raises :class:`NoConvergence` at ``g_reached`` = g.
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
    x, r = _newton(lambda lam: _richardson_residuals_arr(lam, model.g, eps),
                   lambda lam: _richardson_jacobian(lam, model.g, eps), start.astype(complex))
    res = float(np.max(np.abs(r)))
    if not res < RESIDUAL_TOL * max(1.0, 2 / abs(model.g)):
        raise NoConvergence(f"rapidity polish stalled at g = {model.g:.6g}",
                            g_reached=model.g, residual=res)
    return RapidityState(lambdas=tuple(complex(v) for v in np.sort(x)))


def dual_transform(lv: LambdaVars, model: CouplingModel) -> LambdaVars:
    """Eigenvalue-based variables of the dual state: a rigid shift by -2/g."""
    shift = 2 / model.g
    return LambdaVars(values=tuple(v - shift for v in lv.values))
