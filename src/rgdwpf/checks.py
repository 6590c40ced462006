"""Executable proof obligations for the determinant representation.

The determinant route is certified by three families of checks, mirroring
how one proves equality of rational functions with only simple poles:

* residue recursions: the residue of Z at a pole of its last rapidity
  must reproduce the partition function of a reduced system (first spin
  lowered by 1/2, or a spin-1/2 removed);
* vanishing at infinity: Z must vanish as its last rapidity grows, and
  the rapidity-independent limit matrix must be singular;
* the randomized identity sweep: permanent route == determinant route on
  seeded random instances, with exact rational equality in exact mode.

The first two rest on one exact certificate in the last rapidity x.  Every
entry of J is affine in 1/(x - e) for one inhomogeneity e and bounded as
x -> infinity, so P(x) = Z(x) B(x), with B(x) = prod_j (x - eps_j), has
degree <= N.  N + 1 exact samples fix P by Lagrange interpolation, and one
more must agree with it: that confirms the bound, so every pole of Z is
simple.  Z at infinity is the x^N coefficient of P (the sum of the
Lagrange weights), which must be 0; the residues are P(eps_j) / B'(eps_j).
The certificate is exact-only: float or complex input raises ``ValueError``.
"""

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod

from .errors import CardinalityMismatch
from .linalg import Scalar, determinant, is_exact, values_agree
from .partition import (
    SpinSystem,
    borchardt_check,
    boson_sum_determinant,
    build_J_limit,
    random_instance,
    random_rapidities,
    z_determinant,
    z_permanent,
)


@dataclass(frozen=True)
class CheckReport:
    """One verification instance; ``holds``: ``==`` in exact mode, 1e-9 relative in float mode."""

    check: str
    two_s: int
    n: int
    trial: int
    left: Scalar
    right: Scalar
    holds: bool
    mode: str
    detail: str = ""


def _pole_certificate(system: SpinSystem, nu_prefix: tuple) -> tuple:
    """(residues at every inhomogeneity, x^N coefficient of P, extra sample agrees).

    Samples P(x) = Z(prefix + (x,)) B(x) at the N + 1 nodes max(eps) + 1 + k
    and at max(eps) + N + 2: N + 2 exact ``z_determinant`` calls.
    """
    if len(nu_prefix) != system.omega - 1:
        raise CardinalityMismatch(
            f"need {system.omega - 1} prefix rapidities, got {len(nu_prefix)}")
    if not all(is_exact(v) for v in nu_prefix + system.epsilons):
        raise ValueError("pole certificates are exact-only: pass int or Fraction values")
    eps = system.epsilons
    top = max(eps)
    nodes = [top + 1 + k for k in range(system.n + 1)]

    def p(x):
        return z_determinant(system, nu_prefix + (x,)).value * prod(x - e for e in eps)

    # P at each node, divided by that node's Lagrange denominator
    weights = [p(x) / prod(x - y for y in nodes if y != x) for x in nodes]

    def interpolant(t):
        return sum(w * prod(t - y for y in nodes if y != x) for x, w in zip(nodes, weights))

    residues = [interpolant(e) / prod(e - f for f in eps if f != e) for e in eps]
    extra = top + system.n + 2
    return residues, sum(weights), interpolant(extra) == p(extra)


def _certificate_detail(top_coefficient, agrees: bool) -> str:
    return (f"x^N coefficient of Z*B = {top_coefficient}; "
            f"extra sample {'agrees' if agrees else 'disagrees'}")


def pole_residues(system: SpinSystem, nu_prefix) -> list:
    """Residues of Z at every inhomogeneity, as a function of one extra rapidity.

    R_j = P(eps_j) / B'(eps_j) from the pole certificate (module docstring).
    """
    return _pole_certificate(system, tuple(nu_prefix))[0]


def _residue_target(system: SpinSystem, nu_prefix, pole_spin: int):
    if pole_spin == 1:
        reduced = SpinSystem(two_s=system.two_s - 1, epsilons=system.epsilons)
        return system.two_s * z_determinant(reduced, nu_prefix).value
    eps = tuple(e for k, e in enumerate(system.epsilons, start=1) if k != pole_spin)
    reduced = SpinSystem(two_s=system.two_s, epsilons=eps)
    return z_determinant(reduced, nu_prefix).value


def _residue_reports(system: SpinSystem, nu_prefix, poles) -> list:
    """Residue checks at the given 1-based poles from one pole certificate."""
    if 1 in poles and system.two_s < 1:
        raise CardinalityMismatch("first spin must carry at least two_s = 1")
    if max(poles) > 1 and system.n < 3 and not (system.n == 2 and system.two_s == 1):
        raise CardinalityMismatch(
            "removing the spin would leave an unsupported single higher spin")
    nu_prefix = tuple(nu_prefix)
    residues, top_coefficient, agrees = _pole_certificate(system, nu_prefix)
    reports = []
    for j in poles:
        residue = residues[j - 1]
        target = _residue_target(system, nu_prefix, j)
        reports.append(CheckReport(
            check="residue_eps1" if j == 1 else "residue_epsj", two_s=system.two_s,
            n=system.n, trial=0 if j == 1 else j, left=residue, right=target,
            holds=residue == target and top_coefficient == 0 and agrees, mode="exact",
            detail=f"pole at spin {j}; {_certificate_detail(top_coefficient, agrees)}"))
    return reports


def check_residue_eps1(system: SpinSystem, nu_prefix) -> CheckReport:
    """Residue at the large-spin inhomogeneity vs the spin-lowered system.

    The exact partial-fraction residue must equal two_s times the
    partition function with the first spin lowered by 1/2, and the pole
    certificate must hold (x^N coefficient 0, extra sample agrees).
    """
    return _residue_reports(system, nu_prefix, [1])[0]


def check_residue_epsj(system: SpinSystem, nu_prefix, j: int) -> CheckReport:
    """Residue at a spin-1/2 inhomogeneity vs the system with that spin removed.

    Holds under the same pole certificate as :func:`check_residue_eps1`.
    """
    if not 2 <= j <= system.n:
        raise CardinalityMismatch(f"spin index {j} outside 2..{system.n}")
    return _residue_reports(system, nu_prefix, [j])[0]


def check_infinity_limit(system: SpinSystem, nu) -> CheckReport:
    """Z must vanish as its last rapidity grows; the limit matrix must be singular.

    Runs the pole certificate on ``nu[:-1]``: ``left`` is the x^N
    coefficient of P = Z B (Z at x = infinity), ``right`` is 0.  Holds iff
    it is 0, the extra sample agrees and ``build_J_limit`` is exactly
    singular.
    """
    _, top_coefficient, agrees = _pole_certificate(system, tuple(nu)[:-1])
    det_limit = determinant(build_J_limit(system))
    return CheckReport(check="infinity_limit", two_s=system.two_s, n=system.n, trial=0,
                       left=top_coefficient, right=Fraction(0),
                       holds=top_coefficient == 0 and agrees and det_limit == 0,
                       mode="exact",
                       detail=f"det of limit matrix = {det_limit}; "
                              f"{_certificate_detail(top_coefficient, agrees)}")


def identity_sweep(grid, trials: int = 20, seed: int = 0, mode: str = "exact") -> list:
    """Permanent route vs determinant route on seeded random instances.

    ``grid`` is a list of (two_s, n) pairs.  Reports are deterministic in
    the seed: rerunning with the same configuration is bit-identical.
    """
    if mode not in ("exact", "f64"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    reports = []
    for two_s, n in grid:
        for trial in range(trials):
            system, nu = random_instance(two_s, n, rng)
            if mode == "f64":
                system = SpinSystem(two_s=two_s,
                                    epsilons=tuple(float(e) for e in system.epsilons))
                nu = tuple(float(v) for v in nu)
            zp = z_permanent(system, nu).value
            zd = z_determinant(system, nu).value
            reports.append(CheckReport(
                check="identity", two_s=two_s, n=n, trial=trial,
                left=zp, right=zd, holds=values_agree(zp, zd, mode == "exact"),
                mode=mode))
    return reports


def residue_sweep(grid, trials: int = 5, seed: int = 0) -> list:
    """Exact residue checks at every admissible pole on random instances."""
    rng = random.Random(seed)
    reports = []
    for two_s, n in grid:
        for trial in range(trials):
            system, nu = random_instance(two_s, n, rng)
            poles = [1]
            if n >= 3 or (n == 2 and two_s == 1):
                poles += range(2, n + 1)
            reports += [replace(rep, trial=trial)
                        for rep in _residue_reports(system, nu[:-1], poles)]
    return reports


def limit_sweep(grid, trials: int = 5, seed: int = 0) -> list:
    """Exact infinity-limit checks (:func:`check_infinity_limit`) on random instances."""
    rng = random.Random(seed)
    reports = []
    for two_s, n in grid:
        for trial in range(trials):
            system, nu = random_instance(two_s, n, rng)
            rep = check_infinity_limit(system, nu)
            reports.append(replace(rep, trial=trial))
    return reports


def borchardt_sweep(sizes, trials: int = 20, seed: int = 0) -> list:
    """Cauchy determinant-permanent-square identity on random exact instances."""
    rng = random.Random(seed)
    reports = []
    for n in sizes:
        for trial in range(trials):
            system, nu = random_instance(1, n, rng)
            result = borchardt_check(nu, system.epsilons)
            reports.append(CheckReport(
                check="borchardt", two_s=1, n=n, trial=trial,
                left=result.det_c * result.perm_c, right=result.det_m,
                holds=result.holds, mode="exact"))
    return reports


def boson_sweep(shapes, trials: int = 10, seed: int = 0) -> list:
    """Subset-sum-of-permanents identity; shapes are (n, extra) pairs."""
    rng = random.Random(seed)
    reports = []
    for n, extra in shapes:
        for trial in range(trials):
            eps = tuple(Fraction(i) for i in range(n))
            nu = random_rapidities(n + extra, eps, rng)
            result = boson_sum_determinant(nu, eps)
            reports.append(CheckReport(
                check="boson", two_s=1, n=n, trial=trial,
                left=result.sum_of_permanents, right=result.det_j_tilde,
                holds=result.holds, mode="exact", detail=f"extra rapidities {extra}"))
    return reports
