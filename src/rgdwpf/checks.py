"""Executable proof obligations for the determinant representation.

The determinant route is certified by three families of checks, mirroring
how one proves equality of rational functions with only simple poles:

* residue recursions: the residue of Z at a pole of its last rapidity
  must reproduce the partition function of a reduced system (first spin
  lowered by 1/2, or a spin-1/2 removed);
* vanishing at infinity: scaling all rapidities up must drive |Z| to
  zero, and the rapidity-independent limit matrix must be singular;
* the randomized identity sweep: permanent route == determinant route on
  seeded random instances, with exact rational equality in exact mode.

Residues are extracted exactly by partial fractions: as a function of its
last rapidity, Z is a sum of simple poles at the inhomogeneities with no
polynomial part, so N exact samples determine all residues in closed form
(Lagrange interpolation of the numerator over the common denominator).  A
shrinking-offset probe independently confirms the first-order approach to
the same residue.
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

#: Exact probe offsets used inside the residue checks.
PROBE_OFFSETS = (Fraction(1, 7), Fraction(1, 11), Fraction(1, 13))
#: Rapidity scalings under which |Z| must decrease in the infinity-limit check.
LIMIT_SCALES = (10 ** 3, 10 ** 6)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification instance.

    ``holds`` means exact equality in exact mode and relative agreement
    below 1e-9 in float mode.
    """

    check: str
    two_s: int
    n: int
    trial: int
    left: Scalar
    right: Scalar
    holds: bool
    mode: str
    detail: str = ""


def _mode_of(values) -> str:
    return "exact" if all(is_exact(v) for v in values) else "f64"


def pole_residues(system: SpinSystem, nu_prefix) -> list:
    """Residues of Z at every inhomogeneity, as a function of one extra rapidity.

    With the prefix rapidities held fixed, x -> Z(prefix + [x]) equals
    sum_j R_j / (x - eps_j), so Z(x) B(x) = P(x) with B = prod_j (x - eps_j)
    and deg P < N.  Sampling Z at N points beyond the largest
    inhomogeneity fixes P by Lagrange interpolation, and
    R_j = P(eps_j) / B'(eps_j): exact in exact mode, with no elimination.
    """
    nu_prefix = tuple(nu_prefix)
    if len(nu_prefix) != system.omega - 1:
        raise CardinalityMismatch(
            f"need {system.omega - 1} prefix rapidities, got {len(nu_prefix)}")
    eps = system.epsilons
    top = max(eps)
    xs = [top + 1 + k for k in range(system.n)]
    # P at each node, divided by that node's Lagrange denominator
    weights = [z_determinant(system, nu_prefix + (x,)).value * prod(x - e for e in eps)
               / prod(x - y for y in xs if y != x) for x in xs]
    residues = []
    for e in eps:
        p_at_e = sum(w * prod(e - y for y in xs if y != x) for x, w in zip(xs, weights))
        residues.append(p_at_e / prod(e - f for f in eps if f != e))
    return residues


def _residue_target(system: SpinSystem, nu_prefix, pole_spin: int):
    if pole_spin == 1:
        reduced = SpinSystem(two_s=system.two_s - 1, epsilons=system.epsilons)
        return system.two_s * z_determinant(reduced, nu_prefix).value
    eps = tuple(e for k, e in enumerate(system.epsilons, start=1) if k != pole_spin)
    reduced = SpinSystem(two_s=system.two_s, epsilons=eps)
    return z_determinant(reduced, nu_prefix).value


def residue_probe_gaps(system: SpinSystem, nu_prefix, pole_spin: int = 1,
                       offsets=PROBE_OFFSETS) -> list:
    """|t * Z(..., eps_j + t) - residue target| for each probe offset t.

    For a simple pole these gaps shrink proportionally to t.
    """
    nu_prefix = tuple(nu_prefix)
    return _probe_gaps(system, nu_prefix, pole_spin,
                       _residue_target(system, nu_prefix, pole_spin), offsets)


def _probe_gaps(system: SpinSystem, nu_prefix: tuple, pole_spin: int, target, offsets) -> list:
    pole = system.epsilons[pole_spin - 1]
    return [abs(t * z_determinant(system, nu_prefix + (pole + t,)).value - target)
            for t in offsets]


def _residue_reports(system: SpinSystem, nu_prefix, poles) -> list:
    """Residue checks at the given 1-based poles from one partial-fraction solve."""
    if 1 in poles and system.two_s < 1:
        raise CardinalityMismatch("first spin must carry at least two_s = 1")
    if max(poles) > 1 and system.n < 3 and not (system.n == 2 and system.two_s == 1):
        raise CardinalityMismatch(
            "removing the spin would leave an unsupported single higher spin")
    nu_prefix = tuple(nu_prefix)
    residues = pole_residues(system, nu_prefix)
    mode = _mode_of(nu_prefix + system.epsilons)
    reports = []
    for j in poles:
        residue = residues[j - 1]
        target = _residue_target(system, nu_prefix, j)
        holds = values_agree(residue, target, mode == "exact")
        if j == 1:
            gaps = _probe_gaps(system, nu_prefix, 1, target, PROBE_OFFSETS)
            # net decrease over the probe range, not stepwise: the subleading
            # correction can cross zero between two fixed offsets, dipping the
            # middle gap below the last one even though the residue is exact
            approaching = gaps[-1] < gaps[0]
            reports.append(CheckReport(
                check="residue_eps1", two_s=system.two_s, n=system.n, trial=0,
                left=residue, right=target, holds=holds and approaching, mode=mode,
                detail=f"probe gaps {[float(g) for g in gaps]}"))
        else:
            reports.append(CheckReport(
                check="residue_epsj", two_s=system.two_s, n=system.n, trial=j,
                left=residue, right=target, holds=holds, mode=mode,
                detail=f"pole at spin {j}"))
    return reports


def check_residue_eps1(system: SpinSystem, nu_prefix) -> CheckReport:
    """Residue at the large-spin inhomogeneity vs the spin-lowered system.

    The exact partial-fraction residue must equal two_s times the
    partition function with the first spin lowered by 1/2 and the probe
    gaps must shrink as the offset does.
    """
    return _residue_reports(system, nu_prefix, [1])[0]


def check_residue_epsj(system: SpinSystem, nu_prefix, j: int) -> CheckReport:
    """Residue at a spin-1/2 inhomogeneity vs the system with that spin removed.

    Decided by the exact partial-fraction residue alone: an interior pole
    has close neighbours on both sides, so coarse one-sided probes are not
    reliably monotone there (use :func:`residue_probe_gaps` for
    diagnostics).
    """
    if not 2 <= j <= system.n:
        raise CardinalityMismatch(f"spin index {j} outside 2..{system.n}")
    return _residue_reports(system, nu_prefix, [j])[0]


def check_infinity_limit(system: SpinSystem, nu) -> CheckReport:
    """|Z| must decrease under rapidity scaling and the limit matrix must be singular."""
    nu = tuple(nu)
    mode = _mode_of(nu + system.epsilons)
    magnitudes = [abs(z_determinant(system, tuple(v * t for v in nu)).value)
                  for t in LIMIT_SCALES]
    decreasing = all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
    det_limit = determinant(build_J_limit(system))
    limit_zero = det_limit == 0 if mode == "exact" else abs(det_limit) < 1e-9
    return CheckReport(check="infinity_limit", two_s=system.two_s, n=system.n, trial=0,
                       left=magnitudes[0], right=magnitudes[-1],
                       holds=decreasing and limit_zero, mode=mode,
                       detail=f"det of limit matrix = {det_limit}")


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
