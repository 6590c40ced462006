"""Domain-wall boundary partition functions and their determinant form.

A system here is one spin of length S = two_s/2 sitting at the first
inhomogeneity plus N-1 spins 1/2, traversed by Omega = two_s + N - 1
rapidities.  The partition function Z is computed along two independent
routes:

* the permanent route: the permanent of the Omega x Omega Cauchy-type
  matrix whose column 1/(nu - eps_1) repeats two_s times, i.e. the
  defining sum over all ways of attaching two_s rapidities to the first
  inhomogeneity and bijecting the rest onto the others; (two_s + 1) *
  2^(N-2) products of Omega row sums, under the work guard of ``linalg.permanent``;
* the determinant route: an N x N matrix contracted from structure
  coefficients (multiset sums over the inhomogeneities) and the
  eigenvalue-based variables L(eps_j) = sum_i 1/(eps_j - nu_i), j >= 2,
  with, at the large spin, e_0..e_two_s of y_i = 1/(eps_1 - nu_i)
  (e_1 = L(eps_1); ``gamma``: one product truncated at t^two_s).
  ``build_J_higher`` takes these values from any source and builds J's rows
  as ints over one denominator each, rows 2..N from the constant rows c0;
  polynomial in N (c11 still enumerates multisets, exponential in two_s).

Exact mode makes "the two routes agree" a plain ``==`` on canonical
rationals.  Every builder reads a float as its exact dyadic value, so a
float result is exact at the given inputs and rounded once, except on
the permanent route, the only one taking complex inputs.  Borchardt's
identity and the sum-of-permanents determinant of bosonic realizations
(pure spin 1/2) live here as well.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, lcm

from .errors import CardinalityMismatch, DegenerateEpsilons
from .gamma import _check_no_poles, build_gamma_table
from .linalg import (
    Scalar,
    SquareMatrix,
    _cleared,
    _inverse_gap_row,
    _inverse_gap_sum,
    _inverse_gaps,
    _lowest_terms,
    canonical,
    determinant,
    dyadic,
    is_exact,
    permanent,
    rounded,
)


@dataclass(frozen=True)
class SpinSystem:
    """One spin of length two_s/2 at ``epsilons[0]`` plus spins 1/2 at the rest."""

    two_s: int
    epsilons: tuple

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(canonical(e) for e in self.epsilons))
        if isinstance(self.two_s, bool) or not isinstance(self.two_s, int) or self.two_s < 0:
            raise ValueError("two_s must be an integer >= 0")
        if len(set(self.epsilons)) != len(self.epsilons):
            raise DegenerateEpsilons("inhomogeneities must be pairwise distinct")
        if self.n < 1:
            raise CardinalityMismatch("at least one spin required")
        if self.two_s >= 2 and self.n < 2:
            raise CardinalityMismatch(
                "a single spin with two_s >= 2 is outside the supported family")
        if self.omega < 1:
            raise CardinalityMismatch("system carries no excitations")

    @property
    def n(self) -> int:
        return len(self.epsilons)

    @property
    def omega(self) -> int:
        return self.two_s + self.n - 1


@dataclass(frozen=True)
class PartitionValue:
    """Partition-function value together with the route that produced it."""

    value: Scalar
    method: str
    system: SpinSystem
    rapidities: tuple


@dataclass(frozen=True)
class StructureCoefficients:
    """Rapidity-independent coefficients of the N x N determinant matrix.

    ``c11[n]`` multiplies (-1)^n e_n, e_n the n-th elementary symmetric
    polynomial of 1/(eps_1 - nu_i), in the (1,1) entry; it is the multiset
    sum h_{two_s-n}(x), the complete homogeneous symmetric polynomial of
    x_k = 1/(eps_1 - eps_k), k >= 2.  ``c1j[j][n]`` (spin index j = 2..N)
    multiplies it in the (1,j) entry and carries the sign prefactor
    1/(eps_j - eps_1), i.e. it is the negative of the bare multiset sum,
    matching the convention of the worked spin-3/2 listing.  The sum over
    the multisets without x_j is h(x) with the factor 1/(1 - x_j t) divided
    out (Macdonald, Symmetric Functions and Hall Polynomials, I.2), so
    ``c1j[j][n]`` = b_{two_s-n} with b_0 = 0 and
    b_r = (h_{r-1}(x) - b_{r-1})/(eps_j - eps_1): O(two_s) per column.
    ``c0_rows[i - 2]`` = (w, d), row i's constant part over one denominator, is w_j / d =
    1/(eps_j - eps_i) off the diagonal and -(two_s w_1 + sum_{k != 1, i} w_k) / d on it, next
    to ``c1_diag`` (always 1) times -L(eps_i); ``c0_diag``/``c0_off`` read it as Fractions.
    """

    c11: tuple
    c1j: dict
    c0_rows: tuple
    c1_diag: int = 1

    @property
    def c0_diag(self) -> dict:
        return {i: Fraction(r[i - 1], d) for i, (r, d) in enumerate(self.c0_rows, start=2)}

    @property
    def c0_off(self) -> dict:
        return {(i, j): Fraction(x, d) for i, (r, d) in enumerate(self.c0_rows, start=2)
                for j, x in enumerate(r, start=1) if j != i}


def multisets_with_repetition(items, m: int):
    """Size-m multisets from ``items`` as nondecreasing-index tuples."""
    return combinations_with_replacement(tuple(items), m)


def cauchy_matrix(nu, eps) -> SquareMatrix:
    """Matrix with entries 1/(nu_i - eps_j), exact at the inputs' dyadic values."""
    nu, eps = tuple(map(dyadic, nu)), tuple(map(dyadic, eps))
    if len(nu) != len(eps):
        raise CardinalityMismatch(f"{len(nu)} rapidities vs {len(eps)} inhomogeneities")
    _check_no_poles(nu, eps)
    return SquareMatrix(zip(*(_inverse_gaps(nu, e) for e in eps)))


def z_permanent(system: SpinSystem, nu) -> PartitionValue:
    """Partition function as the permanent whose row v is 1/(v - eps_k), k >= 1.

    The column of eps_1 repeats two_s times, so this is the defining sum over
    attachments of two_s rapidities to eps_1; its cost is (two_s + 1) *
    2^(N-2) products of Omega row sums, guarded by :func:`linalg.permanent`.
    """
    nu = tuple(canonical(v) for v in nu)
    if len(nu) != system.omega:
        raise CardinalityMismatch(
            f"need {system.omega} rapidities for this system, got {len(nu)}")
    eps = system.epsilons
    _check_no_poles(nu, eps)
    columns = [_inverse_gaps(nu, e) for e in eps]
    rows = zip(*columns[:1] * system.two_s, *columns[1:])
    return PartitionValue(value=permanent(SquareMatrix(rows)), method="permanent",
                          system=system, rapidities=nu)


def _inv_prod(eps1, multiset):
    term = 1
    for e in multiset:
        term /= eps1 - e
    return term


def structure_coefficients(system: SpinSystem) -> StructureCoefficients:
    """Multiset sums over the spin-1/2 inhomogeneities entering the determinant, exact."""
    eps = tuple(map(dyadic, system.epsilons))
    two_s = system.two_s
    n = system.n
    e1 = eps[0]
    ground = eps[1:]

    c11 = tuple(
        sum(_inv_prod(e1, ms) for ms in multisets_with_repetition(ground, two_s - k))
        for k in range(two_s + 1)
    )

    c1j = {}
    for j, y in enumerate(_inverse_gaps(ground, e1), start=2):
        b = [0]
        for h in c11[:0:-1]:  # h_0(x), ..., h_{two_s-1}(x)
            b.append(y * (h - b[-1]))
        c1j[j] = tuple(b[:0:-1])

    c0_rows = []
    for i in range(2, n + 1):
        w, d = _inverse_gap_row(eps[:i - 1] + eps[i:], eps[i - 1])  # 1/(eps_j - eps_i) = w_j / d
        c0_rows.append(_lowest_terms(w[:i - 1] + [-sum(w) - (two_s - 1) * w[0]] + w[i - 1:], d))

    return StructureCoefficients(c11=c11, c1j=c1j, c0_rows=tuple(c0_rows))


def build_J_spin_half(eps, nu) -> SquareMatrix:
    """N x N determinant matrix for a pure spin-1/2 system with M >= N rapidities.

    :func:`build_J_higher` at two_s = 1 on tower (1, L(eps_1)) and lambdas
    L(eps_2..N), L taken over all M rapidities; exact at the inputs' dyadic
    values.  Its determinant is the sum of the Cauchy permanents over all
    N-subsets of the rapidities: for M = N, the permanent of the Cauchy
    matrix.
    """
    eps, nu = tuple(map(dyadic, eps)), tuple(map(dyadic, nu))
    if len(nu) < len(eps):
        raise CardinalityMismatch(f"{len(nu)} rapidities vs {len(eps)} inhomogeneities")
    system = SpinSystem(1, eps)
    _check_no_poles(nu, eps)
    lambdas = [_inverse_gap_sum(e, nu) for e in eps]
    return build_J_higher(system, (1, lambdas[0]), lambdas[1:])


def build_J_higher(system: SpinSystem, tower, lambdas) -> SquareMatrix:
    """N x N determinant matrix for one higher spin plus N-1 spins 1/2.

    ``tower`` = (e_0, ..., e_2S), the elementary symmetric polynomials of
    y_i = 1/(eps_1 - nu_i) (e_0 = 1, e_1 = L(eps_1)), and ``lambdas`` =
    (L(eps_2), ..., L(eps_N)), L(z) = sum_i 1/(z - nu_i).  Row 1 contracts
    the structure coefficients against (-1)^k e_k; row i is ``c0_rows[i - 2]``
    less c1_diag L(eps_i) on the diagonal, as ints over one denominator
    (:meth:`SquareMatrix.from_rows`).  Exact: floats are read as their dyadic
    values.  Wrong lengths raise :class:`CardinalityMismatch`.
    """
    tower, lambdas = tuple(map(dyadic, tower)), tuple(map(dyadic, lambdas))
    n = system.n
    two_s = system.two_s
    if len(tower) != two_s + 1 or len(lambdas) != n - 1:
        raise CardinalityMismatch(
            f"need {two_s + 1} tower values and {n - 1} lambdas for this system, "
            f"got {len(tower)} and {len(lambdas)}")
    fact = factorial(two_s)
    coeffs = structure_coefficients(system)
    signed = tuple(-e if k % 2 else e for k, e in enumerate(tower))

    rows = [_cleared([fact * sum(coeffs.c11[k] * signed[k] for k in range(two_s + 1))]
                     + [fact * sum(coeffs.c1j[j][k] * signed[k] for k in range(two_s))
                        for j in range(2, n + 1)])]
    for i, ((c0, d), lam) in enumerate(zip(coeffs.c0_rows, lambdas), start=1):
        p, q = lam.as_integer_ratio()
        e = lcm(d, q)  # row i + 1 over e: its constant row, then -c1_diag L on the diagonal
        row = [x * (e // d) for x in c0]
        row[i] -= coeffs.c1_diag * p * (e // q)
        rows.append((row, e))
    return SquareMatrix.from_rows(rows)


def build_J_limit(system: SpinSystem) -> SquareMatrix:
    """Rapidity-independent limit of the determinant matrix (all rapidities large).

    As every rapidity grows, e_0 stays 1 while every e_k (k >= 1) and every
    L(eps_j) tend to 0, so this is :func:`build_J_higher` at tower
    (1, 0, ..., 0) and L = 0.  Its determinant vanishes identically, which
    is what forces the partition function to zero in the limit.
    """
    return build_J_higher(system, (1,) + (0,) * system.two_s, (0,) * (system.n - 1))


def z_determinant(system: SpinSystem, nu) -> PartitionValue:
    """Partition function via the N x N determinant; polynomial in N.

    Evaluates the tower and the L values of the rapidities, assembles the
    matrix and evaluates its exact determinant; float inputs give Z
    correctly rounded.  No size guard: this is the route that stays cheap
    when the permanent is out of reach.
    """
    nu = tuple(nu)
    exact = all(map(is_exact, system.epsilons + nu))
    z = determinant(build_J_higher(system, *build_gamma_table(system, nu)))
    return PartitionValue(value=z if exact else rounded(z), method="determinant",
                          system=system, rapidities=nu)


@dataclass(frozen=True)
class BorchardtResult:
    det_c: Scalar
    perm_c: Scalar
    det_m: Scalar
    holds: bool


def borchardt_check(nu, eps) -> BorchardtResult:
    """Check det(C) * perm(C) == det(M) exactly, M the entrywise square of C."""
    nu, eps = tuple(nu), tuple(eps)
    c = cauchy_matrix(nu, eps)
    m = SquareMatrix([[x * x for x in row] for row in c.entries])
    det_c, perm_c, det_m = determinant(c), permanent(c), determinant(m)
    holds = det_c * perm_c == det_m
    if not all(map(is_exact, nu + eps)):
        det_c, perm_c, det_m = map(rounded, (det_c, perm_c, det_m))
    return BorchardtResult(det_c, perm_c, det_m, holds)


@dataclass(frozen=True)
class BosonSumResult:
    sum_of_permanents: Scalar
    det_j_tilde: Scalar
    holds: bool


def boson_sum_determinant(nu, eps) -> BosonSumResult:
    """Sum of Cauchy permanents over all N-subsets of an oversized rapidity set.

    The sum is perm([C | 1]) / (M-N)! for the M x N Cauchy matrix C padded
    by M - N columns of ones.  The right-hand side is the determinant of
    :func:`build_J_spin_half` on the whole rapidity set; decided exactly.
    """
    nu, eps = tuple(nu), tuple(eps)
    exact = all(map(is_exact, nu + eps))
    nu, eps = tuple(map(dyadic, nu)), tuple(map(dyadic, eps))
    j_tilde = build_J_spin_half(eps, nu)  # refuses a short, degenerate or pole input first
    extra, cauchy = len(nu) - len(eps), [[1 / (v - e) for e in eps] for v in nu]
    lhs = permanent(SquareMatrix([r + [1] * extra for r in cauchy])) / factorial(extra)
    rhs = determinant(j_tilde)
    holds = lhs == rhs
    if not exact:
        lhs, rhs = rounded(lhs), rounded(rhs)
    return BosonSumResult(sum_of_permanents=lhs, det_j_tilde=rhs, holds=holds)


def random_rapidities(count: int, eps, rng) -> tuple:
    """``count`` random rationals p/q with p in [-999, 999] and q in [1, 64].

    A draw that lands on an inhomogeneity in ``eps`` is redrawn; repeats
    among the rapidities themselves are kept.
    """
    nu = []
    while len(nu) < count:
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 64))
        if x not in eps:
            nu.append(x)
    return tuple(nu)


def random_instance(two_s: int, n: int, rng) -> tuple[SpinSystem, tuple]:
    """Well-separated random exact instance for identity sweeps.

    Inhomogeneities are the integers 0..n-1; rapidities come from
    :func:`random_rapidities`.  Exactly representable, so exact and float
    runs see the same instance.
    """
    eps = tuple(Fraction(i) for i in range(n))
    system = SpinSystem(two_s=two_s, epsilons=eps)
    return system, random_rapidities(system.omega, eps, rng)
