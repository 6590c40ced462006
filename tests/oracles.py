"""Independent reference implementations used only by the tests.

Everything here is written for clarity, not speed, and deliberately
avoids the code paths it is used to check: permanents by literal
permutation sums, the partition function by its defining attachment sum,
determinants by cofactor expansion and by fraction-free (Bareiss)
elimination on big integers, the hierarchy by exact polynomial
differentiation of the rapidity polynomial, by the Leibniz recursion on
the derivative tower of L = Q'/Q and by the explicit partition sum over
exponent vectors.  The hierarchy oracles take the tower as a plain tuple
and share no code with ``rgdwpf.gamma``; nothing is imported from it.
The residue probe samples
``z_determinant`` next to a pole: it checks the order of the pole, not
the determinant.
The assembly of the determinant matrix is summed term by term, one
``Fraction`` operation per inverse gap and per term, as the reference for
the package's common-denominator sums, and its rows over one denominator are
cleared entry by entry with ``Fraction`` products.  The structure coefficients are
enumerated multiset by multiset, column by column, and the complete
homogeneous polynomials come from products of truncated geometric series.
The Bethe states are checked against exact diagonalization of the pairing
Hamiltonian, followed in the coupling from its g = 0 product state, and
each Bethe answer against both sides of the solver's acceptance rule,
summed term by term in explicit loops.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial, lcm

import numpy as np
import pytest

from rgdwpf.errors import ComplexInput
from rgdwpf.linalg import SquareMatrix
from rgdwpf.partition import (
    SpinSystem,
    StructureCoefficients,
    random_rapidities,
    z_determinant,
)


def perm_by_permutation_sum(rows):
    """Permanent as the literal sum over all permutations."""
    n = len(rows)
    total = Fraction(0) if isinstance(rows[0][0], (int, Fraction)) else 0.0
    for sigma in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= rows[i][sigma[i]]
        total += prod
    return total


def z_by_attachment_sum(two_s, eps, nu):
    """Partition function as the defining sum over rapidity attachments.

    Sums (2S)! / prod(A - eps_1) over all two_s-subsets A of the
    rapidities, times the permanent of the Cauchy matrix pairing the
    remaining rapidities with the spin-1/2 inhomogeneities.
    """
    total = 0
    for chosen in combinations(range(len(nu)), two_s):
        weight = factorial(two_s)
        for i in chosen:
            weight /= nu[i] - eps[0]
        rest = [v for i, v in enumerate(nu) if i not in chosen]
        cauchy = [[1 / (v - e) for e in eps[1:]] for v in rest]
        total += weight * (perm_by_permutation_sum(cauchy) if rest else 1)
    return total


def det_by_cofactors(rows):
    """Determinant by recursive expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_by_cofactors(minor)
    return total


def det_by_bareiss(rows):
    """Determinant by fraction-free (Bareiss) elimination on the integer matrix.

    Each row is first cleared to integers by the lcm of its denominators;
    every division in the elimination is exact.
    """
    ints, scale = [], 1
    for row in rows:
        row = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in row))
        ints.append([int(x * mult) for x in row])
        scale *= mult
    n = len(ints)
    sign, prev = 1, 1
    for k in range(n - 1):
        if ints[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if ints[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            ints[k], ints[swap] = ints[swap], ints[k]
            sign = -sign
        pivot = ints[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                ints[i][j] = (ints[i][j] * pivot - ints[i][k] * ints[k][j]) // prev
        prev = pivot
    return Fraction(sign * ints[n - 1][n - 1], scale)


class Poly:
    """Dense exact polynomial; coefficients ascending in the degree."""

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def from_roots(cls, roots):
        p = cls([1])
        for r in roots:
            p = p * cls([-Fraction(r), 1])
        return p

    def __mul__(self, other):
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __sub__(self, other):
        size = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * size
        for i, a in enumerate(self.coeffs):
            out[i] += a
        for i, b in enumerate(other.coeffs):
            out[i] -= b
        return Poly(out)

    def derivative(self):
        if len(self.coeffs) == 1:
            return Poly([0])
        return Poly([(i + 1) * c for i, c in enumerate(self.coeffs[1:])])

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def hierarchy_by_polynomials(nu, z, n_max):
    """(-Q^(n)(z) / Q(z) for n = 0..n_max), Q the monic polynomial with roots at the rapidities."""
    q = Poly.from_roots(nu)
    p, q_z, values = q, q(z), []
    for _ in range(n_max + 1):
        values.append(-p(z) / q_z)
        p = p.derivative()
    return tuple(values)


def gamma_by_polynomials(nu, z, n):
    """-Q^(n)(z) / Q(z) with Q the monic polynomial with roots at the rapidities."""
    return hierarchy_by_polynomials(nu, z, n)[n]


def lambda_derivs_by_quotient_rule(nu, z, n_max):
    """Derivatives of Q'/Q tracked as exact (numerator, denominator) pairs."""
    q = Poly.from_roots(nu)
    num, den = q.derivative(), q
    values = []
    for _ in range(n_max + 1):
        values.append(num(z) / den(z))
        num, den = num.derivative() * den - num * den.derivative(), den * den
    return values


def _partition_vectors(n: int):
    """All k = (k_0, ..., k_{n-1}) with sum (a+1)*k_a = n.

    Generated with the highest-order slot varying slowest, i.e. in
    lexicographic order of (k_{n-1}, ..., k_0).
    """
    def rec(a, remaining):
        if a < 0:
            if remaining == 0:
                yield ()
            return
        step = a + 1
        for ka in range(remaining // step + 1):
            for tail in rec(a - 1, remaining - step * ka):
                yield tail + (ka,)

    yield from rec(n - 1, n)


def gamma_partition_coefficient(k, n: int) -> int:
    """Weight of the tower monomial with exponents k in G_n.

    Returns n! / prod_a ((a+1)!)^k_a * k_a! when sum (a+1)*k_a = n, else 0.
    Counts the set partitions of n items into k_a blocks of size a+1.
    """
    if any(ka < 0 for ka in k):
        return 0
    if sum((a + 1) * ka for a, ka in enumerate(k)) != n:
        return 0
    denom = 1
    for a, ka in enumerate(k):
        if ka:
            denom *= factorial(a + 1) ** ka * factorial(ka)
    quotient, rem = divmod(factorial(n), denom)
    assert rem == 0
    return quotient


def gamma_by_leibniz(tower, n_max):
    """(G_0, ..., G_{n_max}) by the Leibniz recursion on the tower (L, L', ..., L^(n_max - 1)).

    Q' = L Q gives Q^(n) = sum_{j<n} C(n-1, j) L^(j) Q^(n-1-j), so
    G_n = sum_{j<n} C(n-1, j) L^(j) G_{n-1-j} with G_0 = -1.
    """
    gammas = [-1]
    for n in range(1, n_max + 1):
        gammas.append(sum(comb(n - 1, j) * tower[j] * gammas[n - 1 - j] for j in range(n)))
    return tuple(gammas)


def gamma_explicit(tower, n: int):
    """G_n from the explicit partition sum over exponent vectors on the tower (L, L', ...).

    G_n = - sum_k C[n, k] * prod_a (L^(a))^k_a; the global minus makes the
    n = 1 term equal G_1 = -L, matching the defining quotient -Q^(n)/Q.
    """
    total = 0
    for k in _partition_vectors(n):
        term = gamma_partition_coefficient(k, n)
        for a, ka in enumerate(k):
            if ka:
                term *= tower[a] ** ka
        total += term
    return -total


def residue_probe_gaps(system, nu_prefix, offsets):
    """|t * Z(prefix + (eps_1 + t,)) - 2S * Z_lowered(prefix)| for each probe offset t.

    The gaps shrink in proportion to t at a simple pole at eps_1 whose
    residue is 2S times Z of the system with the first spin lowered by 1/2.
    """
    nu_prefix = tuple(nu_prefix)
    target = system.two_s * z_determinant(SpinSystem(system.two_s - 1, system.epsilons),
                                          nu_prefix).value
    return [abs(t * z_determinant(system, nu_prefix + (system.epsilons[0] + t,)).value - target)
            for t in offsets]


def rand_fraction(rng, lo=-999, hi=999, qmax=64):
    return Fraction(rng.randint(lo, hi), rng.randint(1, qmax))


def rand_distinct_fractions(rng, count, avoid=()):
    avoid = set(avoid)
    out = []
    while len(out) < count:
        x = rand_fraction(rng)
        if x not in avoid:
            avoid.add(x)
            out.append(x)
    return out


def spin_three_half_worked_coefficients(e1, e2, e3):
    """The worked three-spin coefficient listing for two_s = 3, transcribed literally.

    Returns the same containers as ``structure_coefficients`` for a system
    with the large spin at e1 and spins 1/2 at e2, e3; the third-column
    entries follow by exchanging the roles of e2 and e3.
    """
    d2, d3 = e1 - e2, e1 - e3
    c11 = (
        1 / d2 ** 3 + 1 / d3 ** 3 + 1 / (d2 ** 2 * d3) + 1 / (d2 * d3 ** 2),
        1 / d2 ** 2 + 1 / d3 ** 2 + 1 / (d2 * d3),
        1 / d2 + 1 / d3,
        Fraction(1),
    )
    c12 = (
        1 / (e2 - e1) * (3 / d2 ** 2 + 1 / d3 ** 2 + 2 / (d2 * d3)),
        1 / (e2 - e1) * (2 / d2 + 1 / d3),
        1 / (e2 - e1) * Fraction(1),
    )
    c13 = (
        1 / (e3 - e1) * (3 / d3 ** 2 + 1 / d2 ** 2 + 2 / (d3 * d2)),
        1 / (e3 - e1) * (2 / d3 + 1 / d2),
        1 / (e3 - e1) * Fraction(1),
    )
    c0_diag = {2: 3 / (e2 - e1) + 1 / (e2 - e3),
               3: 3 / (e3 - e1) + 1 / (e3 - e2)}
    c0_off = {(2, 1): 1 / (e1 - e2), (2, 3): 1 / (e3 - e2),
              (3, 1): 1 / (e1 - e3), (3, 2): 1 / (e2 - e3)}
    return {"c11": c11, "c1j": {2: c12, 3: c13},
            "c0_diag": c0_diag, "c1_diag": 1, "c0_off": c0_off}


# The determinant route's assembly summed term by term, one normalising
# Fraction operation per term.  The package reads a float input as its
# exact Fraction, so these are its reference on exact inputs only.

def lambda_derivatives_by_fraction_sums(nu, z, n_max):
    """(L(z), L'(z), ..., L^(n_max)(z)), each sum of powers of 1/(z - v) added term by term."""
    inv = [1 / (z - v) for v in nu]
    powers = list(inv)
    values = []
    for a in range(n_max + 1):
        s = sum(powers)
        values.append((-1) ** a * factorial(a) * s)
        if a < n_max:
            powers = [p * q for p, q in zip(powers, inv)]
    return tuple(values)


def gamma_table_by_fraction_sums(system, nu):
    """(tower, lambdas) as ``build_gamma_table`` returns them, from term-by-term sums.

    tower[k] = e_k = -G_k / k! with G from the Leibniz recursion on the
    derivative tower of L at eps_1; lambdas[j - 2] = L(eps_j) for j >= 2.
    """
    eps = system.epsilons
    two_s = system.two_s
    gammas = gamma_by_leibniz(
        lambda_derivatives_by_fraction_sums(nu, eps[0], max(two_s - 1, 0)), two_s)
    tower = tuple(Fraction(-g, factorial(k)) for k, g in enumerate(gammas))
    lambdas = tuple(sum(1 / (e - v) for v in nu) for e in eps[1:])
    return tower, lambdas


def _inv_prod(eps1, multiset):
    term = 1
    for e in multiset:
        term /= eps1 - e
    return term


def complete_homogeneous(xs, r_max):
    """(h_0(xs), ..., h_r_max(xs)) as the coefficients of prod_x 1/(1 - x t) truncated at t^r_max.

    Each factor is the geometric series 1 + x t + x^2 t^2 + ...; no multiset
    is enumerated.
    """
    series = [Fraction(1)] + [Fraction(0)] * r_max
    for x in xs:
        geometric = [x ** i for i in range(r_max + 1)]
        series = [sum(series[i] * geometric[r - i] for i in range(r + 1)) for r in range(r_max + 1)]
    return tuple(series)


def structure_coefficients_by_fraction_sums(system):
    eps = system.epsilons
    two_s = system.two_s
    n = system.n
    e1 = eps[0]
    ground = eps[1:]

    c11 = tuple(
        sum(_inv_prod(e1, ms) for ms in combinations_with_replacement(ground, two_s - k))
        for k in range(two_s + 1)
    )

    c1j = {}
    for j in range(2, n + 1):
        ej = eps[j - 1]
        ground_j = tuple(e for e in ground if e != ej)
        col = []
        for k in range(two_s):
            acc = 0
            for p in range(k, two_s):
                weight = (two_s - p) / (e1 - ej) ** (two_s - p)
                for ms in combinations_with_replacement(ground_j, p - k):
                    acc += weight * _inv_prod(e1, ms)
            col.append(-acc)
        c1j[j] = tuple(col)

    c0_diag, c0_off = c0_by_fraction_sums(system)
    c0_rows = tuple(row_over_lcm([c0_diag[i] if j == i else c0_off[(i, j)]
                                  for j in range(1, n + 1)])
                    for i in range(2, n + 1))
    return StructureCoefficients(c11=c11, c1j=c1j, c0_rows=c0_rows)


def c0_by_fraction_sums(system):
    """(c0_diag, c0_off): the constant parts of rows 2..N, one ``Fraction`` per inverse gap."""
    eps, n = system.epsilons, system.n
    c0_diag = {}
    c0_off = {}
    for i in range(2, n + 1):
        ei = eps[i - 1]
        c0_diag[i] = system.two_s / (ei - eps[0]) + sum(
            1 / (ei - eps[k - 1]) for k in range(2, n + 1) if k != i)
        for j in range(1, n + 1):
            if j != i:
                c0_off[(i, j)] = 1 / (eps[j - 1] - ei)
    return c0_diag, c0_off


def row_over_lcm(row):
    """(numerators, d): the rationals of ``row`` as integers over d, the lcm of their denominators.

    Cleared one entry at a time by ``Fraction`` products, for the package's
    rows over one denominator.
    """
    d = 1
    for x in row:
        d = lcm(d, Fraction(x).denominator)
    numerators = tuple(Fraction(x) * d for x in row)
    assert all(x.denominator == 1 for x in numerators)
    return tuple(x.numerator for x in numerators), d


def j_spin_half_by_fraction_sums(eps, nu):
    n = len(eps)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                diag = sum(1 / (eps[i] - eps[k]) for k in range(n) if k != i)
                diag -= sum(1 / (eps[i] - v) for v in nu)
                row.append(diag)
            else:
                row.append(1 / (eps[j] - eps[i]))
        rows.append(row)
    return SquareMatrix(rows)


def j_higher_by_fraction_sums(system, nu):
    """The (2S, N) determinant matrix from the term-by-term sums above."""
    tower, lambdas = gamma_table_by_fraction_sums(system, nu)
    coeffs = structure_coefficients_by_fraction_sums(system)
    c0_diag, c0_off = c0_by_fraction_sums(system)
    n = system.n
    two_s = system.two_s
    fact = factorial(two_s)
    signed = [(-1) ** k * e for k, e in enumerate(tower)]
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = fact * sum(coeffs.c11[k] * signed[k] for k in range(two_s + 1))
    for j in range(2, n + 1):
        rows[0][j - 1] = fact * sum(coeffs.c1j[j][k] * signed[k] for k in range(two_s))
    for i in range(2, n + 1):
        rows[i - 1][i - 1] = c0_diag[i] - lambdas[i - 2]
        for j in range(1, n + 1):
            if j != i:
                rows[i - 1][j - 1] = c0_off[(i, j)]
    return SquareMatrix(rows)


#: (2S, N) shapes on which the assembly is checked against the sums above.
ASSEMBLY_GRID = ((1, 2), (1, 7), (1, 12), (2, 3), (2, 12), (3, 5), (3, 12), (6, 4), (6, 7))

#: Shapes at which row 1's coefficient recurrence runs many steps, plus 2S = 0.
HIGH_SPIN_GRID = ((0, 2), (6, 6), (9, 3), (10, 6), (12, 4), (20, 3))


def identical(got, want) -> bool:
    """``==`` and equal reprs: floats must agree bit for bit, signed zeros included."""
    return got == want and repr(got) == repr(want)


def assert_reads_floats_exactly(instances, build, oracle):
    """``build`` on the float instance of ``assembly_instances`` is ``identical`` to
    ``build`` and to ``oracle`` on its Fractions; on the complex one it raises
    ComplexInput.  Above N = 12 there are neither.
    """
    if "float" not in instances:
        return
    dyadic = [tuple(map(Fraction, xs)) for xs in instances["float"]]
    got = build(*instances["float"])
    assert identical(got, build(*dyadic))
    assert identical(got, oracle(*dyadic))
    with pytest.raises(ComplexInput):
        build(*instances["complex"])


def assembly_instances(two_s, n, tag):
    """{mode: (eps, nu)}: one seeded instance, exact, float and complex up to N = 12, exact above.

    The exact inhomogeneities are random non-integer rationals, so their
    denominators share factors and the gaps take both signs; the float
    instance rounds them, and the complex one adds imaginary parts of
    either sign, signed zeros included.
    """
    rng = random.Random(f"{tag}:{two_s}:{n}")
    eps = tuple(rand_distinct_fractions(rng, n))
    nu = random_rapidities(two_s + n - 1, eps, rng)
    f_eps, f_nu = tuple(map(float, eps)), tuple(map(float, nu))

    def imag():
        return rng.choice((0.0, -0.0, rng.uniform(-2, 2)))

    if n > 12:
        return {"exact": (eps, nu)}
    return {"exact": (eps, nu), "float": (f_eps, f_nu),
            "complex": (tuple(complex(x, imag()) for x in f_eps),
                        tuple(complex(x, imag()) for x in f_nu))}


def adiabatic_energy(g, eps, occupation, steps=2000):
    """Energy of the eigenstate of H(g) continued from the g = 0 product state, by exact diagonalization.

    H = sum_k eps_k n_k - (g/2) sum_{k,l} S+_k S-_l (k = l included) acts
    on the C(N, M) states with M pairs.  At g = 0 the product state that
    fills ``occupation`` is an eigenstate; the coupling then grows
    linearly in ``steps`` steps, and each step keeps the eigenvector of
    largest overlap with the last one.

    The Bethe state with rapidities lam_k has energy E = sum_k lam_k.
    Multiplying the rapidity equation of lam_i by lam_i and summing over i,
    sum_{i != j} 2 lam_i / (lam_i - lam_j) = M (M - 1) (pair the terms
    (i, j) and (j, i)) and lam_i / (eps_k - lam_i) = eps_k / (eps_k - lam_i) - 1
    give (2/g) E - M (M - 1) - sum_k eps_k L_k + N M = 0, that is
    E = (g/2) (sum_k eps_k L_k - N M + M (M - 1)), the energy of the
    quadratic route's L.
    """
    n, m = len(eps), sum(occupation)
    basis = list(combinations(range(n), m))
    index = {state: i for i, state in enumerate(basis)}
    levels = np.diag([float(sum(eps[k] for k in state)) for state in basis])
    pairing = np.zeros_like(levels)
    for i, state in enumerate(basis):
        for l in state:  # S+_k S-_l moves the pair on level l to level k
            for k in range(n):
                if k == l or k not in state:
                    pairing[index[tuple(sorted(set(state) - {l} | {k}))], i] += 1
    vector = np.zeros(len(basis))
    vector[index[tuple(k for k, b in enumerate(occupation) if b)]] = 1.0
    for step in range(1, steps + 1):
        values, vectors = np.linalg.eigh(levels - (g * step / steps / 2) * pairing)
        k = int(np.argmax(np.abs(vectors.T @ vector)))
        vector = vectors[:, k]
    return float(values[k])


def _rule_sides(terms, jacobian, x):
    """|r_i| and (n + 2) u (s_i + (|J||x|)_i), u = 2^-53, from the terms of each equation."""
    n = len(x)
    lhs = [abs(sum(row)) for row in terms]
    rhs = [(n + 2) * 2.0 ** -53 * (sum(abs(t) for t in row)
                                    + sum(abs(jacobian[i][j]) * abs(x[j]) for j in range(n)))
           for i, row in enumerate(terms)]
    return lhs, rhs


def quad_rule_sides(g, eps, lambdas):
    """Both sides of the acceptance rule for the quadratic equations, loop by loop.

    Equation i has the terms L_i^2, -(L_i - L_j)/(eps_i - eps_j) for j != i
    and -(2/g) L_i; its Jacobian row has 1/(eps_i - eps_j) off the diagonal
    and 2 L_i - 2/g - sum_{j != i} 1/(eps_i - eps_j) on it.
    """
    n = len(eps)
    terms, jacobian = [], []
    for i in range(n):
        row, jac = [lambdas[i] ** 2, -(2 / g) * lambdas[i]], [0.0] * n
        jac[i] = 2 * lambdas[i] - 2 / g
        for j in range(n):
            if j != i:
                row.append(-(lambdas[i] - lambdas[j]) / (eps[i] - eps[j]))
                jac[j] = 1 / (eps[i] - eps[j])
                jac[i] -= 1 / (eps[i] - eps[j])
        terms.append(row)
        jacobian.append(jac)
    return _rule_sides(terms, jacobian, lambdas)


def richardson_rule_sides(g, eps, rapidities):
    """Both sides of the acceptance rule for the rapidity equations, loop by loop.

    Equation i has the terms 2/g, -2/(lam_i - lam_j) for j != i and
    -1/(eps_k - lam_i) for every level; its Jacobian row has
    -2/(lam_i - lam_j)^2 off the diagonal and
    sum_{j != i} 2/(lam_i - lam_j)^2 - sum_k 1/(eps_k - lam_i)^2 on it.
    """
    m = len(rapidities)
    terms, jacobian = [], []
    for i, lam in enumerate(rapidities):
        row, jac = [2 / g], [0j] * m
        for j, other in enumerate(rapidities):
            if j != i:
                row.append(-2 / (lam - other))
                jac[j] = -2 / (lam - other) ** 2
                jac[i] += 2 / (lam - other) ** 2
        for e in eps:
            row.append(-1 / (e - lam))
            jac[i] -= 1 / (e - lam) ** 2
        terms.append(row)
        jacobian.append(jac)
    return _rule_sides(terms, jacobian, rapidities)
