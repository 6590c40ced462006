import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from rgdwpf import partition
from rgdwpf.bethe import RapidityState, lambdas_from_rapidities
from rgdwpf.errors import (
    CardinalityMismatch,
    ComplexInput,
    CostGuard,
    DegenerateEpsilons,
    NonFiniteEntry,
    PoleAtEvaluationPoint,
)
from rgdwpf.gamma import build_gamma_table
from rgdwpf.linalg import SquareMatrix, determinant, permanent
from rgdwpf.partition import (
    SpinSystem,
    borchardt_check,
    boson_sum_determinant,
    build_J_higher,
    build_J_limit,
    build_J_spin_half,
    cauchy_matrix,
    multisets_with_repetition,
    random_instance,
    structure_coefficients,
    z_determinant,
    z_permanent,
)

from oracles import (
    ASSEMBLY_GRID,
    HIGH_SPIN_GRID,
    assembly_instances,
    assert_reads_floats_exactly,
    complete_homogeneous,
    gamma_table_by_fraction_sums,
    identical,
    j_higher_by_fraction_sums,
    j_spin_half_by_fraction_sums,
    perm_by_permutation_sum,
    rand_distinct_fractions,
    row_over_lcm,
    rand_fraction,
    spin_three_half_worked_coefficients,
    structure_coefficients_by_fraction_sums,
    z_by_attachment_sum,
)


def repeated_column_permanent(system, nu):
    """Oracle: the big permanent with the first inhomogeneity repeated two_s times."""
    cols = (system.epsilons[0],) * system.two_s + system.epsilons[1:]
    return perm_by_permutation_sum([[1 / (v - e) for e in cols] for v in nu])


class TestSpinSystem:
    def test_degenerate_epsilons_rejected(self):
        with pytest.raises(DegenerateEpsilons):
            SpinSystem(two_s=1, epsilons=(0, 0))

    def test_no_spin_rejected(self):
        with pytest.raises(CardinalityMismatch):
            SpinSystem(two_s=1, epsilons=())

    def test_no_excitation_rejected(self):
        # a lone spin 0 has Omega = 0
        with pytest.raises(CardinalityMismatch):
            SpinSystem(two_s=0, epsilons=(0,))

    def test_lone_higher_spin_rejected(self):
        with pytest.raises(CardinalityMismatch):
            SpinSystem(two_s=2, epsilons=(0,))

    def test_omega(self):
        assert SpinSystem(two_s=3, epsilons=(0, 1)).omega == 4
        assert SpinSystem(two_s=0, epsilons=(0, 1, 2)).omega == 2

    @pytest.mark.parametrize("two_s", [1.5, 2.0, True, -1])
    def test_two_s_must_be_a_non_negative_int(self, two_s):
        with pytest.raises(ValueError, match="two_s must be an integer >= 0"):
            SpinSystem(two_s=two_s, epsilons=(0, 1))


class TestCauchyMatrix:
    def test_1x1(self):
        m = cauchy_matrix((1,), (0,))
        assert m.entries == ((Fraction(1),),)

    def test_2x2_values(self):
        m = cauchy_matrix((2, 3), (0, 1))
        assert m.entries == ((Fraction(1, 2), Fraction(1)),
                             (Fraction(1, 3), Fraction(1, 2)))

    def test_pole_and_cardinality(self):
        with pytest.raises(PoleAtEvaluationPoint):
            cauchy_matrix((1, 2), (2, 3))
        with pytest.raises(CardinalityMismatch):
            cauchy_matrix((1,), (2, 3))


class TestZPermanent:
    def test_single_excitation(self):
        system = SpinSystem(two_s=1, epsilons=(0,))
        assert z_permanent(system, (5,)).value == Fraction(1, 5)

    def test_rapidity_count_must_be_omega(self):
        system = SpinSystem(two_s=2, epsilons=(0, 1))
        for nu in ((2, 3), (2, 3, 5, 7)):
            with pytest.raises(CardinalityMismatch):
                z_permanent(system, nu)

    def test_three_term_expansion(self):
        # spin 1 plus one spin 1/2: the sum collapses to three terms with
        # double weight
        system = SpinSystem(two_s=2, epsilons=(Fraction(0), Fraction(1)))
        n1, n2, n3 = Fraction(2), Fraction(3), Fraction(5)
        e1, e2 = system.epsilons
        expected = (2 / ((n1 - e1) * (n2 - e1) * (n3 - e2))
                    + 2 / ((n2 - e1) * (n3 - e1) * (n1 - e2))
                    + 2 / ((n1 - e1) * (n3 - e1) * (n2 - e2)))
        assert z_permanent(system, (n1, n2, n3)).value == expected

    def test_matches_repeated_column_permanent(self):
        rng = random.Random(31)
        for two_s, n in [(1, 3), (2, 2), (2, 3), (3, 2), (0, 3), (4, 3), (2, 5), (5, 3)]:
            system, nu = random_instance(two_s, n, rng)
            assert z_permanent(system, nu).value == repeated_column_permanent(system, nu)

    def test_matches_attachment_sum_oracle(self):
        rng = random.Random(37)
        for two_s, n in [(1, 1), (0, 4), (1, 5), (2, 4), (3, 3), (4, 4), (6, 2), (5, 4)]:
            system, nu = random_instance(two_s, n, rng)
            want = z_by_attachment_sum(two_s, system.epsilons, nu)
            assert z_permanent(system, nu).value == want
            eps_f = tuple(float(e) for e in system.epsilons)
            got = z_permanent(SpinSystem(two_s, eps_f), [float(v) for v in nu]).value
            assert math.isclose(got, z_by_attachment_sum(two_s, eps_f, [float(v) for v in nu]),
                                rel_tol=1e-12)

    def test_one_permanent_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(partition, "permanent", lambda m: calls.append(m.dim) or 1)
        rng = random.Random(38)
        system, nu = random_instance(4, 3, rng)
        z_permanent(system, nu)
        boson_sum_determinant(rand_distinct_fractions(rng, 5), (0, 1, 2))
        assert calls == [6, 5]

    def test_high_spin_matches_attachment_sum_oracle(self):
        # one large repeated class is cheap: exact only, since the float
        # class sum loses digits to cancellation from 2S = 30 on
        rng = random.Random(39)
        for two_s, n in [(12, 4), (30, 3), (60, 2)]:
            system, nu = random_instance(two_s, n, rng)
            want = z_by_attachment_sum(two_s, system.epsilons, nu)
            assert z_permanent(system, nu).value == want, (two_s, n)

    def test_float_overflow_is_typed(self, monkeypatch):
        system, nu = random_instance(1100, 2, random.Random(40))
        eps_f = tuple(float(e) for e in system.epsilons)
        elapsed = []

        def timed_permanent(matrix):
            start = time.perf_counter()
            try:
                return permanent(matrix)
            finally:
                elapsed.append(time.perf_counter() - start)

        monkeypatch.setattr(partition, "permanent", timed_permanent)
        start = time.perf_counter()
        with pytest.raises(NonFiniteEntry):
            z_permanent(SpinSystem(1100, eps_f), [float(v) for v in nu])
        whole = time.perf_counter() - start
        # the kernel refuses before its sign loop, and building the 1101 x 1101
        # matrix around it looks at each of its 1.2M entries in one pass
        assert elapsed[0] < 0.1
        assert whole < 0.4

    def test_cost_guard(self):
        system = SpinSystem(two_s=1, epsilons=tuple(range(22)))
        nu = tuple(Fraction(1000 + i) for i in range(22))
        with pytest.raises(CostGuard):
            z_permanent(system, nu)

    def test_spin_half_reduces_to_cauchy_permanent(self):
        rng = random.Random(32)
        system, nu = random_instance(1, 5, rng)
        expected = permanent(cauchy_matrix(nu, system.epsilons))
        assert z_permanent(system, nu).value == expected


class TestStructureCoefficients:
    def test_spin_three_half_worked_values(self):
        rng = random.Random(33)
        for _ in range(3):
            e1, e2, e3 = rand_distinct_fractions(rng, 3)
            system = SpinSystem(two_s=3, epsilons=(e1, e2, e3))
            got = structure_coefficients(system)
            want = spin_three_half_worked_coefficients(e1, e2, e3)
            assert got.c11 == want["c11"]
            assert got.c1j == want["c1j"]
            assert got.c0_diag == want["c0_diag"]
            assert got.c1_diag == want["c1_diag"]
            assert got.c0_off == want["c0_off"]

    def test_spin_half_entries(self):
        system = SpinSystem(two_s=1, epsilons=(Fraction(0), Fraction(2), Fraction(5)))
        sc = structure_coefficients(system)
        assert sc.c11[-1] == 1
        for j in (2, 3):
            ej = system.epsilons[j - 1]
            assert sc.c1j[j] == (1 / (ej - Fraction(0)),)


def test_multiset_enumerator_count():
    # number of size-m multisets over an (n-1)-element ground set
    for n in (2, 3, 5):
        ground = list(range(n - 1))
        for m in range(7):
            count = sum(1 for _ in multisets_with_repetition(ground, m))
            assert count == math.comb(n - 2 + m, m)


class TestSpinHalfMatrix:
    def test_single_spin(self):
        j = build_J_spin_half((0,), (2,))
        assert j.entries == ((Fraction(1, 2),),)
        assert determinant(j) == Fraction(1, 2)

    def test_two_spin_hand_expansion(self):
        j = build_J_spin_half((Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)))
        expected = 1 / (Fraction(2) * Fraction(2)) + 1 / (Fraction(3) * Fraction(1))
        assert determinant(j) == expected

    def test_determinant_equals_cauchy_permanent(self):
        rng = random.Random(34)
        for _ in range(5):
            system, nu = random_instance(1, 5, rng)
            j = build_J_spin_half(system.epsilons, nu)
            assert determinant(j) == permanent(cauchy_matrix(nu, system.epsilons))

    def test_oversized_rapidity_set_sums_subset_permanents(self):
        rng = random.Random(48)
        for n, m in [(1, 3), (2, 4), (3, 5), (4, 5)]:
            eps = rand_distinct_fractions(rng, n)
            nu = rand_distinct_fractions(rng, m, avoid=eps)
            cauchy_rows = [[1 / (v - e) for e in eps] for v in nu]
            expected = sum(perm_by_permutation_sum(rows)
                           for rows in combinations(cauchy_rows, n))
            assert determinant(build_J_spin_half(eps, nu)) == expected

    def test_too_few_rapidities_rejected(self):
        with pytest.raises(CardinalityMismatch):
            build_J_spin_half((0, 1, 2), (5, 6))


class TestHigherSpinMatrix:
    def test_reduces_to_spin_half(self):
        rng = random.Random(35)
        for n in range(2, 7):
            system, nu = random_instance(1, n, rng)
            table = build_gamma_table(system, nu)
            assert build_J_higher(system, *table) == build_J_spin_half(system.epsilons, nu)

    def test_determinant_matches_permanent_route(self):
        system = SpinSystem(two_s=2, epsilons=(Fraction(0), Fraction(1)))
        nu = (Fraction(2), Fraction(3), Fraction(5))
        det = determinant(build_J_higher(system, *build_gamma_table(system, nu)))
        assert det == z_permanent(system, nu).value
        assert det == Fraction(19, 60)

    def test_det_invariant_under_rapidity_permutation(self):
        rng = random.Random(36)
        system, nu = random_instance(3, 3, rng)
        reference = z_determinant(system, nu).value
        for perm in permutations(nu):
            assert z_determinant(system, perm).value == reference

    def test_det_invariant_under_spin_half_relabeling(self):
        rng = random.Random(37)
        system, nu = random_instance(2, 4, rng)
        reference = z_determinant(system, nu).value
        e = system.epsilons
        relabeled = SpinSystem(two_s=2, epsilons=(e[0], e[2], e[3], e[1]))
        assert z_determinant(relabeled, nu).value == reference

    def test_mismatched_table_rejected(self):
        # the tower holds 2S + 1 values and lambdas N - 1; one more or one less is refused
        rng = random.Random(38)
        system, nu = random_instance(2, 3, rng)
        tower, lambdas = build_gamma_table(system, nu)
        build_J_higher(system, tower, lambdas)
        for bad_tower, bad_lambdas in ((tower[:-1], lambdas), (tower + (Fraction(1),), lambdas),
                                       (tower, lambdas[:-1]), (tower, lambdas + (Fraction(1),))):
            with pytest.raises(CardinalityMismatch):
                build_J_higher(system, bad_tower, bad_lambdas)


class TestLambdaInput:
    """``build_J_higher`` as the entry point for eigenvalue-based variables from any source."""

    def test_constant_lambda_at_spin_half(self):
        """At 2S = 1 with tower (1, c) and every L(eps_j) = c, det J = (-c)^N.

        At 2S = 1, J = A - cI with A_ij = 1/(eps_j - eps_i) for i != j and
        A_ii = sum_{k != i} 1/(eps_i - eps_k).  Let D be the differentiation
        matrix on the Lagrange basis at the nodes eps, D_ij = l_j'(eps_i):
        D_ij = (w_j / w_i) / (eps_i - eps_j) for i != j and D_ii = A_ii, with
        the barycentric weights w_j = 1 / prod_{k != j} (eps_j - eps_k).  With
        W = diag(w), (W D W^-1)_ij = 1/(eps_i - eps_j) for i != j, so A is
        the transpose of W D W^-1.  D maps the values of a polynomial p of degree < N at
        the nodes to those of p', and d/dz is nilpotent on those polynomials,
        so D^N = 0 and A^N = 0.  A nilpotent A has characteristic polynomial
        det(zI - A) = z^N, so det(A - cI) = (-1)^N c^N = (-c)^N.
        """
        rng = random.Random(50)
        for n in range(1, 11):
            eps = []
            while len(eps) < n:  # non-integer, pairwise distinct levels
                x = rand_fraction(rng)
                if x.denominator > 1 and x not in eps:
                    eps.append(x)
            system = SpinSystem(1, tuple(eps))
            for c in (Fraction(1, 3), Fraction(-5, 2), Fraction(7), rand_fraction(rng)):
                j = build_J_higher(system, (1, c), (c,) * (n - 1))
                assert determinant(j) == (-c) ** n

    def test_bethe_lambdas_at_spin_half(self):
        # L(eps_j) from the Bethe layer's evaluation on exact rapidities
        rng = random.Random(51)
        for n in range(1, 9):
            eps = tuple(rand_distinct_fractions(rng, n))
            nu = partition.random_rapidities(n, eps, rng)
            lambdas = lambdas_from_rapidities(RapidityState(nu), eps).values
            system = SpinSystem(1, eps)
            z = determinant(build_J_higher(system, (1, lambdas[0]), lambdas[1:]))
            assert z == z_permanent(system, nu).value

    def test_reads_floats_exactly(self):
        system, nu = random_instance(3, 4, random.Random(52))
        tower, lambdas = build_gamma_table(system, nu)
        f_tower, f_lambdas = tuple(map(float, tower)), tuple(map(float, lambdas))
        got = build_J_higher(system, f_tower, f_lambdas)
        assert got == build_J_higher(system, tuple(map(Fraction, f_tower)),
                                     tuple(map(Fraction, f_lambdas)))
        with pytest.raises(ComplexInput):
            build_J_higher(system, tuple(map(complex, f_tower)), f_lambdas)

    @pytest.mark.parametrize("two_s, n", [(2, 2), (2, 4), (3, 3), (6, 3)])
    def test_oracle_tower_at_higher_spin(self, two_s, n):
        # e_k = -G_k / k! from the Leibniz recursion on term-by-term sums, and
        # L(eps_j) from plain Fraction sums: nothing from rgdwpf.gamma
        rng = random.Random(f"lambda-input:{two_s}:{n}")
        eps = tuple(rand_distinct_fractions(rng, n))
        system = SpinSystem(two_s, eps)
        nu = partition.random_rapidities(system.omega, eps, rng)
        tower, lambdas = gamma_table_by_fraction_sums(system, nu)
        z = determinant(build_J_higher(system, tower, lambdas))
        assert z == z_permanent(system, nu).value


class TestLimitMatrix:
    def test_determinant_vanishes(self):
        rng = random.Random(39)
        for two_s, n in [(0, 2), (1, 2), (1, 5), (2, 3), (3, 3), (5, 2)]:
            eps = tuple(rand_distinct_fractions(rng, n))
            system = SpinSystem(two_s=two_s, epsilons=eps)
            assert determinant(build_J_limit(system)) == 0

    def test_spin_half_column_sum_annihilates_first_column(self):
        rng = random.Random(40)
        eps = tuple(rand_distinct_fractions(rng, 4))
        j = build_J_limit(SpinSystem(two_s=1, epsilons=eps))
        for i in range(4):
            assert sum(j.entries[i]) == 0

    def test_column_sum_rescales_first_column(self):
        # folding all other columns into the first multiplies it by 1 - two_s
        rng = random.Random(41)
        e1, e2, e3 = rand_distinct_fractions(rng, 3)
        system = SpinSystem(two_s=3, epsilons=(e1, e2, e3))
        j = build_J_limit(system)
        for i in range(3):
            folded = sum(j.entries[i])
            assert folded == (1 - system.two_s) * j.entries[i][0]

    def test_is_limit_of_scaled_rapidity_matrix(self):
        rng = random.Random(49)
        for two_s, n in [(1, 3), (2, 2), (3, 3), (0, 3)]:
            system, nu = random_instance(two_s, n, rng)
            limit = build_J_limit(system)
            gaps = []
            for t in (10 ** 3, 10 ** 6):
                scaled = build_J_higher(system,
                                        *build_gamma_table(system, [v * t for v in nu]))
                gaps.append(max(abs(a - b) for ra, rb in zip(scaled.entries, limit.entries)
                                for a, b in zip(ra, rb)))
            assert gaps[1] * 100 <= gaps[0]


class TestZDeterminant:
    def test_single_excitation(self):
        system = SpinSystem(two_s=1, epsilons=(0,))
        assert z_determinant(system, (5,)).value == Fraction(1, 5)

    def test_identity_on_small_grid(self):
        rng = random.Random(42)
        for two_s, n in [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (4, 2), (0, 4)]:
            system, nu = random_instance(two_s, n, rng)
            assert z_determinant(system, nu).value == z_permanent(system, nu).value

    def test_identity_at_two_s_120(self):
        # Omega = 121: the hierarchy's truncated product stays cheap at high spin
        for seed in range(2):
            system, nu = random_instance(120, 2, random.Random(f"two-s-120:{seed}"))
            assert z_determinant(system, nu).value == z_permanent(system, nu).value

    def test_vanishes_under_rapidity_scaling(self):
        system = SpinSystem(two_s=2, epsilons=(Fraction(0), Fraction(1)))
        nu = (Fraction(2), Fraction(3), Fraction(5))
        magnitudes = [abs(z_determinant(system, tuple(v * t for v in nu)).value)
                      for t in (1, 10 ** 3, 10 ** 6)]
        assert magnitudes[0] > magnitudes[1] > magnitudes[2]

    def test_float_mode(self):
        rng = random.Random(43)
        system, nu = random_instance(2, 3, rng)
        exact = z_determinant(system, nu).value
        fsystem = SpinSystem(two_s=2, epsilons=tuple(float(e) for e in system.epsilons))
        approx = z_determinant(fsystem, tuple(float(v) for v in nu)).value
        assert math.isclose(float(exact), approx, rel_tol=1e-9)

    def test_complex_rapidities_float_mode(self):
        # only the permanent route takes complex values; conjugate-paired
        # rapidities give it a real partition function
        system = SpinSystem(two_s=2, epsilons=(0.0, 1.0))
        nu = (2.0 + 1.5j, 2.0 - 1.5j, 4.0)
        with pytest.raises(ComplexInput):
            z_determinant(system, nu)
        with pytest.raises(ComplexInput):
            z_determinant(SpinSystem(two_s=2, epsilons=(0j, 1.0)), (2.0, 3.0, 4.0))
        perm_route = z_permanent(system, nu).value
        assert abs(perm_route.imag) < 1e-14 * abs(perm_route)

    @pytest.mark.parametrize("two_s, n", [(1, 10), (4, 6), (6, 5), (12, 4), (30, 3)])
    def test_float_mode_is_the_rounded_exact_permanent(self, two_s, n):
        # the oracle shares no code with the determinant route: the exact
        # permanent on the same dyadic values, rounded once, bit for bit
        rng = random.Random(f"dyadic:{two_s}:{n}")
        for _ in range(2):
            system, nu = random_instance(two_s, n, rng)
            eps_f, nu_f = tuple(map(float, system.epsilons)), tuple(map(float, nu))
            got = z_determinant(SpinSystem(two_s, eps_f), nu_f).value
            exact = z_permanent(SpinSystem(two_s, tuple(map(Fraction, eps_f))),
                                tuple(map(Fraction, nu_f))).value
            assert type(got) is float
            assert got == float(exact), (got, float(exact))

    def test_float_value_below_the_subnormals_is_zero(self):
        # Z is about 2/(nu_1 nu_2) = 1e-600: its correctly rounded value is 0.0, not a refusal
        system, nu = SpinSystem(1, (0.0, 1.0)), (1e300, 2e300)
        exact = z_permanent(SpinSystem(1, (Fraction(0), Fraction(1))), map(Fraction, nu)).value
        assert 0 < exact < Fraction(5e-324) / 2
        assert z_determinant(system, nu).value == 0.0
        # about 2e-320, a subnormal, rounded once
        nu = (1e160, 1e160)
        exact = z_permanent(SpinSystem(1, (Fraction(0), Fraction(1))), map(Fraction, nu)).value
        assert z_determinant(system, nu).value == float(exact) != 0.0


    def test_wide_determinant_builds_order_n_fractions(self, monkeypatch):
        # J's rows reach the kernel as integers: no Fraction per entry of J or
        # of the constant rows 2..N, which alone were 1,296 + 1,225 at N = 36
        system, nu = random_instance(1, 36, random.Random("fractions:36"))
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        z_determinant(system, nu)
        assert 0 < len(made) <= 12 * system.n


class TestBorchardt:
    def test_single_pair(self):
        res = borchardt_check((Fraction(3),), (Fraction(1),))
        assert res.det_c == res.perm_c == Fraction(1, 2)
        assert res.det_m == Fraction(1, 4)
        assert res.holds

    def test_random_exact(self):
        rng = random.Random(44)
        for _ in range(5):
            eps = rand_distinct_fractions(rng, 5)
            nu = rand_distinct_fractions(rng, 5, avoid=eps)
            res = borchardt_check(nu, eps)
            assert res.holds
            assert res.det_c * res.perm_c == res.det_m

    def test_float_instances(self):
        rng = random.Random(45)
        eps = [float(x) for x in rand_distinct_fractions(rng, 8)]
        nu = [float(x) for x in rand_distinct_fractions(rng, 8, avoid=eps)]
        assert borchardt_check(nu, eps).holds

    def test_complex_input_refused(self):
        with pytest.raises(ComplexInput):
            borchardt_check((2.0, 3 + 1j), (0.0, 1.0))


class TestBosonSum:
    def test_no_extra_rapidities(self):
        rng = random.Random(46)
        eps = rand_distinct_fractions(rng, 3)
        nu = rand_distinct_fractions(rng, 3, avoid=eps)
        res = boson_sum_determinant(nu, eps)
        assert res.holds
        assert res.sum_of_permanents == permanent(cauchy_matrix(nu, eps))

    def test_with_extra_rapidities(self):
        rng = random.Random(47)
        for n, extra in [(2, 1), (3, 2)]:
            eps = rand_distinct_fractions(rng, n)
            nu = rand_distinct_fractions(rng, n + extra, avoid=eps)
            res = boson_sum_determinant(nu, eps)
            assert res.holds
            assert res.sum_of_permanents == res.det_j_tilde

    def test_matches_subset_permanent_oracle(self):
        rng = random.Random(49)
        for n, extra in [(2, 1), (3, 2), (4, 3), (5, 3)]:
            eps = rand_distinct_fractions(rng, n)
            nu = rand_distinct_fractions(rng, n + extra, avoid=eps)
            for exact in (True, False):
                e, v = (eps, nu) if exact else ([float(x) for x in eps], [float(x) for x in nu])
                cauchy = [[1 / (a - b) for b in e] for a in v]
                want = sum(perm_by_permutation_sum(rows) for rows in combinations(cauchy, n))
                got = boson_sum_determinant(v, e).sum_of_permanents
                if exact:
                    assert got == want
                else:
                    assert math.isclose(got, want, rel_tol=1e-12), (n, extra)

    def test_cost_guard(self):
        eps = tuple(Fraction(i) for i in range(21))
        nu = tuple(Fraction(100 + i) for i in range(22))
        with pytest.raises(CostGuard):
            boson_sum_determinant(nu, eps)

    def test_bad_inputs_are_typed(self):
        with pytest.raises(ComplexInput):
            boson_sum_determinant((2.0, 3.0, 4 - 1j), (0.0, 1.0))
        with pytest.raises(PoleAtEvaluationPoint):
            boson_sum_determinant((2.0, 1.0, 4.0), (0.0, 1.0))
        with pytest.raises(CardinalityMismatch):
            boson_sum_determinant((Fraction(2),), (0, 1))


def test_random_instance_is_reproducible_and_collision_free():
    system_a, nu_a = random_instance(2, 3, random.Random(7))
    system_b, nu_b = random_instance(2, 3, random.Random(7))
    assert system_a == system_b and nu_a == nu_b
    assert all(v not in system_a.epsilons for v in nu_a)
    assert all(v.denominator <= 64 and abs(v.numerator) <= 999 * 64 for v in nu_a)


class TestAssemblyAgainstTermByTermSums:
    """Structure coefficients and J against the term-by-term sums they replaced.

    Float inputs are read as their Fractions and complex ones are refused.
    """

    GRID = ASSEMBLY_GRID + HIGH_SPIN_GRID + ((1, 36),)

    @pytest.mark.parametrize("two_s, n", GRID)
    def test_structure_coefficients(self, two_s, n):
        def package(eps, _):
            return structure_coefficients(SpinSystem(two_s, eps))

        def oracle(eps, _):
            return structure_coefficients_by_fraction_sums(SpinSystem(two_s, eps))

        instances = assembly_instances(two_s, n, "coefficients")
        assert identical(package(*instances["exact"]), oracle(*instances["exact"]))
        assert_reads_floats_exactly(instances, package, oracle)

    @pytest.mark.parametrize("two_s, n", GRID)
    def test_higher_spin_matrix(self, two_s, n):
        def package(eps, nu):
            system = SpinSystem(two_s, eps)
            return build_J_higher(system, *build_gamma_table(system, nu)).entries

        def oracle(eps, nu):
            return j_higher_by_fraction_sums(SpinSystem(two_s, eps), nu).entries

        instances = assembly_instances(two_s, n, "higher")
        assert identical(package(*instances["exact"]), oracle(*instances["exact"]))
        assert_reads_floats_exactly(instances, package, oracle)

    @pytest.mark.parametrize("two_s, n", HIGH_SPIN_GRID + ((1, 14), (2, 12), (1, 36)))
    def test_higher_spin_matrix_rows_are_the_cleared_oracle_rows(self, two_s, n):
        # J's rows as built, integers over one denominator each, against the
        # term-by-term entries cleared row by row; float inputs at their Fractions
        eps, nu = assembly_instances(two_s, n, "rows")["exact"]
        for eps, nu in ((eps, nu), (tuple(map(float, eps)), tuple(map(float, nu)))):
            system = SpinSystem(two_s, eps)
            j = build_J_higher(system, *build_gamma_table(system, nu))
            dyadic = SpinSystem(two_s, tuple(map(Fraction, eps))), tuple(map(Fraction, nu))
            want = [row_over_lcm(row) for row in j_higher_by_fraction_sums(*dyadic).entries]
            assert list(zip(j.rows, j.denominators)) == want

    @pytest.mark.parametrize("two_s, n", ((0, 2), (3, 5), (1, 36)))
    def test_matrix_built_from_rows_reads_as_its_entries(self, two_s, n):
        eps, nu = assembly_instances(two_s, n, "rows")["exact"]
        system = SpinSystem(two_s, eps)
        j = build_J_higher(system, *build_gamma_table(system, nu))
        want = j_higher_by_fraction_sums(system, nu).entries
        assert j == SquareMatrix(j.entries)
        assert identical(j.entries, want)
        assert all(type(x) is Fraction and math.gcd(x.numerator, x.denominator) == 1
                   for row in j.entries for x in row)

    @pytest.mark.parametrize("two_s, n", GRID)
    def test_c11_is_complete_homogeneous(self, two_s, n):
        # c11[k] = h_{2S-k}(x), x_k = 1/(eps_1 - eps_k): the identity that lets
        # c11 come from a truncated series product instead of multisets
        for mode, (eps, _) in assembly_instances(two_s, n, "coefficients").items():
            if mode == "complex":
                continue
            eps = tuple(map(Fraction, eps))
            h = complete_homogeneous([1 / (eps[0] - e) for e in eps[1:]], two_s)
            assert structure_coefficients(SpinSystem(two_s, eps)).c11 == h[::-1]

    @pytest.mark.parametrize("two_s, n", [(1, 2), (3, 5), (6, 6), (12, 4), (1, 36)])
    def test_only_c11_enumerates_multisets(self, monkeypatch, two_s, n):
        # C(N - 1 + 2S, 2S) tuples: the multisets of sizes 0..2S over N - 1
        # spins 1/2, each walked once; enumerating again per column exceeds it
        walked = []

        def counting(items, m):
            for ms in multisets_with_repetition(items, m):
                walked.append(ms)
                yield ms

        monkeypatch.setattr(partition, "multisets_with_repetition", counting)
        eps, _ = assembly_instances(two_s, n, "coefficients")["exact"]
        structure_coefficients(SpinSystem(two_s, eps))
        assert len(walked) == math.comb(n - 1 + two_s, two_s)

    @pytest.mark.parametrize("extra", [0, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 36])
    def test_spin_half_matrix(self, n, extra):
        def package(eps, nu):
            return build_J_spin_half(eps, nu).entries

        def oracle(eps, nu):
            return j_spin_half_by_fraction_sums(eps, nu).entries

        # an instance with 2S = 1 + extra carries M = N + extra rapidities
        instances = assembly_instances(1 + extra, n, "spin-half")
        assert identical(package(*instances["exact"]), oracle(*instances["exact"]))
        assert_reads_floats_exactly(instances, package, oracle)
