import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from rgdwpf import partition
from rgdwpf.errors import (
    CardinalityMismatch,
    CostGuard,
    DegenerateEpsilons,
    NonFiniteEntry,
    PoleAtEvaluationPoint,
)
from rgdwpf.gamma import build_gamma_table
from rgdwpf.linalg import determinant, permanent
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
    perm_by_permutation_sum,
    rand_distinct_fractions,
    spin_three_half_worked_coefficients,
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

    def test_lone_higher_spin_rejected(self):
        with pytest.raises(CardinalityMismatch):
            SpinSystem(two_s=2, epsilons=(0,))

    def test_omega(self):
        assert SpinSystem(two_s=3, epsilons=(0, 1)).omega == 4
        assert SpinSystem(two_s=0, epsilons=(0, 1, 2)).omega == 2


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
            assert build_J_higher(system, table) == build_J_spin_half(system.epsilons, nu)

    def test_determinant_matches_permanent_route(self):
        system = SpinSystem(two_s=2, epsilons=(Fraction(0), Fraction(1)))
        nu = (Fraction(2), Fraction(3), Fraction(5))
        table = build_gamma_table(system, nu)
        det = determinant(build_J_higher(system, table))
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
        rng = random.Random(38)
        system, nu = random_instance(2, 2, rng)
        other = SpinSystem(two_s=2, epsilons=(Fraction(10), Fraction(11)))
        table = build_gamma_table(other, nu)
        with pytest.raises(CardinalityMismatch):
            build_J_higher(system, table)


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
                scaled = build_J_higher(system, build_gamma_table(system, [v * t for v in nu]))
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
        # conjugate-paired rapidities give a real partition function and
        # both routes must still agree
        system = SpinSystem(two_s=2, epsilons=(0.0, 1.0))
        nu = (2.0 + 1.5j, 2.0 - 1.5j, 4.0)
        det_route = z_determinant(system, nu).value
        perm_route = z_permanent(system, nu).value
        assert abs(det_route - perm_route) < 1e-12 * abs(det_route)
        assert abs(det_route.imag) < 1e-14


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


def test_random_instance_is_reproducible_and_collision_free():
    system_a, nu_a = random_instance(2, 3, random.Random(7))
    system_b, nu_b = random_instance(2, 3, random.Random(7))
    assert system_a == system_b and nu_a == nu_b
    assert all(v not in system_a.epsilons for v in nu_a)
    assert all(v.denominator <= 64 and abs(v.numerator) <= 999 * 64 for v in nu_a)
