import itertools
import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rgdwpf import linalg
from rgdwpf.errors import CostGuard, NonFiniteEntry
from rgdwpf.gamma import build_gamma_table
from rgdwpf.linalg import (
    SquareMatrix,
    determinant,
    permanent,
    values_agree,
)
from rgdwpf.partition import (
    SpinSystem,
    boson_sum_determinant,
    build_J_higher,
    build_J_limit,
    random_instance,
)

from oracles import det_by_bareiss, det_by_cofactors, perm_by_permutation_sum, rand_fraction


def rand_matrix(rng, n):
    return [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]


class TestSquareMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SquareMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            SquareMatrix([])

    def test_rejects_mixed_modes(self):
        with pytest.raises(TypeError):
            SquareMatrix([[Fraction(1, 2), 0.5], [1, 1]])

    def test_ints_are_canonicalized(self):
        m = SquareMatrix([[1, 2], [3, 4]])
        assert m.exact
        assert m.entries[0][1] == Fraction(2)
        f = SquareMatrix([[1, 2.0], [3, 4]])
        assert not f.exact
        assert f.entries[0][0] == 1.0

    def test_entries_of_the_matrix_mode_are_kept(self):
        half, x, z = Fraction(1, 2), 0.25, 1 + 2j
        assert SquareMatrix([[half, 1], [2, half]]).entries[1][1] is half
        f = SquareMatrix([[x, z], [3, x]])
        assert f.entries[0][0] is x and f.entries[0][1] is z and f.entries[1][1] is x
        assert type(f.entries[1][0]) is float

    def test_int_too_large_for_a_float_is_typed(self):
        with pytest.raises(NonFiniteEntry):
            SquareMatrix([[10 ** 400, 1.0], [0.0, 1.0]])
        with pytest.raises(NonFiniteEntry):
            SquareMatrix([[-10 ** 400, 1j], [0.0, 1.0]])
        assert SquareMatrix([[10 ** 400, 1], [0, 1]]).entries[0][0] == 10 ** 400

    def test_non_finite_float_entries_are_typed(self):
        for bad in (float("inf"), float("-inf"), float("nan"), complex(1, float("inf"))):
            with pytest.raises(NonFiniteEntry):
                SquareMatrix([[1.0, 0.0], [bad, 1.0]])


class TestPermanent:
    def test_1x1(self):
        assert permanent(SquareMatrix([[7]])) == 7

    def test_2x2(self):
        assert permanent(SquareMatrix([[1, 2], [3, 4]])) == 10

    def test_matches_permutation_sum_oracle(self):
        rng = random.Random(101)
        for _ in range(5):
            rows = rand_matrix(rng, 6)
            assert permanent(SquareMatrix(rows)) == perm_by_permutation_sum(rows)
        # column j is copy pattern[j] of a few random columns: one class
        # repeated 2, 3 or 4 times, two repeated classes, all columns equal
        patterns = [(0, 1, 0, 2, 3, 4), (1, 0, 2, 0, 0), (0, 0, 1, 0, 0, 2, 3),
                    (0, 1, 1, 2, 0, 3), (2, 1, 0, 1, 2, 1, 2), (0, 0, 0, 0), (0,)]
        draws = [lambda: rand_fraction(rng),
                 lambda: rng.uniform(-1, 1),
                 lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
        for pattern in patterns:
            n = len(pattern)
            for draw in draws:
                cols = [[draw() for _ in range(n)] for _ in range(max(pattern) + 1)]
                rows = [[cols[c][i] for c in pattern] for i in range(n)]
                got, want = permanent(SquareMatrix(rows)), perm_by_permutation_sum(rows)
                if isinstance(want, Fraction):
                    assert got == want, pattern
                else:
                    assert abs(got - want) <= 1e-12 * abs(want), (pattern, got, want)

    def test_row_swap_invariance(self):
        rng = random.Random(103)
        rows = rand_matrix(rng, 5)
        swapped = [rows[3], rows[1], rows[2], rows[0], rows[4]]
        assert permanent(SquareMatrix(rows)) == permanent(SquareMatrix(swapped))

    def test_dimension_guard(self):
        # the guard counts work, not dimension: 21 equal columns cost 441 terms
        assert permanent(SquareMatrix([[1] * 21 for _ in range(21)])) == math.factorial(21)
        with pytest.raises(CostGuard):
            permanent(SquareMatrix([[Fraction(1, i + j + 1) for j in range(21)]
                                    for i in range(21)]))

    def test_float_mode_agrees_with_exact(self):
        rng = random.Random(104)
        rows = rand_matrix(rng, 5)
        exact = permanent(SquareMatrix(rows))
        approx = permanent(SquareMatrix([[float(x) for x in r] for r in rows]))
        assert math.isclose(float(exact), approx, rel_tol=1e-12)

    def test_non_finite_entry_rejected(self):
        with pytest.raises(NonFiniteEntry):
            permanent(SquareMatrix([[1.0, float("nan")], [0.0, 1.0]]))

    def test_overflow_reported(self):
        huge = 1e200
        with pytest.raises(NonFiniteEntry):
            permanent(SquareMatrix([[huge, huge], [huge, huge]]))


class TestDeterminant:
    def test_2x2(self):
        assert determinant(SquareMatrix([[1, 2], [3, 4]])) == -2

    def test_equal_rows_vanish(self):
        rng = random.Random(105)
        row = [rand_fraction(rng) for _ in range(4)]
        other = [rand_fraction(rng) for _ in range(4)]
        third = [rand_fraction(rng) for _ in range(4)]
        assert determinant(SquareMatrix([row, other, row, third])) == 0

    def test_matches_cofactor_oracle(self):
        rng = random.Random(106)
        for _ in range(3):
            rows = rand_matrix(rng, 7)
            assert determinant(SquareMatrix(rows)) == det_by_cofactors(rows)

    def test_alternating_under_row_swap(self):
        rng = random.Random(107)
        rows = rand_matrix(rng, 6)
        swapped = [rows[0], rows[4], rows[2], rows[3], rows[1], rows[5]]
        assert determinant(SquareMatrix(swapped)) == -determinant(SquareMatrix(rows))

    def test_result_independent_of_row_order(self):
        # a full reversal of 6 rows is an even permutation only for some n;
        # compare with the sign of the permutation explicitly
        rng = random.Random(108)
        rows = rand_matrix(rng, 6)
        reversed_rows = rows[::-1]
        sign = (-1) ** (6 * 5 // 2)
        assert determinant(SquareMatrix(reversed_rows)) == sign * determinant(SquareMatrix(rows))

    def test_zero_leading_pivot_is_handled(self):
        rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert determinant(SquareMatrix(rows)) == -1

    def test_float_mode_agrees_with_exact(self):
        rng = random.Random(109)
        rows = rand_matrix(rng, 6)
        exact = determinant(SquareMatrix(rows))
        approx = determinant(SquareMatrix([[float(x) for x in r] for r in rows]))
        assert math.isclose(float(exact), approx, rel_tol=1e-10)

    def test_complex_entries(self):
        m = SquareMatrix([[1 + 1j, 2.0], [0.5, 1 - 1j]])
        expected = (1 + 1j) * (1 - 1j) - 2.0 * 0.5
        assert abs(determinant(m) - expected) < 1e-12

    def test_non_finite_entry_rejected(self):
        with pytest.raises(NonFiniteEntry):
            determinant(SquareMatrix([[float("inf"), 1.0], [0.0, 1.0]]))

    def test_float_row_swaps_against_cofactors(self):
        # a zero leading entry forces LU to swap rows before the first step
        rng = random.Random(118)
        draws = (lambda: rng.uniform(-1, 1),
                 lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        for draw in draws:
            for _ in range(3):
                rows = [[draw() for _ in range(6)] for _ in range(6)]
                rows[0][0] = 0.0
                got, want = determinant(SquareMatrix(rows)), det_by_cofactors(rows)
                assert type(got) is type(want)
                assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    def test_float_overflow_is_typed_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEntry):
                determinant(SquareMatrix([[1e200, 0.0], [0.0, 1e200]]))


def sylvester(order):
    """Sylvester's Hadamard matrix: |det| = order^(order/2), the Hadamard bound itself."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


class TestExactKernel:
    """The multimodular exact determinant against Bareiss elimination (``==``)."""

    @staticmethod
    def check(rows):
        got = determinant(SquareMatrix(rows))
        assert got == det_by_bareiss(rows)
        return got

    def test_seeded_rational_matrices(self):
        rng = random.Random(110)
        for n in range(1, 13):
            for _ in range(3):
                # numerators from 1 to 40 digits, denominators up to 25 digits
                rows = [[Fraction(rng.randint(-10 ** rng.randint(0, 40), 10 ** rng.randint(0, 40)),
                                  rng.randint(1, 10 ** rng.randint(0, 25)))
                         for _ in range(n)] for _ in range(n)]
                self.check(rows)

    def test_hadamard_matrices_sit_at_the_bound(self):
        rng = random.Random(111)
        for order in (1, 2, 4, 8, 16):
            h = sylvester(order)
            assert abs(self.check(h)) == order ** (order // 2)
            self.check([[-x for x in row] for row in h])
            self.check(rng.sample(h, order))

    def test_zero_leading_entry_modulo_the_first_prime(self):
        # 67,108,859 is the largest prime below 2^26, the first the kernel uses;
        # modulo it the (1,1) entry vanishes and the pivot row is swapped
        rng = random.Random(112)
        p = int(linalg._PRIMES[0])
        assert p == 67_108_859
        rows = [[rand_fraction(rng) for _ in range(5)] for _ in range(5)]
        rows[0][0] = Fraction(3 * p)
        self.check(rows)
        self.check([[p, 1], [1, 1]])

    def test_residues_at_the_edge_of_the_symmetric_range(self):
        # every entry is within 2 of +-(p - 1)/2 modulo each prime of the first
        # block, so the first update piv * a - c * d reaches 2 (p/2)^2, about 2^51
        rng = random.Random(117)
        primes = linalg._PRIMES[:linalg._BLOCK].tolist()
        modulus = math.prod(primes)

        def entry():
            x = 0
            for q in primes:
                r = rng.choice((-1, 1)) * ((q - 1) // 2 - rng.randint(0, 2))
                rest = modulus // q
                x += r * rest * pow(rest, -1, q)
            return x % modulus - modulus // 2

        for n in (2, 5, 8):
            for _ in range(2):
                self.check([[entry() for _ in range(n)] for _ in range(n)])

    def test_singular_matrices(self):
        rng = random.Random(113)
        row = [rand_fraction(rng) for _ in range(6)]
        rows = [[rand_fraction(rng) for _ in range(6)] for _ in range(6)]
        rows[1], rows[4] = row, list(row)
        assert self.check(rows) == 0
        rows[2] = [Fraction(0)] * 6
        assert self.check(rows) == 0
        for two_s, n in ((1, 4), (3, 5), (6, 3)):
            limit = build_J_limit(SpinSystem(two_s, tuple(range(n))))
            assert determinant(limit) == 0 == det_by_bareiss(limit.entries)

    def test_wide_spin_half_matrix(self):
        system, nu = random_instance(1, 36, random.Random(114))
        j = build_J_higher(system, build_gamma_table(system, nu))
        assert determinant(j) == det_by_bareiss(j.entries)

    def test_primes_continue_past_the_import_time_window(self):
        # bounds beyond the ~190k bits of the window sieved at import draw
        # from further windows, sieved on demand
        k = len(linalg._PRIMES)
        drawn = list(itertools.islice(linalg._primes(), k - 40, k + 40))
        assert drawn[39] == linalg._PRIMES[-1]
        span = range(drawn[-1], drawn[0] + 1)
        assert drawn == [x for x in reversed(span) if x % 2 and all(x % d for d in range(3, 46341, 2))]

    def test_reduction_of_values_longer_than_one_limb_chunk(self):
        # all-ones limbs make each chunk's sum as large as it gets: a chunk four
        # times longer would pass 2^53 and round when converted to float64
        rng = random.Random(116)
        values = [rng.getrandbits(600_000), -rng.getrandbits(17), 0, -rng.getrandbits(524_300),
                  (1 << 70_000) - 1, -((1 << 16 * 5000) - 1)]
        primes = linalg._PRIMES[:8].tolist() + [65537]
        limbs, signs = linalg._limbs(values)
        assert limbs.shape[1] > 4 * linalg._LIMB_CHUNK
        p = np.array(primes, dtype=np.float64)
        got = linalg._reduce(limbs, signs, p, 1 / p)
        for col, q in zip(got.T.tolist(), primes):
            assert [int(r) % q for r in col] == [x % q for x in values]
            assert all(abs(r) <= q / 2 + 1 for r in col)


def test_values_agree_modes():
    assert values_agree(Fraction(1, 3), Fraction(1, 3), exact=True)
    assert not values_agree(Fraction(1, 3), Fraction(1, 2), exact=True)
    assert values_agree(Fraction(0), Fraction(0), exact=True)
    assert values_agree(1.0, 1.0 + 1e-12, exact=False)
    assert not values_agree(1.0, 1.001, exact=False)


def test_float_sides_without_significant_digits_never_agree():
    tiny = sys.float_info.min
    assert values_agree(tiny, tiny, exact=False)
    for left, right in ((0.0, 0.0), (tiny / 2, tiny / 2), (0.0, -5e-324), (0j, 0j)):
        assert not values_agree(left, right, exact=False)
    # the padded permanent and the determinant both underflow to 0.0 here,
    # while the subset sum of Cauchy permanents is 6.75e-301
    assert not boson_sum_determinant((1e300, 2e300, 5.0), (0.0, 1.0)).holds
