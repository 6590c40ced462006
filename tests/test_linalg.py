import itertools
import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rgdwpf import linalg
from rgdwpf.errors import ComplexInput, CostGuard, NonFiniteEntry
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


class TestDyadic:
    def test_non_finite_refused(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteEntry):
                linalg.dyadic(x)


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
        # the determinant takes real entries only; the permanent still takes complex ones
        m = SquareMatrix([[1 + 1j, 2.0], [0.5, 1 - 1j]])
        with pytest.raises(ComplexInput):
            determinant(m)
        assert permanent(m) == (1 + 1j) * (1 - 1j) + 2.0 * 0.5

    def test_non_finite_entry_rejected(self):
        with pytest.raises(NonFiniteEntry):
            determinant(SquareMatrix([[float("inf"), 1.0], [0.0, 1.0]]))

    def test_float_row_swaps_against_cofactors(self):
        # a zero leading entry forces a row swap before the first step; the float
        # determinant is the exact one of the dyadic entries, correctly rounded
        rng = random.Random(118)
        for _ in range(3):
            rows = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(6)]
            rows[0][0] = 0.0
            got = determinant(SquareMatrix(rows))
            assert type(got) is float
            assert got == float(det_by_cofactors([[Fraction(x) for x in r] for r in rows]))
            rows[0][1] = complex(rows[0][1], rng.uniform(-1, 1))
            with pytest.raises(ComplexInput):
                determinant(SquareMatrix(rows))

    def test_float_result_is_correctly_rounded_where_float_elimination_fails(self):
        # the rounded 14 x 14 Hilbert matrix: condition number 3e17, where LU in
        # float64 is 39% off its determinant
        rows = [[1 / (i + j + 1) for j in range(14)] for i in range(14)]
        want = det_by_bareiss([[Fraction(x) for x in r] for r in rows])
        assert determinant(SquareMatrix(rows)) == float(want)

    def test_float_result_below_the_subnormals_rounds_to_zero(self):
        tiny = 2.0 ** -600
        assert determinant(SquareMatrix([[tiny, 0.0], [0.0, tiny]])) == 0.0
        # 3 * 2^-1076 is 0.75 of the smallest subnormal, 2^-1074, and rounds up to it
        assert determinant(SquareMatrix([[tiny, 0.0], [0.0, 3 * 2.0 ** -476]])) == 5e-324

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


def wide_spin_half_j():
    system, nu = random_instance(1, 36, random.Random(114))
    return build_J_higher(system, *build_gamma_table(system, nu))


class TestExactKernel:
    """The multimodular exact determinant against Bareiss elimination (``==``)."""

    def test_guard_once_the_primes_run_out(self, monkeypatch):
        # two primes cover the small determinant's bound but not the large one's
        monkeypatch.setattr(linalg, "_primes", lambda: iter(linalg._PRIMES[:2].tolist()))
        assert determinant(SquareMatrix([[1, 2], [3, 4]])) == -2
        with pytest.raises(CostGuard):
            determinant(SquareMatrix([[10 ** 20, 1], [1, 10 ** 20]]))

    @staticmethod
    def check(rows):
        got = determinant(SquareMatrix(rows))
        assert got == det_by_bareiss(rows)
        return got

    @staticmethod
    def record_blocks(monkeypatch):
        """Lists each eliminated block of primes as (its (n, n, B) residues, its signs after)."""
        seen = []
        eliminate = linalg._eliminate

        def spy(a, spare, p, pinv, pivots, sign):
            n = len(pivots)
            residues = a[:n * pivots.size].reshape(n, n, -1).copy()
            eliminate(a, spare, p, pinv, pivots, sign)
            seen.append((residues, sign.copy()))

        monkeypatch.setattr(linalg, "_eliminate", spy)
        return seen

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

    def test_residues_at_the_edge_of_the_symmetric_range(self, monkeypatch):
        # every entry is within 2 of +-(p - 1)/2 modulo each prime of the first
        # block, so the first update piv * a - c * d reaches 2 (p/2)^2, about 2^51
        rng = random.Random(117)
        primes = linalg._PRIMES[:linalg._BLOCK].tolist()
        modulus = math.prod(primes)
        blocks = self.record_blocks(monkeypatch)

        def entry():
            x = 0
            for q in primes:
                r = rng.choice((-1, 1)) * ((q - 1) // 2 - rng.randint(0, 2))
                rest = modulus // q
                x += r * rest * pow(rest, -1, q)
            x %= modulus  # the nearest integer to 0 with these residues
            return x - modulus if 2 * x > modulus else x

        reached = np.zeros(len(primes))
        for n in (2, 5, 8):
            for _ in range(2):
                blocks.clear()
                self.check([[entry() for _ in range(n)] for _ in range(n)])
                r = blocks[0][0]  # the first block's residues, as the kernel holds them
                first = np.abs(r[0, 0] * r[1:, 1:] - r[1:, :1] * r[:1, 1:])
                reached = np.maximum(reached, first.reshape(-1, len(primes)).max(axis=0))
        p = np.array(primes, dtype=np.float64)
        assert (reached >= 2 * ((p - 1) / 2 - 2) ** 2).all()

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
        j = wide_spin_half_j()
        assert determinant(j) == det_by_bareiss(j.entries)

    def test_working_set_of_a_wide_determinant(self):
        # the kernel's share of the peak RSS of the det-wide benchmark, which has a
        # 5% bound: its arrays (limbs, powers, the residues and one spare) fit in 2 MB
        j = wide_spin_half_j()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            determinant(j)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    def test_pivot_vanishing_in_one_lane_of_the_second_block(self, monkeypatch):
        # the leading 2 x 2 minor is q, the prime of lane 3 of the second block: the
        # pivot of step 1 vanishes modulo q only, and only that lane swaps rows
        rng = random.Random(119)
        q = int(linalg._PRIMES[linalg._BLOCK + 3])
        blocks = self.record_blocks(monkeypatch)
        for _ in range(2):
            rows = [[rng.getrandbits(300) - (1 << 299) for _ in range(6)] for _ in range(6)]
            rows[0][0] = 1
            rows[1][1] = rows[0][1] * rows[1][0] + q
            blocks.clear()
            self.check(rows)
            assert len(blocks) == 2
            assert all(blocks[0][1] == 1)
            assert np.flatnonzero(blocks[1][1] == -1).tolist() == [3]

    def test_prime_counts_that_leave_a_partial_last_block(self, monkeypatch):
        rng = random.Random(120)
        widths = set()
        blocks = self.record_blocks(monkeypatch)
        for bits in (40, 200, 230, 260, 420, 450, 650):
            rows = [[rng.getrandbits(bits) - (1 << bits - 1) for _ in range(6)] for _ in range(6)]
            blocks.clear()
            self.check(rows)
            *full, last = [len(sign) for _, sign in blocks]
            assert full == [linalg._BLOCK] * len(full) and 0 < last <= linalg._BLOCK
            widths.add((len(full), last == linalg._BLOCK))
        assert {(0, False), (1, False), (2, False)} <= widths

    def test_one_and_two_rows(self):
        rng = random.Random(121)
        for bits in (1, 26, 700, 3000):  # one block of primes, then several
            for n in (1, 2):
                self.check([[rng.getrandbits(bits) - (1 << bits - 1) for _ in range(n)]
                            for _ in range(n)])
                self.check([[Fraction(rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1)
                             for _ in range(n)] for _ in range(n)])
        q = int(linalg._PRIMES[linalg._BLOCK + 1])
        for rows in ([[0]], [[-7]], [[q]], [[0, 0], [0, 0]], [[0, 1], [1, 0]], [[q, 1], [1, 1]],
                     [[q << 2000, 1], [3, 5 << 2000]], [[2, 4], [3, 6]]):
            self.check(rows)

    def test_primes_continue_past_the_import_time_window(self):
        # bounds beyond the ~190k bits of the window sieved at import draw
        # from further windows, sieved on demand
        k = len(linalg._PRIMES)
        drawn = list(itertools.islice(linalg._primes(), k - 40, k + 40))
        assert drawn[39] == linalg._PRIMES[-1]
        span = range(drawn[-1], drawn[0] + 1)
        assert drawn == [x for x in reversed(span) if x % 2 and all(x % d for d in range(3, 46341, 2))]

    def test_power_tables_of_several_groups_of_primes(self, monkeypatch):
        # a 10 x 10 matrix tables its limb powers for as many whole blocks as its
        # 100 entries outnumber; 600-bit entries need several such tables
        rng = random.Random(118)
        tables = []
        limb_powers = linalg._limb_powers

        def spy(width, p):
            tables.append(len(p))
            return limb_powers(width, p)

        monkeypatch.setattr(linalg, "_limb_powers", spy)
        for _ in range(3):
            tables.clear()
            self.check([[rng.getrandbits(600) - (1 << 599) for _ in range(10)] for _ in range(10)])
            assert len(tables) >= 3 and tables[0] >= 2 * linalg._BLOCK

    def test_reduction_of_values_longer_than_one_limb_chunk(self):
        # all-ones limbs make each chunk's sum as large as it gets: a chunk four
        # times longer would pass 2^53 and round in the float64 product
        rng = random.Random(116)
        values = [rng.getrandbits(600_000), -rng.getrandbits(17), 0, -rng.getrandbits(524_300),
                  (1 << 70_000) - 1, -((1 << 16 * 5000) - 1)]
        primes = linalg._PRIMES[:8].tolist() + [65537]
        limbs, signs = linalg._limbs(values)
        assert limbs.shape[1] > 4 * linalg._LIMB_CHUNK
        p = np.array(primes, dtype=np.float64)
        got, scratch = np.empty((2, len(values), len(p)))
        linalg._reduce(limbs, signs, linalg._limb_powers(limbs.shape[1], p), p, 1 / p, got, scratch)
        assert got.dtype == np.float64
        for col, q in zip(got.T.tolist(), primes):
            assert [int(r) % q for r in col] == [x % q for x in values]
            assert all(abs(r) <= q / 2 + 1 for r in col)

        # the largest terms: 0xFFFF limbs against powers at p - 1, so each
        # 2^10-limb chunk sums to about 2^52 - 2^37 before the residue is added
        width = 5 * linalg._LIMB_CHUNK
        values = [(1 << 16 * width) - 1, -((1 << 16 * width) - 1)]
        limbs, signs = linalg._limbs(values)
        assert (limbs[:, :width] == 0xFFFF).all()
        p = np.array(primes[:8], dtype=np.float64)
        powers = np.tile(p - 1, (limbs.shape[1], 1))
        got, scratch = np.empty((2, len(values), len(p)))
        linalg._reduce(limbs, signs, powers, p, 1 / p, got, scratch)
        assert got.dtype == np.float64
        for col, q in zip(got.T.tolist(), primes):
            assert [int(r) % q for r in col] == [-width * 0xFFFF % q, width * 0xFFFF % q]
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
    # both sides are decided exactly and rounded once, so no side underflows:
    # the subset sum of Cauchy permanents here is 6.75e-301
    result = boson_sum_determinant((1e300, 2e300, 5.0), (0.0, 1.0))
    assert result.holds
    assert result.sum_of_permanents == result.det_j_tilde
    assert math.isclose(result.det_j_tilde, 6.75e-301, rel_tol=1e-12)
