import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from rgdwpf.errors import CardinalityMismatch, ComplexInput, PoleAtEvaluationPoint
from rgdwpf.gamma import build_gamma_table, hierarchy
from rgdwpf.partition import SpinSystem, random_instance

from oracles import (
    ASSEMBLY_GRID,
    assembly_instances,
    assert_reads_floats_exactly,
    gamma_by_leibniz,
    gamma_by_polynomials,
    gamma_explicit,
    gamma_partition_coefficient,
    gamma_table_by_fraction_sums,
    hierarchy_by_polynomials,
    identical,
    lambda_derivatives_by_fraction_sums,
    lambda_derivs_by_quotient_rule,
    rand_distinct_fractions,
    rand_fraction,
)


def gammas_of(tower):
    """G_k = -k! e_k from the tower (e_0, ..., e_2S) that ``build_gamma_table`` returns."""
    return tuple(-factorial(k) * e for k, e in enumerate(tower))


def rand_point(rng, nu):
    z = rand_fraction(rng)
    while z in nu:
        z = rand_fraction(rng)
    return z


class TestLambdaDerivatives:
    """The oracles' derivative tower L^(a)(z) = (-1)^a a! sum_i (z - v_i)^-(a+1)."""

    def test_single_rapidity(self):
        tower = lambda_derivatives_by_fraction_sums((Fraction(0),), Fraction(1), 0)
        assert tower == (Fraction(1),)

    def test_single_rapidity_first_derivative(self):
        tower = lambda_derivatives_by_fraction_sums((Fraction(0),), Fraction(1), 1)
        assert tower == (Fraction(1), Fraction(-1))

    def test_matches_quotient_rule_oracle(self):
        rng = random.Random(21)
        for _ in range(5):
            nu = rand_distinct_fractions(rng, 5)
            z = rand_point(rng, nu)
            tower = lambda_derivatives_by_fraction_sums(nu, z, 4)
            assert list(tower) == lambda_derivs_by_quotient_rule(nu, z, 4)


class TestGammaRecursive:
    """The oracles' Leibniz recursion on the tower."""

    def test_order_zero(self):
        tower = lambda_derivatives_by_fraction_sums((Fraction(2),), Fraction(0), 0)
        assert gamma_by_leibniz(tower, 0) == (-1,)

    def test_order_one_is_minus_lambda(self):
        tower = lambda_derivatives_by_fraction_sums(tuple(map(Fraction, (2, 3, 5))),
                                                    Fraction(0), 0)
        gs = gamma_by_leibniz(tower, 1)
        assert gs[0] == -1
        assert gs[1] == -tower[0]

    def test_matches_polynomial_quotient(self):
        rng = random.Random(22)
        for _ in range(5):
            nu = rand_distinct_fractions(rng, 3)
            z = rand_point(rng, nu)
            gs = gamma_by_leibniz(lambda_derivatives_by_fraction_sums(nu, z, 2), 3)
            assert gs == hierarchy_by_polynomials(nu, z, 3)


class TestPartitionCoefficient:
    def test_order_one(self):
        assert gamma_partition_coefficient((1,), 1) == 1

    def test_order_two(self):
        assert gamma_partition_coefficient((2, 0, 0), 2) == 1
        assert gamma_partition_coefficient((0, 1, 0), 2) == 1

    def test_order_three_mixed_term(self):
        assert gamma_partition_coefficient((1, 1, 0, 0), 3) == 3

    def test_constraint_violation_gives_zero(self):
        assert gamma_partition_coefficient((1, 1), 2) == 0
        assert gamma_partition_coefficient((0, 0, 1), 2) == 0
        assert gamma_partition_coefficient((-1, 1), 1) == 0

    def test_recurrence_substitution(self):
        # every coefficient must satisfy the shift recurrence obtained by
        # differentiating the previous order and regrouping powers; the
        # derivative of a power attributes weight k_b + 1 (the exponent of
        # the source vector) to the regrouped target vector
        for n in range(1, 6):
            for k in product(range(n + 1), repeat=n):
                if sum((a + 1) * ka for a, ka in enumerate(k)) != n:
                    continue
                lowered = (k[0] - 1,) + k[1:]
                rhs = gamma_partition_coefficient(lowered, n - 1)
                for b in range(n - 1):
                    shifted = list(k)
                    shifted[b] += 1
                    shifted[b + 1] -= 1
                    rhs += (k[b] + 1) * gamma_partition_coefficient(tuple(shifted), n - 1)
                assert gamma_partition_coefficient(k, n) == rhs


class TestGammaExplicit:
    def test_order_zero(self):
        tower = lambda_derivatives_by_fraction_sums((Fraction(5),), Fraction(0), 0)
        assert gamma_explicit(tower, 0) == -1

    def test_order_two_closed_form(self):
        rng = random.Random(23)
        nu = rand_distinct_fractions(rng, 4)
        lam, lam1 = lambda_derivatives_by_fraction_sums(nu, Fraction(1, 3), 1)
        assert gamma_explicit((lam, lam1), 2) == -(lam1 + lam * lam)

    def test_three_way_route_equivalence(self):
        # explicit sum == Leibniz recursion == polynomial quotient, and the
        # package's truncated product equals all three
        rng = random.Random(24)
        for _ in range(10):
            omega = rng.randint(1, 10)
            nu = rand_distinct_fractions(rng, omega)
            z = rand_point(rng, nu)
            tower = lambda_derivatives_by_fraction_sums(nu, z, 11)
            recursive = gamma_by_leibniz(tower, 12)
            quotient = hierarchy_by_polynomials(nu, z, 12)
            truncated = hierarchy(nu, z, 12)
            for n in range(13):
                explicit = gamma_explicit(tower, n)
                assert explicit == recursive[n] == quotient[n] == truncated[n]
                if n > omega:
                    # Q has degree omega, so its higher derivatives vanish
                    assert truncated[n] == 0


class TestHierarchy:
    """G_n = -n! P_n / P_0 from P(t) = prod_i (g_i + h_i t), truncated at t^min(n, Omega)."""

    def test_pole_rejected(self):
        with pytest.raises(PoleAtEvaluationPoint):
            hierarchy((Fraction(1, 2), 3), Fraction(1, 2), 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hierarchy((2, 3), 0, -1)

    @pytest.mark.parametrize("two_s, n", [(12, 4), (30, 3), (60, 2)])
    def test_matches_polynomial_quotient_at_high_spin(self, two_s, n):
        system, nu = random_instance(two_s, n, random.Random(f"hierarchy:{two_s}:{n}"))
        eps1 = system.epsilons[0]
        want = hierarchy_by_polynomials(nu, eps1, two_s)
        assert hierarchy(nu, eps1, two_s) == want
        assert gammas_of(build_gamma_table(system, nu)[0]) == want

    def test_exact_zeros_beyond_omega(self):
        rng = random.Random(28)
        for omega in (1, 2, 5, 9, 14):
            nu = rand_distinct_fractions(rng, omega)
            z = rand_point(rng, nu)
            gs = hierarchy(nu, z, omega + 5)
            assert gs[:omega + 1] == hierarchy_by_polynomials(nu, z, omega)
            assert gs[omega] != 0
            # Fractions, so that f64 output rounds them to 0.0
            assert all(type(g) is Fraction and g == 0 for g in gs[omega + 1:])
            assert len(gs) == omega + 6

    def test_reads_floats_exactly(self):
        rng = random.Random(22)
        for _ in range(5):
            nu = rand_distinct_fractions(rng, 3)
            z = rand_point(rng, nu)
            f_nu, f_z = [float(v) for v in nu], float(z)
            got = hierarchy(f_nu, f_z, 4)
            assert identical(got, hierarchy(list(map(Fraction, f_nu)), Fraction(f_z), 4))
            assert got == hierarchy_by_polynomials(list(map(Fraction, f_nu)), Fraction(f_z), 4)
            with pytest.raises(ComplexInput):
                hierarchy([complex(v) for v in nu], complex(z), 2)


class TestGammaTable:
    """``build_gamma_table`` returns (tower, lambdas): e_0..e_2S at eps_1 and L(eps_2..N)."""

    def test_minimal_system(self):
        system = SpinSystem(two_s=1, epsilons=(0,))
        tower, lambdas = build_gamma_table(system, (2,))
        assert tower == (1, Fraction(-1, 2))
        assert gammas_of(tower) == (-1, Fraction(1, 2))
        assert lambdas == ()

    def test_matches_polynomial_oracle(self):
        rng = random.Random(25)
        eps = tuple(rand_distinct_fractions(rng, 2))
        system = SpinSystem(two_s=2, epsilons=eps)
        nu = tuple(rand_distinct_fractions(rng, system.omega, avoid=eps))
        tower, lambdas = build_gamma_table(system, nu)
        for n, g in enumerate(gammas_of(tower)):
            assert g == gamma_by_polynomials(nu, eps[0], n)
        assert -lambdas[0] == gamma_by_polynomials(nu, eps[1], 1)

    def test_gamma0_is_always_minus_one(self):
        rng = random.Random(26)
        for two_s, n in [(1, 1), (2, 2), (4, 3)]:
            eps = tuple(rand_distinct_fractions(rng, n))
            system = SpinSystem(two_s=two_s, epsilons=eps)
            nu = tuple(rand_distinct_fractions(rng, system.omega, avoid=eps))
            tower, _ = build_gamma_table(system, nu)
            assert tower[0] == 1 and gammas_of(tower)[0] == -1

    def test_rapidity_permutation_invariance(self):
        rng = random.Random(27)
        eps = tuple(rand_distinct_fractions(rng, 3))
        system = SpinSystem(two_s=3, epsilons=eps)
        nu = list(rand_distinct_fractions(rng, system.omega, avoid=eps))
        reference = build_gamma_table(system, tuple(nu))
        rng.shuffle(nu)
        assert build_gamma_table(system, tuple(nu)) == reference

    def test_errors(self):
        system = SpinSystem(two_s=1, epsilons=(0, 1))
        with pytest.raises(CardinalityMismatch):
            build_gamma_table(system, (2,))
        with pytest.raises(PoleAtEvaluationPoint):
            build_gamma_table(system, (1, 2))


class TestAgainstTermByTermSums:
    """The truncated product and the one-lcm G_1 sums against the term-by-term
    derivative tower and the Leibniz recursion they replaced.

    Float inputs are read as their Fractions and complex ones are refused.
    """

    @pytest.mark.parametrize("two_s, n", ASSEMBLY_GRID)
    def test_lambda_derivatives(self, two_s, n):
        def package(eps, nu):
            return [hierarchy(nu, z, k) for z in (eps[0], eps[-1]) for k in range(12)]

        def oracle(eps, nu):
            return [gamma_by_leibniz(lambda_derivatives_by_fraction_sums(nu, z, max(k - 1, 0)), k)
                    for z in (eps[0], eps[-1]) for k in range(12)]

        instances = assembly_instances(two_s, n, "lambda")
        assert identical(package(*instances["exact"]), oracle(*instances["exact"]))
        assert_reads_floats_exactly(instances, package, oracle)

    @pytest.mark.parametrize("two_s, n", ASSEMBLY_GRID + ((1, 36),))
    def test_gamma_table(self, two_s, n):
        def package(eps, nu):
            return build_gamma_table(SpinSystem(two_s, eps), nu)

        def oracle(eps, nu):
            return gamma_table_by_fraction_sums(SpinSystem(two_s, eps), nu)

        instances = assembly_instances(two_s, n, "gamma")
        assert identical(package(*instances["exact"]), oracle(*instances["exact"]))
        assert_reads_floats_exactly(instances, package, oracle)
