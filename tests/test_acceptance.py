"""Acceptance suite: one test per criterion, each printing a pass line.

Exact-mode criteria decide with rational equality, never tolerances; the
solver criteria use the stated float tolerances.  Run with ``pytest -v``
(or ``-s`` to see the per-criterion lines).
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from rgdwpf.bethe import (
    CouplingModel,
    LambdaVars,
    lambdas_from_rapidities,
    quad_jacobian,
    quad_residuals,
    richardson_residuals,
    solve_quadratic_bethe,
    solve_richardson,
)
from rgdwpf.checks import check_residue_eps1, check_residue_epsj
from rgdwpf.errors import CostGuard
from rgdwpf.gamma import build_gamma_table, hierarchy
from rgdwpf.linalg import determinant, permanent
from rgdwpf.partition import (
    SpinSystem,
    borchardt_check,
    boson_sum_determinant,
    build_J_higher,
    build_J_limit,
    build_J_spin_half,
    cauchy_matrix,
    random_instance,
    structure_coefficients,
    z_determinant,
    z_permanent,
)

from oracles import (
    gamma_by_leibniz,
    gamma_explicit,
    hierarchy_by_polynomials,
    lambda_derivatives_by_fraction_sums,
    rand_distinct_fractions,
    rand_fraction,
    residue_probe_gaps,
    spin_three_half_worked_coefficients,
)

HIGHER_SPIN_GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
DECADE_OFFSETS = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))


def _announce(num, text):
    print(f"criterion {num:2d} PASS  {text}")


def test_criterion_01_spin_half_identity():
    rng = random.Random(1001)
    start = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for _ in range(50):
            system, nu = random_instance(1, n, rng)
            lhs = permanent(cauchy_matrix(nu, system.epsilons))
            rhs = determinant(build_J_spin_half(system.epsilons, nu))
            assert lhs == rhs
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(1, f"spin-1/2 permanent == determinant on {checked} instances "
                 f"({elapsed:.2f} s)")


def test_criterion_02_higher_spin_identity():
    rng = random.Random(1002)
    start = time.perf_counter()
    checked = 0
    for two_s, n in HIGHER_SPIN_GRID:
        for _ in range(20):
            system, nu = random_instance(two_s, n, rng)
            assert z_permanent(system, nu).value == z_determinant(system, nu).value
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    for two_s, n in [(12, 4), (20, 3), (30, 3), (60, 2)]:
        for _ in range(2):
            system, nu = random_instance(two_s, n, rng)
            assert z_permanent(system, nu).value == z_determinant(system, nu).value
            checked += 1
    _announce(2, f"higher-spin permanent route == determinant route on {checked} "
                 f"instances, 2S up to 60 (grid {elapsed:.2f} s)")


def test_criterion_03_spin_half_reduction():
    rng = random.Random(1003)
    for n in range(2, 7):
        for _ in range(5):
            system, nu = random_instance(1, n, rng)
            table = build_gamma_table(system, nu)
            assert build_J_higher(system, *table) == build_J_spin_half(system.epsilons, nu)
    _announce(3, "two_s = 1 matrix is entrywise identical to the spin-1/2 matrix, N = 2..6")


def test_criterion_04_gamma_route_equivalence():
    rng = random.Random(1004)
    for _ in range(20):
        omega = rng.randint(1, 10)
        nu = rand_distinct_fractions(rng, omega)
        z = rand_fraction(rng)
        while z in nu:
            z = rand_fraction(rng)
        tower = lambda_derivatives_by_fraction_sums(nu, z, 5)
        recursive = gamma_by_leibniz(tower, 6)
        quotient = hierarchy_by_polynomials(nu, z, 6)
        truncated = hierarchy(nu, z, 6)
        for order in range(7):
            explicit = gamma_explicit(tower, order)
            assert explicit == recursive[order]
            assert explicit == quotient[order]
            assert explicit == truncated[order]
    _announce(4, "explicit == recursive == polynomial-quotient == truncated-product hierarchy, "
                 "n <= 6, 20 instances")


def test_criterion_05_worked_coefficients():
    rng = random.Random(1005)
    for _ in range(10):
        e1, e2, e3 = rand_distinct_fractions(rng, 3)
        got = structure_coefficients(SpinSystem(two_s=3, epsilons=(e1, e2, e3)))
        want = spin_three_half_worked_coefficients(e1, e2, e3)
        assert got.c11 == want["c11"]
        assert got.c1j == want["c1j"]
        assert got.c0_diag == want["c0_diag"]
        assert got.c1_diag == want["c1_diag"]
        assert got.c0_off == want["c0_off"]
    _announce(5, "two_s = 3 structure coefficients equal the worked three-spin listing, "
                 "10 random triples")


def test_criterion_06_residue_conditions():
    rng = random.Random(1006)
    for two_s, n in HIGHER_SPIN_GRID:
        for _ in range(3):
            system, nu = random_instance(two_s, n, rng)
            prefix = nu[:-1]
            report = check_residue_eps1(system, prefix)
            assert report.holds
            assert report.left == report.right
            gaps = residue_probe_gaps(system, prefix, DECADE_OFFSETS)
            assert gaps[1] * 10 <= gaps[0]
            assert gaps[2] * 10 <= gaps[1]
            if n >= 3:
                for j in range(2, n + 1):
                    report = check_residue_epsj(system, prefix, j)
                    assert report.holds
                    assert report.left == report.right
    _announce(6, "residues at every admissible pole match the reduced systems exactly; "
                 "probe gap shrinks >= 10x per decade at the large-spin pole")


def test_criterion_07_limit_conditions():
    rng = random.Random(1007)
    for two_s, n in HIGHER_SPIN_GRID:
        system, nu = random_instance(two_s, n, rng)
        assert determinant(build_J_limit(system)) == 0
        z_slow = abs(z_determinant(system, tuple(v * 10 ** 3 for v in nu)).value)
        z_fast = abs(z_determinant(system, tuple(v * 10 ** 6 for v in nu)).value)
        assert z_fast * 10 ** 2 <= z_slow
    _announce(7, "limit matrix singular on the whole grid; |Z| falls by >= 100x "
                 "under 10^3 -> 10^6 rapidity scaling")


def test_criterion_08_borchardt():
    rng = random.Random(1008)
    checked = 0
    for n in range(1, 9):
        for _ in range(20):
            eps = rand_distinct_fractions(rng, n)
            nu = rand_distinct_fractions(rng, n, avoid=eps)
            result = borchardt_check(nu, eps)
            assert result.holds
            assert result.det_c * result.perm_c == result.det_m
            checked += 1
    _announce(8, f"det C * perm C == det of the squared matrix on {checked} instances, N <= 8")


def test_criterion_09_boson_sum():
    rng = random.Random(1009)
    for n, extra in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        for _ in range(10):
            eps = rand_distinct_fractions(rng, n)
            nu = rand_distinct_fractions(rng, n + extra, avoid=eps)
            result = boson_sum_determinant(nu, eps)
            assert result.holds
            assert result.sum_of_permanents == result.det_j_tilde
    _announce(9, "subset sum of permanents equals the oversized-set determinant, "
                 "(N, M) in {(2,1),(3,1),(3,2),(4,2)}")


def test_criterion_10_bethe_cross_route():
    rng = np.random.default_rng(1010)
    for n, m, g in [(2, 1, 0.5), (3, 1, 1.0), (4, 2, 0.2), (4, 2, 1.0)]:
        model = CouplingModel(g=g, eps=tuple(float(i) for i in range(n)), m=m)
        occupation = (1,) * m + (0,) * (n - m)
        lv = solve_quadratic_bethe(model, occupation)
        assert max(abs(r) for r in quad_residuals(lv, model)) < 1e-12
        state = solve_richardson(model, tuple(range(m)))
        assert max(abs(r) for r in richardson_residuals(state, model)) < 1e-12
        induced = lambdas_from_rapidities(state, model.eps)
        assert max(abs(a - b) for a, b in zip(induced.values, lv.values)) < 1e-8

        point = rng.uniform(-2, 2, size=n)
        jac = quad_jacobian(LambdaVars(tuple(point)), model)
        h = 1e-6
        for k in range(n):
            up, dn = point.copy(), point.copy()
            up[k] += h
            dn[k] -= h
            fd = (quad_residuals(LambdaVars(tuple(up)), model)
                  - quad_residuals(LambdaVars(tuple(dn)), model)) / (2 * h)
            rel = np.abs(jac[:, k] - fd) / np.maximum(np.abs(jac[:, k]), 1e-12)
            assert np.max(rel) < 1e-5
    _announce(10, "quadratic and rapidity routes agree within 1e-8 at residuals < 1e-12; "
                  "Jacobian matches finite differences")


def test_criterion_11_cost_gap():
    system = SpinSystem(two_s=2, epsilons=tuple(float(i) for i in range(40)))
    nu = tuple(50.5 + 1.25 * k for k in range(system.omega))
    start = time.perf_counter()
    value = z_determinant(system, nu).value
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert value == 8.540452813483979e-22  # the exact Z at these dyadic inputs, rounded once

    guarded = SpinSystem(two_s=2, epsilons=tuple(Fraction(i) for i in range(22)))
    too_many = tuple(Fraction(100 + i) for i in range(guarded.omega))
    start = time.perf_counter()
    with pytest.raises(CostGuard):
        z_permanent(guarded, too_many)
    assert time.perf_counter() - start < 0.1  # refused before any sign loop runs
    _announce(11, f"correctly rounded float determinant route at N = 40 took "
                  f"{elapsed * 1000:.0f} ms; "
                  f"permanent route refused by its work guard at 2S = 2, N = 22")
