import random
from fractions import Fraction as F

import pytest

from rgdwpf import bethe, partition
from rgdwpf.linalg import SquareMatrix, determinant
from rgbench.oracles import (
    PRIMES,
    det_mod,
    j_spin_half_mod,
    quad_residual_max,
    residue,
    z_permanent_mod,
)

SMALL = {
    "random": [[F(3, 7), F(-2), F(5, 11)], [F(1, 2), F(4, 3), F(-9)], [F(7), F(1, 5), F(2, 9)]],
    "singular": [[F(1, 2), F(1, 3), F(1)], [F(1), F(2, 3), F(2)], [F(5), F(-1), F(7, 4)]],
    "zero_leading_pivot": [[F(0), F(2), F(1, 3)], [F(5, 2), F(1), F(0)], [F(-1), F(4), F(6)]],
    "zero_column": [[F(0), F(1)], [F(0), F(3, 5)]],
    "one_by_one": [[F(-8, 3)]],
}


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("p", PRIMES)
def test_det_mod_matches_linalg_determinant(name, p):
    rows = SMALL[name]
    assert det_mod(rows, p) == residue(determinant(SquareMatrix(rows)), p)


def test_det_mod_of_singular_matrix_is_zero():
    assert determinant(SquareMatrix(SMALL["singular"])) == 0
    assert det_mod(SMALL["singular"], PRIMES[0]) == 0


def test_residue_refuses_a_denominator_divisible_by_p():
    with pytest.raises(ZeroDivisionError):
        residue(F(1, 7), 7)


def test_j_spin_half_mod_matches_the_program_matrix():
    rng = random.Random(3)
    system, nu = partition.random_instance(1, 5, rng)
    j = partition.build_J_spin_half(system.epsilons, nu)
    p = PRIMES[0]
    assert j_spin_half_mod(system.epsilons, nu, p) == [
        [residue(x, p) for x in row] for row in j.entries]


@pytest.mark.parametrize("two_s, n", [(1, 4), (2, 3), (3, 3), (6, 2)])
def test_z_permanent_mod_matches_z_permanent(two_s, n):
    system, nu = partition.random_instance(two_s, n, random.Random(two_s * 10 + n))
    z = partition.z_permanent(system, nu).value
    for p in PRIMES:
        assert z_permanent_mod(two_s, system.epsilons, nu, p) == residue(z, p)


def test_quad_residual_matches_solver_and_catches_a_wrong_state():
    levels = tuple(float(i) for i in range(8))
    model = bethe.CouplingModel(g=0.5, eps=levels, m=3)
    lv = bethe.solve_quadratic_bethe(model, (1, 0, 1, 0, 0, 1, 0, 0))
    solver_view = max(abs(r) for r in bethe.quad_residuals(lv, model))
    ours = quad_residual_max(lv.values, levels, 0.5)
    assert ours < 1e-12
    assert ours == pytest.approx(solver_view, abs=1e-13)
    wrong = list(lv.values)
    wrong[2] += 1e-9
    assert quad_residual_max(wrong, levels, 0.5) > 1e-10
