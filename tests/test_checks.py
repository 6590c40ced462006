import random
from dataclasses import replace
from fractions import Fraction

import pytest

import rgdwpf.checks as checks
from rgdwpf.checks import (
    borchardt_sweep,
    boson_sweep,
    check_infinity_limit,
    check_residue_eps1,
    check_residue_epsj,
    identity_sweep,
    limit_sweep,
    pole_residues,
    residue_sweep,
)
from rgdwpf.errors import CardinalityMismatch
from rgdwpf.partition import SpinSystem, random_instance, z_determinant

from oracles import residue_probe_gaps


def prefix_instance(two_s, n, seed):
    system, nu = random_instance(two_s, n, random.Random(seed))
    return system, nu[:-1]


class TestPoleResidues:
    def test_spin_half_pair_by_hand(self):
        # Z(x) for one remaining rapidity has residue 1/(nu1 - eps1) at
        # eps2 and the matching reduced value at eps1
        system = SpinSystem(two_s=1, epsilons=(Fraction(0), Fraction(1)))
        nu1 = Fraction(3)
        res = pole_residues(system, (nu1,))
        assert res[1] == 1 / (nu1 - 0)
        assert res[0] == 1 / (nu1 - 1)

    def test_residues_reconstruct_z(self):
        for two_s, n in [(2, 3), (1, 5), (4, 2)]:
            system, prefix = prefix_instance(two_s, n, 61)
            res = pole_residues(system, prefix)
            probe = Fraction(17, 3)
            direct = z_determinant(system, prefix + (probe,)).value
            assert direct == sum(r / (probe - e) for r, e in zip(res, system.epsilons))


class TestResidueEps1:
    def test_spin_half_base_case(self):
        system, prefix = prefix_instance(1, 2, 62)
        report = check_residue_eps1(system, prefix)
        assert report.holds
        assert report.left == report.right

    def test_spin_one(self):
        system, prefix = prefix_instance(2, 2, 63)
        report = check_residue_eps1(system, prefix)
        assert report.holds

    def test_spin_three_half(self):
        system, prefix = prefix_instance(3, 3, 64)
        report = check_residue_eps1(system, prefix)
        assert report.holds

    def test_prefix_length_checked(self):
        system, prefix = prefix_instance(2, 2, 63)
        for wrong in (prefix[:-1], prefix + (Fraction(101, 7),)):
            with pytest.raises(CardinalityMismatch):
                check_residue_eps1(system, wrong)

    def test_requires_positive_spin(self):
        system = SpinSystem(two_s=0, epsilons=(Fraction(0), Fraction(1)))
        with pytest.raises(CardinalityMismatch):
            check_residue_eps1(system, ())


class TestResidueEpsj:
    def test_spin_half_pair(self):
        system, prefix = prefix_instance(1, 2, 65)
        report = check_residue_epsj(system, prefix, 2)
        assert report.holds
        assert report.right == 1 / (prefix[0] - system.epsilons[0])

    def test_spin_one_three_spins_last(self):
        system, prefix = prefix_instance(2, 3, 66)
        assert check_residue_epsj(system, prefix, 3).holds

    def test_spin_one_three_spins_middle(self):
        system, prefix = prefix_instance(2, 3, 66)
        assert check_residue_epsj(system, prefix, 2).holds

    def test_spin_index_checked(self):
        system, prefix = prefix_instance(1, 3, 68)
        for j in (0, 1, 4):
            with pytest.raises(CardinalityMismatch):
                check_residue_epsj(system, prefix, j)

    def test_unsupported_removal_rejected(self):
        system, prefix = prefix_instance(2, 2, 67)
        with pytest.raises(CardinalityMismatch):
            check_residue_epsj(system, prefix, 2)


class TestProbeGaps:
    def test_first_order_shrink(self):
        system, prefix = prefix_instance(2, 3, 68)
        ts = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
        gaps = residue_probe_gaps(system, prefix, ts)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] * 10 <= gaps[0]
        assert gaps[2] * 10 <= gaps[1]


class TestInfinityLimit:
    def test_exact_decrease_and_singular_limit(self):
        system, nu = random_instance(2, 2, random.Random(69))
        report = check_infinity_limit(system, nu)
        assert report.holds
        assert report.left == report.right == 0
        magnitudes = [abs(z_determinant(system, tuple(v * t for v in nu)).value)
                      for t in (10 ** 3, 10 ** 6)]
        assert magnitudes[0] > magnitudes[1]

    def test_spin_half_many_spins(self):
        system, nu = random_instance(1, 3, random.Random(70))
        assert check_infinity_limit(system, nu).holds


class TestPoleCertificate:
    @staticmethod
    def add_to_z(monkeypatch, system, term):
        """Add term(x) to Z of ``system`` only, x its last rapidity."""
        exact = checks.z_determinant

        def mutated(sys_, nu):
            result = exact(sys_, nu)
            if sys_ != system:
                return result
            return replace(result, value=result.value + term(nu[-1]))

        monkeypatch.setattr(checks, "z_determinant", mutated)

    def test_constant_offset_fails_the_limit(self, monkeypatch):
        system, nu = random_instance(2, 3, random.Random(78))
        self.add_to_z(monkeypatch, system, lambda x: Fraction(1, 3))
        report = check_infinity_limit(system, nu)
        assert report.left == Fraction(1, 3)
        assert not report.holds
        assert not check_residue_eps1(system, nu[:-1]).holds

    def test_double_pole_fails_the_extra_sample(self, monkeypatch):
        system, prefix = prefix_instance(2, 3, 79)
        e2 = system.epsilons[1]
        self.add_to_z(monkeypatch, system, lambda x: Fraction(1, 5) / (x - e2) ** 2)
        for report in (check_residue_eps1(system, prefix),
                       check_residue_epsj(system, prefix, 2)):
            assert not report.holds
            assert "extra sample disagrees" in report.detail

    def test_inexact_input_rejected(self):
        system, nu = random_instance(2, 3, random.Random(80))
        for convert in (float, lambda v: complex(v, 1)):
            inexact = SpinSystem(two_s=2, epsilons=tuple(convert(e) for e in system.epsilons))
            nu_inexact = tuple(convert(v) for v in nu)
            prefix = nu_inexact[:-1]
            for call in (lambda: pole_residues(inexact, prefix),
                         lambda: check_residue_eps1(inexact, prefix),
                         lambda: check_residue_epsj(inexact, prefix, 2),
                         lambda: check_infinity_limit(inexact, nu_inexact)):
                with pytest.raises(ValueError):
                    call()


class TestIdentitySweep:
    def test_small_grid_holds(self):
        reports = identity_sweep([(1, 3), (2, 2)], trials=4, seed=71)
        assert len(reports) == 8
        assert all(r.holds for r in reports)
        assert all(r.mode == "exact" for r in reports)

    def test_reproducible(self):
        a = identity_sweep([(2, 3)], trials=3, seed=72)
        b = identity_sweep([(2, 3)], trials=3, seed=72)
        assert a == b

    def test_float_mode(self):
        reports = identity_sweep([(2, 2)], trials=3, seed=73, mode="f64")
        assert all(r.holds for r in reports)
        assert all(r.mode == "f64" for r in reports)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            identity_sweep([(1, 2)], trials=1, seed=0, mode="f32")


class TestSuiteDrivers:
    def test_residue_sweep(self):
        reports = residue_sweep([(2, 3)], trials=2, seed=74)
        assert all(r.holds for r in reports)
        kinds = {r.check for r in reports}
        assert kinds == {"residue_eps1", "residue_epsj"}

    def test_limit_sweep(self):
        reports = limit_sweep([(1, 2), (3, 2)], trials=2, seed=75)
        assert all(r.holds for r in reports)

    def test_borchardt_sweep(self):
        reports = borchardt_sweep([4], trials=3, seed=76)
        assert all(r.holds for r in reports)

    def test_boson_sweep(self):
        reports = boson_sweep([(2, 1), (3, 1)], trials=3, seed=77)
        assert all(r.holds for r in reports)
