import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rgdwpf
from rgdwpf.cli import run
from rgdwpf.partition import SpinSystem, random_instance, z_permanent

from oracles import (
    gamma_by_polynomials,
    rand_distinct_fractions,
    spin_three_half_worked_coefficients,
    structure_coefficients_by_fraction_sums,
)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def as_fraction(obj):
    return Fraction(int(obj["num"]), int(obj["den"]))


class TestPf:
    def test_both_methods_agree(self, capsys):
        code, doc = run_json(capsys, ["pf", "--two-s", "2", "--eps", "0,1",
                                      "--nu", "2,3,5", "--method", "both"])
        assert code == 0
        assert doc["schema"] == "rg-dwpf/1"
        assert doc["equal"] is True
        assert as_fraction(doc["permanent"]) == as_fraction(doc["determinant"])

    def test_disagreeing_methods_exit_code(self, capsys, monkeypatch):
        from rgdwpf import partition

        z_determinant = partition.z_determinant
        monkeypatch.setattr(partition, "z_determinant", lambda system, nu: replace(
            z_determinant(system, nu), value=Fraction(1, 3)))
        code, doc = run_json(capsys, ["pf", "--two-s", "2", "--eps", "0,1",
                                      "--nu", "2,3,5", "--method", "both"])
        assert code == 2
        assert doc["equal"] is False
        assert as_fraction(doc["permanent"]) == Fraction(19, 60)
        assert as_fraction(doc["determinant"]) == Fraction(1, 3)

    def test_det_method_value(self, capsys):
        code, doc = run_json(capsys, ["pf", "--two-s", "2", "--eps", "0,1",
                                      "--nu", "2,3,5", "--method", "det",
                                      "--mode", "exact"])
        assert code == 0
        assert doc["method"] == "determinant"
        assert as_fraction(doc["value"]) == Fraction(19, 60)

    def test_fraction_inputs(self, capsys):
        code, doc = run_json(capsys, ["pf", "--two-s", "1", "--eps", "0",
                                      "--nu", "1/2", "--method", "perm"])
        assert code == 0
        assert as_fraction(doc["value"]) == Fraction(2)

    def test_byte_identical_reruns(self, capsys):
        argv = ["pf", "--two-s", "3", "--eps", "0,1,2", "--nu", "3,4,5,6,7"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_exact_rejects_complex(self, capsys):
        code, doc = run_json(capsys, ["pf", "--two-s", "1", "--eps", "0",
                                      "--nu", "1+2j", "--mode", "exact"])
        assert code == 1
        assert doc["error"]["kind"] == "usage"

    def test_float_mode_accepts_complex(self, capsys):
        # the permanent route takes complex rapidities; the determinant route refuses them
        argv = ["pf", "--two-s", "1", "--eps", "0,1", "--nu", "2+1j,3", "--mode", "f64"]
        code, doc = run_json(capsys, argv + ["--method", "perm"])
        assert code == 0
        assert set(doc["value"]) == {"re", "im"}
        for method in ("det", "both"):
            code, doc = run_json(capsys, argv + ["--method", method])
            assert code == 1
            assert doc["error"]["kind"] == "ComplexInput"

    def test_overflow_is_a_numerical_failure(self, capsys):
        for method in ("perm", "det"):
            code, doc = run_json(capsys, ["pf", "--two-s", "1", "--eps", "0,1e-300",
                                          "--nu", "2e-300,3e-300", "--mode", "f64",
                                          "--method", method])
            assert code == 3, method
            assert doc["error"]["kind"] == "NonFiniteEntry"

    def test_float_determinant_is_the_rounded_exact_value(self, capsys):
        # 0.1 and 0.3 are dyadic rationals near 1/10 and 3/10; Z is rounded once
        code, doc = run_json(capsys, ["pf", "--two-s", "2", "--eps", "0,0.1",
                                      "--nu", "0.3,0.7,1.9", "--mode", "f64",
                                      "--method", "det"])
        _, exact = run_json(capsys, ["pf", "--two-s", "2", "--eps", "0,0.1",
                                     "--nu", "0.3,0.7,1.9", "--method", "det"])
        assert code == 0
        system = SpinSystem(2, (Fraction(0), Fraction(0.1)))
        want = z_permanent(system, tuple(map(Fraction, (0.3, 0.7, 1.9)))).value
        assert doc["value"] == float(want) != float(as_fraction(exact["value"]))

    def test_pole_is_a_usage_failure(self, capsys):
        code, doc = run_json(capsys, ["pf", "--two-s", "1", "--eps", "0,1",
                                      "--nu", "0,2"])
        assert code == 1
        assert doc["error"]["kind"] == "PoleAtEvaluationPoint"

    def test_negative_two_s_is_usage_error(self, capsys):
        code, doc = run_json(capsys, ["pf", "--two-s", "-1", "--eps", "0",
                                      "--nu", "1"])
        assert code == 1
        assert doc["error"]["kind"] == "usage"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "z.json"
        code = run(["pf", "--two-s", "1", "--eps", "0", "--nu", "2",
                    "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert as_fraction(doc["determinant"]) == Fraction(1, 2)


class TestVerify:
    def test_identity_suite(self, capsys):
        code, doc = run_json(capsys, ["verify", "--suite", "identity",
                                      "--two-s", "1", "--n", "4",
                                      "--trials", "5", "--seed", "42"])
        assert code == 0
        assert doc["passed"] == 5
        assert doc["failed"] == 0
        assert len(doc["reports"]) == 5

    def test_residues_suite(self, capsys):
        code, doc = run_json(capsys, ["verify", "--suite", "residues",
                                      "--two-s", "2", "--n", "3",
                                      "--trials", "2", "--seed", "1"])
        assert code == 0
        assert doc["failed"] == 0

    def test_limit_suite(self, capsys):
        code, doc = run_json(capsys, ["verify", "--suite", "limit",
                                      "--two-s", "2", "--n", "2",
                                      "--trials", "2", "--seed", "1"])
        assert code == 0

    def test_borchardt_suite(self, capsys):
        code, doc = run_json(capsys, ["verify", "--suite", "borchardt",
                                      "--n", "5", "--trials", "4", "--seed", "2"])
        assert code == 0
        assert doc["passed"] == 4

    def test_boson_suite(self, capsys):
        code, doc = run_json(capsys, ["verify", "--suite", "boson", "--n", "3",
                                      "--m", "2", "--trials", "3", "--seed", "3"])
        assert code == 0
        assert doc["passed"] == 3

    def test_reports_carry_their_evidence(self, capsys):
        _, doc = run_json(capsys, ["verify", "--suite", "identity", "--two-s", "2",
                                   "--n", "3", "--trials", "1", "--seed", "5"])
        rep = doc["reports"][0]
        assert (rep["mode"], rep["detail"]) == ("exact", "")
        system, nu = random_instance(2, 3, random.Random(5))
        assert as_fraction(rep["left"]) == as_fraction(rep["right"]) == \
            z_permanent(system, nu).value
        _, doc = run_json(capsys, ["verify", "--suite", "residues", "--two-s", "2",
                                   "--n", "3", "--trials", "1", "--seed", "1"])
        for rep in doc["reports"]:
            assert rep["mode"] == "exact" and rep["detail"]
            assert isinstance(rep["left"]["num"], str) and rep["left"] == rep["right"]
        _, doc = run_json(capsys, ["verify", "--suite", "identity", "--two-s", "1",
                                   "--n", "3", "--trials", "1", "--mode", "f64"])
        assert isinstance(doc["reports"][0]["left"], float)

    def test_csv_format(self, capsys):
        code = run(["verify", "--suite", "identity", "--two-s", "1", "--n", "3",
                    "--trials", "2", "--seed", "4", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,two_s,n,trial,holds"
        assert lines[1] == "identity,1,3,0,true"
        assert len(lines) == 3

    def test_missing_flags_is_usage_error(self, capsys):
        code, doc = run_json(capsys, ["verify", "--suite", "identity"])
        assert code == 1
        assert doc["error"]["kind"] == "usage"

    def test_no_trials_is_usage_error(self, capsys):
        for trials in ("0", "-3"):
            code, doc = run_json(capsys, ["verify", "--suite", "identity",
                                          "--two-s", "1", "--n", "2",
                                          "--trials", trials])
            assert code == 1
            assert doc["error"]["kind"] == "usage"

    def test_no_spins_is_usage_error(self, capsys):
        for argv in (["--suite", "identity", "--two-s", "1", "--n", "0"],
                     ["--suite", "borchardt", "--n", "-2"]):
            code, doc = run_json(capsys, ["verify", *argv, "--trials", "1"])
            assert code == 1, argv
            assert doc["error"] == {"kind": "usage",
                                    "detail": f"argument --n: must be an integer >= 1, "
                                              f"got {argv[-1]!r}"}

    def test_negative_extra_rapidities_is_usage_error(self, capsys):
        code, doc = run_json(capsys, ["verify", "--suite", "boson", "--n", "3", "--m", "-1",
                                      "--trials", "1"])
        assert code == 1
        assert doc["error"] == {"kind": "usage",
                                "detail": "argument --m: must be an integer >= 0, got '-1'"}

    @pytest.mark.parametrize("two_s, n", [(1, 10), (4, 6)])
    def test_float_identity_sweep_holds(self, capsys, two_s, n):
        # the float determinant is correctly rounded, so it agrees with the float
        # permanent to 1e-9 where float elimination of J lost every digit
        code, doc = run_json(capsys, ["verify", "--suite", "identity", "--mode", "f64",
                                      "--two-s", str(two_s), "--n", str(n),
                                      "--trials", "10", "--seed", "0"])
        assert code == 0
        assert (doc["passed"], doc["failed"]) == (10, 0)

    def test_exact_only_suites_refuse_float_mode(self, capsys):
        for suite in ("residues", "limit", "borchardt", "boson"):
            code, doc = run_json(capsys, ["verify", "--suite", suite, "--two-s", "2",
                                          "--n", "3", "--trials", "1", "--mode", "f64"])
            assert code == 1
            assert doc["error"]["kind"] == "usage"

    def test_flags_outside_the_suite_are_usage_errors(self, capsys):
        for argv in (["--suite", "boson", "--n", "3", "--two-s", "7"],
                     ["--suite", "residues", "--two-s", "2", "--n", "3", "--m", "2"],
                     ["--suite", "borchardt", "--n", "3", "--m", "1"],
                     ["--suite", "identity", "--two-s", "1", "--n", "2", "--m", "1"]):
            code, doc = run_json(capsys, ["verify", *argv, "--trials", "1"])
            assert code == 1, argv
            assert doc["error"]["kind"] == "usage"

    def test_failed_checks_exit_code(self, capsys, monkeypatch):
        import rgdwpf.checks as checks
        from rgdwpf.checks import CheckReport

        def broken_sweep(grid, trials, seed, mode):
            return [CheckReport(check="identity", two_s=1, n=2, trial=0,
                                left=0, right=1, holds=False, mode=mode)]

        monkeypatch.setattr(checks, "identity_sweep", broken_sweep)
        code, doc = run_json(capsys, ["verify", "--suite", "identity",
                                      "--two-s", "1", "--n", "2", "--trials", "1"])
        assert code == 2
        assert doc["failed"] == 1


class TestGamma:
    def test_matches_polynomial_oracle(self, capsys):
        code, doc = run_json(capsys, ["gamma", "--nu", "2,3,5", "--z", "0",
                                      "--order", "2"])
        assert code == 0
        gammas = [as_fraction(g) for g in doc["gammas"]]
        assert gammas[0] == -1
        assert gammas == [gamma_by_polynomials((2, 3, 5), 0, k) for k in range(3)]

    @pytest.mark.parametrize("seed", range(6))
    def test_f64_is_the_rounded_polynomial_quotient(self, capsys, seed):
        # oracle: -Q^(n)/Q at the Fractions of the parsed floats, rounded once;
        # Q has degree Omega, so every G_n with n > Omega is exactly 0.0
        rng = random.Random(f"gamma-f64:{seed}")
        values = [float(x) for x in rand_distinct_fractions(rng, rng.randint(2, 9))]
        z, nu = values[0], values[1:]
        order = len(nu) + 3
        code, doc = run_json(capsys, ["gamma", "--nu=" + ",".join(map(repr, nu)), f"--z={z!r}",
                                      "--order", str(order), "--mode", "f64"])
        assert code == 0
        want = [float(gamma_by_polynomials(list(map(Fraction, nu)), Fraction(z), k))
                for k in range(1, order + 1)]
        assert doc["gammas"] == [{"num": "-1", "den": "1"}] + want
        assert [repr(g) for g in doc["gammas"][len(nu) + 1:]] == ["0.0"] * 3

    def test_order_far_beyond_omega(self, capsys):
        # Q has degree 5: G_6..G_200 are exact zeros, at no cost
        nu = "2,3/2,5,-5/4,7"
        start = time.perf_counter()
        code, doc = run_json(capsys, ["gamma", "--nu", nu, "--z", "1/3", "--order", "200"])
        elapsed = time.perf_counter() - start
        assert code == 0
        want = [gamma_by_polynomials([Fraction(v) for v in nu.split(",")], Fraction(1, 3), k)
                for k in range(6)]
        assert [as_fraction(g) for g in doc["gammas"][:6]] == want
        assert doc["gammas"][6:] == [{"num": "0", "den": "1"}] * 195
        assert elapsed < 0.1

    def test_f64_refuses_complex(self, capsys):
        code, doc = run_json(capsys, ["gamma", "--nu", "2,1+1j", "--z", "0", "--order", "2",
                                      "--mode", "f64"])
        assert code == 1
        assert doc["error"]["kind"] == "ComplexInput"

    def test_negative_order_is_usage_error(self, capsys):
        code, doc = run_json(capsys, ["gamma", "--nu", "2,3", "--z", "0", "--order", "-1"])
        assert code == 1
        assert doc["error"]["kind"] == "usage"


class TestCoeffs:
    def test_matches_worked_listing(self, capsys):
        code, doc = run_json(capsys, ["coeffs", "--two-s", "3", "--eps", "0,1,2"])
        assert code == 0
        want = spin_three_half_worked_coefficients(Fraction(0), Fraction(1), Fraction(2))
        assert [as_fraction(v) for v in doc["c11"]] == list(want["c11"])
        assert [as_fraction(v) for v in doc["c1j"]["2"]] == list(want["c1j"][2])
        assert as_fraction(doc["c0_diag"]["2"]) == want["c0_diag"][2]
        assert doc["c1_diag"] == 1
        assert as_fraction(doc["c0_off"]["2,1"]) == want["c0_off"][(2, 1)]

    @pytest.mark.parametrize("two_s, n", [(1, 4), (2, 3), (3, 3), (5, 4)])
    def test_f64_is_the_rounded_exact_coefficients(self, capsys, two_s, n):
        # oracle: the term-by-term Fraction sums at the parsed floats, each rounded once
        rng = random.Random(f"coeffs-f64:{two_s}:{n}")
        eps = [float(x) for x in rand_distinct_fractions(rng, n)]
        code, doc = run_json(capsys, ["coeffs", "--two-s", str(two_s),
                                      "--eps=" + ",".join(map(repr, eps)), "--mode", "f64"])
        assert code == 0
        want = structure_coefficients_by_fraction_sums(SpinSystem(two_s, map(Fraction, eps)))

        def out(x):  # ints print as in exact mode
            return float(x) if isinstance(x, Fraction) else {"num": str(x), "den": "1"}

        assert doc["c11"] == [out(v) for v in want.c11]
        assert doc["c1j"] == {str(j): [out(v) for v in col] for j, col in want.c1j.items()}
        assert doc["c0_diag"] == {str(i): out(v) for i, v in want.c0_diag.items()}
        assert doc["c0_off"] == {f"{i},{j}": out(v) for (i, j), v in want.c0_off.items()}

    def test_f64_overflow_is_a_numerical_failure(self, capsys):
        # c11[0] = 2/(1e-300)^3 is finite as a Fraction and too large for a float
        code, doc = run_json(capsys, ["coeffs", "--two-s", "3", "--eps", "0,1e-300,2e-300",
                                      "--mode", "f64"])
        assert code == 3
        assert doc["error"]["kind"] == "NonFiniteEntry"

    def test_negative_two_s_is_usage_error(self, capsys):
        code, doc = run_json(capsys, ["coeffs", "--two-s", "-2", "--eps", "0,1"])
        assert code == 1
        assert doc["error"]["kind"] == "usage"


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("mode", ["exact", "f64"])
@pytest.mark.parametrize("name, argv", [
    ("gamma", ["gamma", "--nu", "2,3/2,5,-5/4,7", "--z", "1/3", "--order", "8"]),
    ("coeffs", ["coeffs", "--two-s", "3", "--eps", "0,1,2"]),
])
def test_output_is_byte_identical_to_the_recorded_output(capsys, name, argv, mode):
    # recorded with term-by-term Fraction sums, which the one-lcm sums must reproduce;
    # gamma-f64 holds the polynomial quotient -Q^(n)/Q at the parsed floats, rounded once
    assert run(argv + ["--mode", mode]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}-{mode}.json").read_text()


class TestBethe:
    def test_both_routes(self, capsys):
        code, doc = run_json(capsys, ["bethe", "--g", "0.5", "--eps", "0,1,2,3",
                                      "--occupation", "1,1,0,0"])
        assert code == 0
        assert doc["quad"]["max_residual"] < 1e-12
        assert doc["richardson"]["max_residual"] < 1e-12
        assert doc["richardson"]["lambda_agreement"] < 1e-8
        assert len(doc["dual_shift"]) == 4

    def test_richardson_at_half_filling(self, capsys):
        # the rapidity route accepts by the componentwise rule, and reports the
        # residual absolute
        code, doc = run_json(capsys, ["bethe", "--g", "0.5", "--eps", ",".join(map(str, range(16))),
                                      "--occupation", "1111111100000000",
                                      "--route", "richardson"])
        assert code == 0
        assert doc["richardson"]["max_residual"] < 1e-12

    def test_occupation_shorthand(self, capsys):
        code, doc = run_json(capsys, ["bethe", "--g", "0.5", "--eps", "0,1",
                                      "--occupation", "10", "--route", "quad"])
        assert code == 0
        assert "richardson" not in doc

    def test_occupation_must_be_bits(self, capsys):
        code, doc = run_json(capsys, ["bethe", "--g", "0.5", "--eps", "0,1",
                                      "--occupation", "12"])
        assert code == 1
        assert doc["error"]["kind"] == "usage"

    def test_rational_coupling(self, capsys):
        # --g reads numbers as --eps does; "g" is written as the float
        argv = ["--eps", "0,1/3,1", "--occupation", "100", "--route", "quad"]
        code, doc = run_json(capsys, ["bethe", "--g", "1/2"] + argv)
        assert code == 0
        assert doc["g"] == 0.5
        assert doc == run_json(capsys, ["bethe", "--g", "0.5"] + argv)[1]

    def test_occupation_length_checked(self, capsys):
        code, doc = run_json(capsys, ["bethe", "--g", "0.5", "--eps", "0,1",
                                      "--occupation", "1"])
        assert code == 1

    def test_zero_coupling_is_usage_error(self, capsys):
        code, doc = run_json(capsys, ["bethe", "--g", "0", "--eps", "0,1",
                                      "--occupation", "10"])
        assert code == 1
        assert doc["error"]["kind"] == "usage"

    def test_stall_reports_the_state_reached(self, capsys, monkeypatch):
        import rgdwpf.bethe as bethe

        # as in test_bethe: the quadratic route the rapidities come from stalls
        # at its g = 0 start
        monkeypatch.setattr(bethe, "_quad_residuals", lambda vals, g, inv: np.ones_like(vals))
        monkeypatch.setattr(bethe, "MAX_STEP_HALVINGS", 12)
        code, doc = run_json(capsys, ["bethe", "--g", "1", "--eps", "0,1,2,3",
                                      "--occupation", "1100", "--route", "richardson"])
        assert code == 3
        err = doc["error"]
        assert err["kind"] == "NoConvergence"
        assert err["g_reached"] == 0.0
        assert err["halvings"] == 13
        assert err["residual"] == 1.0

    def test_pair_count_at_half_filling(self, capsys):
        # g * sum(L) / 2 is the number of pairs, 8 here; the quadratic route
        # once returned a 9-pair state that disagreed with the rapidity route
        code, doc = run_json(capsys, ["bethe", "--g", "0.5", "--eps", ",".join(map(str, range(16))),
                                      "--occupation", "1111111100000000", "--route", "both"])
        assert code == 0
        assert round(doc["quad"]["pairs"]) == 8
        assert abs(doc["quad"]["pairs"] - 8) < 1e-9
        assert doc["richardson"]["lambda_agreement"] < 1e-8

    def test_lambda_agreement_relative_to_the_quadratic_route(self):
        # the quadratic route's L scaled by 1.5 disagrees by 1/3 of its largest
        # value, whatever that value's size; the absolute figure is 0.5 max |L|
        from rgdwpf import bethe
        from rgdwpf.cli import _richardson_entry

        for g in (0.5, -1e6):
            model = bethe.CouplingModel(g=g, eps=(0.0, 1.0, 2.5, 4.0), m=2)
            occupation = (1, 0, 1, 0)
            lv = bethe.solve_quadratic_bethe(model, occupation)
            scaled = replace(lv, values=tuple(1.5 * v for v in lv.values))
            entry = _richardson_entry(model, occupation, scaled)
            top = max(map(abs, lv.values))
            assert entry["lambda_agreement_relative"] == pytest.approx(1 / 3, rel=1e-6)
            assert entry["lambda_agreement"] == pytest.approx(0.5 * top, rel=1e-6)
            assert entry["lambda_agreement"] != pytest.approx(1 / 3, rel=1e-2)
            assert _richardson_entry(model, occupation, lv)["lambda_agreement_relative"] < 1e-8

    def test_lambda_agreement_relative_without_pairs(self, capsys):
        code, doc = run_json(capsys, ["bethe", "--g", "0.5", "--eps", "0,1,2",
                                      "--occupation", "000", "--route", "both"])
        assert code == 0
        assert doc["richardson"]["lambda_agreement_relative"] == 0.0

    def test_stalled_route_reports_in_its_own_entry(self, capsys, monkeypatch):
        import rgdwpf.bethe as bethe

        # a stalled quadratic route stalls the rapidity route too: each
        # writes the state it reached in its own entry
        monkeypatch.setattr(bethe, "_quad_residuals", lambda vals, g, inv: np.ones_like(vals))
        monkeypatch.setattr(bethe, "MAX_STEP_HALVINGS", 12)
        code, doc = run_json(capsys, ["bethe", "--g", "1", "--eps", "0,1,2,3",
                                      "--occupation", "1100", "--route", "both"])
        assert code == 3
        assert "error" not in doc
        for route in ("quad", "richardson"):
            err = doc[route]["error"]
            assert err["kind"] == "NoConvergence"
            assert set(err) == {"kind", "detail", "g_reached", "residual", "halvings"}
            assert err["g_reached"] == 0.0
            assert err["halvings"] == 13
            assert not err["residual"] < 1
        assert "dual_shift" not in doc

    def test_failed_polish_reports_next_to_the_quad_entry(self, capsys, monkeypatch):
        import rgdwpf.bethe as bethe

        monkeypatch.setattr(bethe, "_richardson_residuals_arr",
                            lambda lams, g, eps: np.ones(len(lams)))
        code, doc = run_json(capsys, ["bethe", "--g", "0.5", "--eps", "0,1,2,3",
                                      "--occupation", "1100", "--route", "both"])
        assert code == 3
        assert "error" not in doc
        err = doc["richardson"]["error"]
        assert err["kind"] == "NoConvergence"
        assert set(err) == {"kind", "detail", "g_reached", "residual", "halvings"}
        assert err["g_reached"] == 0.5
        assert err["halvings"] == 0
        assert err["residual"] == 1.0
        assert doc["quad"]["max_residual"] < 1e-12
        assert round(doc["quad"]["pairs"]) == 2
        assert len(doc["dual_shift"]) == 4

    def test_non_finite_coupling_is_usage_error(self, capsys):
        for g in ("nan", "inf", "-inf", "1+2j", "1/0", "0/3", "abc"):
            code, doc = run_json(capsys, ["bethe", "--g", g, "--eps", "0,1",
                                          "--occupation", "10"])
            assert code == 1, g
            assert doc["error"]["kind"] == "usage"


def test_non_finite_or_complex_floats_are_usage_errors(capsys):
    for argv in (["pf", "--two-s", "1", "--eps", "0,1", "--nu", "2,inf", "--mode", "f64"],
                 ["pf", "--two-s", "1", "--eps", "0,1", "--nu", "2,1e400", "--mode", "f64"],
                 ["pf", "--two-s", "1", "--eps", "0,1", "--nu", "2,nan+1j", "--mode", "f64"],
                 ["gamma", "--nu", "2,3", "--z", "nan", "--order", "2", "--mode", "f64"],
                 ["bethe", "--g", "0.5", "--eps", "0,1+1j", "--occupation", "10"],
                 ["bethe", "--g", "0.5", "--eps", "0,nan", "--occupation", "10"],
                 ["pf", "--two-s", "1", "--eps", "0,1", "--nu", "2,abc", "--mode", "f64"]):
        code, doc = run_json(capsys, argv)
        assert code == 1, argv
        assert doc["error"]["kind"] == "usage"


def test_empty_number_list_is_usage_error(capsys):
    for eps in (",", " , ,"):
        code, doc = run_json(capsys, ["pf", "--two-s", "1", "--eps", eps, "--nu", "2,3"])
        assert code == 1
        assert doc["error"]["kind"] == "usage"
        assert "empty number list" in doc["error"]["detail"]


@pytest.mark.parametrize("argv", [
    ["bethe", "--g", "-1/2", "--eps", "0,1", "--occupation", "10", "--route", "quad"],
    ["bethe", "--g", "-1e6", "--eps", "0,1", "--occupation", "10", "--route", "quad"],
    ["bethe", "--g", "1", "--eps", "-1,2", "--occupation", "10", "--route", "quad"],
    ["pf", "--two-s", "1", "--eps", "0,1", "--nu", "-2/3,5"],
    ["gamma", "--nu", "2,3", "--z", "-1/3", "--order", "2"],
])
def test_numerals_starting_with_minus_follow_their_flag(capsys, argv):
    # argparse on Python 3.10 and 3.11 takes only -12 and -1.5 as values, so
    # these exited 1 with "expected one argument"; each reads as its --flag=value form
    k = next(i for i, a in enumerate(argv) if a[0] == "-" and a[1] != "-")
    code, doc = run_json(capsys, argv)
    assert code == 0, doc
    joined = argv[:k - 1] + [f"{argv[k - 1]}={argv[k]}"] + argv[k + 1:]
    assert (code, doc) == run_json(capsys, joined)


def test_missing_number_is_still_a_usage_error(capsys):
    for argv in (["bethe", "--g", "--eps", "0,1", "--occupation", "10"],
                 ["bethe", "--eps", "0,1", "--occupation", "10", "--g"],
                 ["pf", "--two-s", "1", "--eps", "0,1", "--nu", "--method", "det"]):
        code, doc = run_json(capsys, argv)
        assert code == 1, argv
        assert "expected one argument" in doc["error"]["detail"]


def test_unknown_subcommand_is_usage_error(capsys):
    code, doc = run_json(capsys, ["frobnicate"])
    assert code == 1
    assert doc["error"]["kind"] == "usage"


def run_module(argv):
    """``python -m rgdwpf`` with ``argv`` in a fresh process."""
    env = dict(os.environ)
    src = str(Path(rgdwpf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rgdwpf", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def test_module_entry_point_exit_codes():
    # python -m rgdwpf goes through __main__ and cli.main, which map the
    # exit code of run() onto the process
    argv = ["pf", "--eps", "0,1", "--nu", "2,3,5", "--method", "det"]
    ok = run_module(argv + ["--two-s", "2"])
    assert ok.returncode == 0, ok.stderr
    assert as_fraction(json.loads(ok.stdout)["value"]) == Fraction(19, 60)
    bad = run_module(argv + ["--two-s", "-1"])
    assert bad.returncode == 1


def test_parser_reused_after_a_usage_error(capsys):
    # the parser is built once per process; a parse that fails inside the
    # verify subcommand must leave nothing behind for the next run
    argv = ["verify", "--suite", "identity", "--two-s", "2", "--n", "3", "--trials", "2"]
    assert run(argv[:-1] + ["0"]) == 1
    capsys.readouterr()
    assert run(argv) == 0
    fresh = run_module(argv)
    assert fresh.returncode == 0, fresh.stderr
    assert capsys.readouterr().out == fresh.stdout
