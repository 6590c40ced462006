import math
import random

import numpy as np
import pytest

import rgdwpf.bethe as bethe
from rgdwpf.bethe import (
    CouplingModel,
    LambdaVars,
    RapidityState,
    dual_transform,
    lambdas_from_rapidities,
    quad_jacobian,
    quad_residuals,
    richardson_residuals,
    solve_quadratic_bethe,
    solve_richardson,
)
from rgdwpf.errors import (
    CardinalityMismatch,
    ComplexInput,
    DegenerateEpsilons,
    NoConvergence,
    NonFiniteEntry,
    PoleAtEvaluationPoint,
)
from rgdwpf.partition import SpinSystem, build_J_higher

from oracles import adiabatic_energy


def evenly_spaced(n):
    return tuple(float(i) for i in range(n))


def energy_from_lambdas(model, lv):
    """E = (g/2) (sum_k eps_k L_k - N M + M (M - 1)); see ``oracles.adiabatic_energy``."""
    n, m = model.n, model.m
    return model.g / 2 * (sum(e * v for e, v in zip(model.eps, lv.values)) - n * m + m * (m - 1))


class TestModel:
    def test_zero_coupling_rejected(self):
        # a non-finite g would otherwise reach the continuation, whose path
        # g * u never ends at a finite coupling
        for g in (0.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                CouplingModel(g=g, eps=(0.0, 1.0), m=1)

    def test_degenerate_levels_rejected(self):
        with pytest.raises(DegenerateEpsilons):
            CouplingModel(g=1.0, eps=(0.0, 0.0), m=1)

    def test_excitation_bounds(self):
        with pytest.raises(CardinalityMismatch):
            CouplingModel(g=1.0, eps=(0.0, 1.0), m=3)

    def test_non_finite_levels_refused(self):
        # an infinite level once gave L = (3.5616, 0.0, 0.4384) with a
        # RuntimeWarning, and a NaN one a stall at g = 0
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteEntry):
                CouplingModel(g=1.0, eps=(0.0, bad, 2.0), m=1)

    def test_complex_values_refused(self):
        for eps in ((0.0, 1j, 2.0), (0.0, np.complex128(1.0), 2.0), (0.0, np.complex64(1.0))):
            with pytest.raises(ComplexInput):
                CouplingModel(g=1.0, eps=eps, m=1)
        with pytest.raises(ComplexInput):
            CouplingModel(g=0.5 + 0.5j, eps=(0.0, 1.0), m=1)


class TestRichardsonResiduals:
    def test_single_level_root(self):
        model = CouplingModel(g=0.8, eps=(2.0,), m=1)
        state = RapidityState(lambdas=(2.0 - 0.8 / 2,))
        res = richardson_residuals(state, model)
        assert abs(res[0]) < 1e-14

    def test_two_level_quadratic_root(self):
        # M = 1, eps = (0, 1), g = 1: the equation reduces to 2 lam^2 = 1
        model = CouplingModel(g=1.0, eps=(0.0, 1.0), m=1)
        for root in (math.sqrt(0.5), -math.sqrt(0.5)):
            res = richardson_residuals(RapidityState(lambdas=(root,)), model)
            assert abs(res[0]) < 1e-12

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        eps = tuple(np.sort(rng.uniform(-3, 3, size=7)))
        model = CouplingModel(g=0.7, eps=eps, m=4)
        lams = tuple(rng.normal(size=4) + 1j * rng.normal(size=4))
        want = [2 / model.g
                - sum(2 / (lams[i] - lams[j]) for j in range(4) if j != i)
                - sum(1 / (e - lams[i]) for e in eps) for i in range(4)]
        got = richardson_residuals(RapidityState(lambdas=lams), model)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(12)
        eps = np.arange(7.0)
        point = rng.uniform(0, 6, size=4) + 1j * rng.uniform(-1, 1, size=4)
        jac = bethe._richardson_jacobian(point, 0.8, eps)
        h = 1e-6
        for k in range(4):
            bump = h * np.eye(4)[k]
            fd = (bethe._richardson_residuals_arr(point + bump, 0.8, eps)
                  - bethe._richardson_residuals_arr(point - bump, 0.8, eps)) / (2 * h)
            assert np.max(np.abs(jac[:, k] - fd) / np.maximum(np.abs(jac[:, k]), 1e-12)) < 1e-5

    def test_rapidity_on_a_level_is_a_pole(self):
        model = CouplingModel(g=1.0, eps=(0.0, 1.0, 2.0), m=2)
        with pytest.raises(PoleAtEvaluationPoint):
            richardson_residuals(RapidityState(lambdas=(0.5, 1.0)), model)

    def test_coincident_rapidities_are_singular(self):
        model = CouplingModel(g=1.0, eps=(0.0, 1.0, 2.0), m=2)
        with pytest.raises(PoleAtEvaluationPoint):
            richardson_residuals(RapidityState(lambdas=(0.5, 0.5)), model)

    def test_solver_state_is_self_consistent(self):
        model = CouplingModel(g=0.7, eps=evenly_spaced(5), m=2)
        state = solve_richardson(model, (0, 1))
        res = richardson_residuals(state, model)
        assert max(abs(r) for r in res) < 1e-12


class TestQuadResiduals:
    def test_vacuum_solution(self):
        model = CouplingModel(g=1.0, eps=evenly_spaced(3), m=0)
        res = quad_residuals(LambdaVars(values=(0.0, 0.0, 0.0)), model)
        assert np.all(res == 0)

    def test_single_level_filled(self):
        model = CouplingModel(g=0.5, eps=(1.0,), m=1)
        res = quad_residuals(LambdaVars(values=(2 / 0.5,)), model)
        assert abs(res[0]) < 1e-14

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(13)
        eps = tuple(np.sort(rng.uniform(-3, 3, size=7)))
        model = CouplingModel(g=0.7, eps=eps, m=4)
        vals = rng.normal(size=7) + 1j * rng.normal(size=7)
        want = [vals[i] ** 2
                - sum((vals[i] - vals[j]) / (eps[i] - eps[j]) for j in range(7) if j != i)
                - (2 / model.g) * vals[i] for i in range(7)]
        got = quad_residuals(LambdaVars(tuple(vals)), model)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_solution_from_richardson_route(self):
        model = CouplingModel(g=0.6, eps=evenly_spaced(4), m=2)
        state = solve_richardson(model, (0, 1))
        lv = lambdas_from_rapidities(state, model.eps)
        res = quad_residuals(LambdaVars(tuple(v.real for v in lv.values)), model)
        assert max(abs(r) for r in res) < 1e-10

    def test_variable_count_must_match_levels(self):
        model = CouplingModel(g=1.0, eps=evenly_spaced(3), m=1)
        for values in [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)]:
            for function in (quad_residuals, quad_jacobian):
                with pytest.raises(CardinalityMismatch):
                    function(LambdaVars(values), model)


class TestLambdasFromRapidities:
    def test_empty_state(self):
        lv = lambdas_from_rapidities(RapidityState(lambdas=()), (0.0, 1.0))
        assert lv.values == (0, 0)

    def test_direct_evaluation(self):
        lv = lambdas_from_rapidities(RapidityState(lambdas=(2.0,)), (0.0, 1.0))
        assert lv.values == (-0.5, -1.0)

    def test_rapidity_on_a_level_is_a_pole(self):
        with pytest.raises(PoleAtEvaluationPoint):
            lambdas_from_rapidities(RapidityState(lambdas=(0.5, 1.0)), (0.0, 1.0))

    def test_termwise_oracle(self):
        lams = (1.5, -0.25 + 0.5j, -0.25 - 0.5j)
        eps = (0.0, 1.0, 3.0)
        lv = lambdas_from_rapidities(RapidityState(lambdas=lams), eps)
        for e, got in zip(eps, lv.values):
            assert abs(got - sum(1 / (e - l) for l in lams)) < 1e-14


class TestQuadJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        model = CouplingModel(g=0.9, eps=evenly_spaced(4), m=2)
        # an integer-valued point must not truncate the float results
        for point in (rng.uniform(-2, 2, size=4), np.array([1, 2, -1, 0])):
            jac = quad_jacobian(LambdaVars(tuple(point)), model)
            assert np.array_equal(quad_residuals(LambdaVars(tuple(point)), model),
                                  quad_residuals(LambdaVars(tuple(point * 1.0)), model))
            h = 1e-6
            for k in range(4):
                bump = h * np.eye(4)[k]
                fd = (quad_residuals(LambdaVars(tuple(point + bump)), model)
                      - quad_residuals(LambdaVars(tuple(point - bump)), model)) / (2 * h)
                assert np.max(np.abs(jac[:, k] - fd)
                              / np.maximum(np.abs(jac[:, k]), 1e-12)) < 1e-5


class TestSolveQuadratic:
    def test_empty_occupation(self):
        model = CouplingModel(g=1.0, eps=evenly_spaced(3), m=0)
        assert solve_quadratic_bethe(model, (0, 0, 0)).values == (0.0, 0.0, 0.0)

    def test_occupation_must_match_model(self):
        model = CouplingModel(g=1.0, eps=evenly_spaced(3), m=1)
        for occupation in ((1, 1, 0), (2, -1, 0)):  # two excitations; not bits
            with pytest.raises(CardinalityMismatch):
                solve_quadratic_bethe(model, occupation)

    def test_residuals_below_tolerance(self):
        model = CouplingModel(g=1.0, eps=evenly_spaced(4), m=2)
        lv = solve_quadratic_bethe(model, (1, 1, 0, 0))
        assert max(abs(r) for r in quad_residuals(lv, model)) < 1e-12

    def test_agrees_with_richardson_route(self):
        model = CouplingModel(g=0.5, eps=evenly_spaced(2), m=1)
        lv = solve_quadratic_bethe(model, (1, 0))
        state = solve_richardson(model, (0,))
        induced = lambdas_from_rapidities(state, model.eps)
        assert max(abs(a - b) for a, b in zip(lv.values, induced.values)) < 1e-10

    @pytest.mark.parametrize("n, g", [(16, 0.5), (24, 0.5), (32, 0.5), (16, 1.7)])
    def test_half_filling_keeps_its_pair_count(self, n, g):
        # summing the rapidity equations: g sum_i L_i / 2 = M for every M-pair
        # state; these once converged to states with 9, 15, 22 and 16 pairs
        m = n // 2
        model = CouplingModel(g=g, eps=evenly_spaced(n), m=m)
        lv = solve_quadratic_bethe(model, (1,) * m + (0,) * (n - m))
        assert max(abs(r) for r in quad_residuals(lv, model)) < 1e-12
        assert round(g * sum(lv.values) / 2) == m
        induced = lambdas_from_rapidities(solve_richardson(model, tuple(range(m))), model.eps)
        assert max(abs(a - b) for a, b in zip(induced.values, lv.values)) < 1e-8

    def test_jacobian_budget(self, monkeypatch):
        # the exact g = 0 start and the tangent predictor: about 18 Jacobians
        calls = []
        jacobian = bethe.quad_jacobian
        monkeypatch.setattr(bethe, "quad_jacobian",
                            lambda lv, model: calls.append(1) or jacobian(lv, model))
        model = CouplingModel(g=0.5, eps=evenly_spaced(24), m=12)
        solve_quadratic_bethe(model, (1,) * 12 + (0,) * 12)
        assert 0 < len(calls) <= 30

    def test_nearly_coincident_levels_converge_by_backward_error(self):
        # levels 0.011 apart put the absolute residual's rounding floor above
        # 1e-12: Newton stalls near 1.7e-12, and the continuation once raised
        # NoConvergence there; every equation holds at a coupling within 1e-12 of g
        model = CouplingModel(g=-0.5, eps=(1.8397, 2.7827, 3.6167, 2.7937), m=3)
        lv = solve_quadratic_bethe(model, (1, 1, 1, 0))
        assert round(model.g * sum(lv.values) / 2) == 3
        r, vals = quad_residuals(lv, model), np.array(lv.values)
        coupling = 2 / (2 / model.g + r / vals)
        assert np.max(np.abs(coupling - model.g)) < 1e-12 * abs(model.g)
        exact = adiabatic_energy(model.g, model.eps, (1, 1, 1, 0))
        assert abs(energy_from_lambdas(model, lv) - exact) < 1e-9

    def test_stalled_continuation_reports_coupling(self, monkeypatch):
        # no Newton solve is accepted, so the halvings run out at the g = 0 start
        monkeypatch.setattr(bethe, "quad_residuals", lambda lv, model: np.ones(model.n))
        monkeypatch.setattr(bethe, "MAX_STEP_HALVINGS", 5)
        model = CouplingModel(g=0.5, eps=evenly_spaced(4), m=2)
        with pytest.raises(NoConvergence) as err:
            solve_quadratic_bethe(model, (1, 1, 0, 0))
        assert err.value.g_reached == 0.0
        assert err.value.halvings == 6
        assert not err.value.residual < 1


    def test_stall_partway_reports_the_coupling_reached(self, monkeypatch):
        # Newton succeeds up to |g| = 0.5 and never beyond: the steps from
        # g = 0.5 halve 41 times, and the last solve keeps the constant residual
        residuals = bethe.quad_residuals
        monkeypatch.setattr(bethe, "quad_residuals", lambda lv, model: (
            residuals(lv, model) if abs(model.g) <= 0.5 else np.ones(model.n)))
        model = CouplingModel(g=1.0, eps=evenly_spaced(6), m=3)
        with pytest.raises(NoConvergence) as err:
            solve_quadratic_bethe(model, (1, 1, 1, 0, 0, 0))
        assert err.value.g_reached == 0.5
        assert err.value.halvings == bethe.MAX_STEP_HALVINGS + 1 == 41
        assert err.value.residual == 1.0


class TestSolveRichardson:
    def test_single_rapidity_linear_case(self):
        model = CouplingModel(g=0.3, eps=(1.0,), m=1)
        state = solve_richardson(model, (0,))
        assert abs(state.lambdas[0] - (1.0 - 0.3 / 2)) < 1e-12

    def test_two_level_against_quadratic_formula(self):
        model = CouplingModel(g=1.0, eps=(0.0, 1.0), m=1)
        state = solve_richardson(model, (0,))
        assert abs(state.lambdas[0] - (-math.sqrt(0.5))) < 1e-10

    def test_complex_pair_past_collision(self):
        model = CouplingModel(g=1.0, eps=evenly_spaced(4), m=2)
        state = solve_richardson(model, (0, 1))
        lams = state.lambdas
        assert abs(lams[0].imag) > 1e-3
        assert abs(lams[0] - lams[1].conjugate()) < 1e-9
        res = richardson_residuals(state, model)
        assert max(abs(r) for r in res) < 1e-12

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_half_filling_converges_by_backward_error(self, n):
        # no weak-coupling start, whose terms of size 2/g0 put the absolute
        # residual's rounding floor near 1.4e-12 at N = 16: the polish runs at g
        model = CouplingModel(g=0.5, eps=evenly_spaced(n), m=n // 2)
        state = solve_richardson(model, tuple(range(n // 2)))
        assert max(abs(r) for r in richardson_residuals(state, model)) < 1e-12
        # summing the equations over the rapidities: sum_i L_i = 2 M / g
        induced = lambdas_from_rapidities(state, model.eps)
        assert abs(sum(induced.values) - n / model.g) < 1e-9

    def test_residual_budget_at_half_filling(self, monkeypatch):
        # one Newton polish from the roots read off L: a handful of evaluations,
        # against about 1,700 for a continuation of the rapidities themselves
        calls = []
        residuals = bethe._richardson_residuals_arr
        monkeypatch.setattr(bethe, "_richardson_residuals_arr",
                            lambda *args: calls.append(1) or residuals(*args))
        model = CouplingModel(g=0.5, eps=evenly_spaced(16), m=8)
        solve_richardson(model, tuple(range(8)))
        assert len(calls) <= 50

    def test_distinct_levels_required(self):
        model = CouplingModel(g=1.0, eps=evenly_spaced(3), m=2)
        with pytest.raises(CardinalityMismatch):
            solve_richardson(model, (0, 0))

    def test_level_index_out_of_range(self):
        model = CouplingModel(g=1.0, eps=evenly_spaced(3), m=1)
        for levels in ((3,), (-1,)):
            with pytest.raises(CardinalityMismatch):
                solve_richardson(model, levels)

    def test_no_pairs_no_rapidities(self):
        model = CouplingModel(g=1.0, eps=evenly_spaced(3), m=0)
        assert solve_richardson(model, ()).lambdas == ()

    def test_stalled_continuation_reports_coupling(self, monkeypatch):
        # the rapidities come from the quadratic route, whose stall at the
        # g = 0 start reaches the caller with the halvings it spent
        monkeypatch.setattr(bethe, "quad_residuals", lambda lv, model: np.ones(model.n))
        monkeypatch.setattr(bethe, "MAX_STEP_HALVINGS", 12)
        model = CouplingModel(g=1.0, eps=evenly_spaced(4), m=2)
        with pytest.raises(NoConvergence) as err:
            solve_richardson(model, (0, 1))
        assert err.value.g_reached == 0.0
        assert err.value.halvings == 13
        assert not err.value.residual < bethe.RESIDUAL_TOL

    def test_failed_polish_reports_the_coupling(self, monkeypatch):
        # no Newton step lowers a constant residual, so the polish fails at g itself
        monkeypatch.setattr(bethe, "_richardson_residuals_arr",
                            lambda lams, g, eps: np.ones(len(lams)))
        model = CouplingModel(g=1.0, eps=evenly_spaced(4), m=2)
        with pytest.raises(NoConvergence) as err:
            solve_richardson(model, (0, 1))
        assert err.value.g_reached == 1.0
        assert err.value.halvings == 0
        assert err.value.residual == 1.0

    def test_singular_system_reports_the_coupling(self, monkeypatch):
        # L = 0 on a lone occupied level makes the 1 x 1 system K_S - diag L_S zero
        monkeypatch.setattr(bethe, "solve_quadratic_bethe",
                            lambda model, occupation: LambdaVars((0.0,) * model.n))
        model = CouplingModel(g=0.5, eps=(0.0, 1.0), m=1)
        with pytest.raises(NoConvergence) as err:
            solve_richardson(model, (0,))
        assert err.value.g_reached == 0.5
        assert err.value.residual is None

    def test_roots_read_off_known_rapidities(self):
        # L from two real rapidities and a conjugate pair gives them back
        eps = np.array([0.0, 0.7, 1.5, 2.2, 3.0, 4.1])
        lams = np.array([0.3, 1.1 + 0.4j, 1.1 - 0.4j, 3.6])
        lv = lambdas_from_rapidities(RapidityState(tuple(lams)), tuple(eps))
        nodes = [0, 2, 3, 5]
        got = bethe._rapidities_from_lambdas(eps[nodes], np.real(lv.values)[nodes])
        assert np.max(np.abs(np.poly(got) - np.poly(lams))) < 1e-12

    def test_linear_system_is_the_transposed_determinant_matrix(self):
        # K_S - diag L_S, K_S the inverse gaps with their row sums on the
        # diagonal, is build_J_higher at 2S = 1 on the levels S, transposed
        rng = np.random.default_rng(21)
        nodes = tuple(rng.uniform(0, 5, size=5))
        lambdas = tuple(rng.normal(size=5))
        system = bethe._inverse_gaps(np.array(nodes))
        np.fill_diagonal(system, system.sum(axis=1) - lambdas)
        j = build_J_higher(SpinSystem(1, nodes), (1, lambdas[0]), lambdas[1:])
        assert np.max(np.abs(np.array(j.entries, dtype=float) - system.T)) < 1e-12


class TestDualTransform:
    def test_rigid_shift(self):
        model = CouplingModel(g=1.0, eps=evenly_spaced(3), m=0)
        lv = LambdaVars(values=(0.0, 0.0, 0.0))
        assert dual_transform(lv, model).values == (-2.0, -2.0, -2.0)

    def test_double_application(self):
        model = CouplingModel(g=0.5, eps=evenly_spaced(2), m=1)
        lv = LambdaVars(values=(1.0, 2.0))
        twice = dual_transform(dual_transform(lv, model), model)
        assert twice.values == (1.0 - 8.0, 2.0 - 8.0)

    def test_matches_dual_richardson_solution(self):
        # the dual state fills the complementary levels and solves the
        # rapidity equations at the opposite coupling
        model = CouplingModel(g=1.0, eps=evenly_spaced(3), m=1)
        lv = solve_quadratic_bethe(model, (1, 0, 0))
        dual = dual_transform(lv, model)
        dual_model = CouplingModel(g=-model.g, eps=model.eps, m=2)
        mu = solve_richardson(dual_model, (1, 2))
        induced = lambdas_from_rapidities(mu, model.eps)
        assert max(abs(a - b) for a, b in zip(dual.values, induced.values)) < 1e-9


class TestAdiabaticState:
    """Both routes against exact diagonalization followed from the g = 0 product state."""

    @staticmethod
    def assert_on_adiabatic_state(g, eps, occupation):
        exact = adiabatic_energy(g, eps, occupation)
        model = CouplingModel(g=g, eps=eps, m=sum(occupation))
        lv = solve_quadratic_bethe(model, occupation)
        assert abs(energy_from_lambdas(model, lv) - exact) < 1e-9 * max(1, abs(exact))
        state = solve_richardson(model, [i for i, b in enumerate(occupation) if b])
        assert abs(sum(state.lambdas) - exact) < 1e-9 * max(1, abs(exact))
        return exact

    @pytest.mark.parametrize("g, eps, occupation, energy", [
        (-0.5, (0.5719, 3.5313, 3.8702, 0.8784), (0, 1, 1, 0), 8.000842),
        (1.7, (2.7787, 3.1046, 0.9263, 0.7533), (0, 0, 1, 1), -1.767363),
        (1.0, (3.5468, 0.4984, 3.3926, 0.0841), (1, 0, 1, 0), 6.174815),
        (-1.7, (2.0167, 0.3447, 0.9279, 0.5531), (0, 1, 0, 1), 1.529458),
    ])
    def test_states_a_rapidity_continuation_missed(self, g, eps, occupation, energy):
        # continuing the rapidities themselves from a weak-coupling Newton start
        # reached another eigenstate here: E = 5.493249, 2.070399, 2.725686, 1.759684
        assert abs(self.assert_on_adiabatic_state(g, eps, occupation) - energy) < 1e-6

    def test_seeded_models(self):
        rng = random.Random(8)
        for _ in range(6):
            n = rng.choice((5, 6, 8))
            g = rng.choice((0.5, 1.0, 1.7)) * rng.choice((1, -1))
            eps = tuple(rng.uniform(0, n) for _ in range(n))
            occupation = tuple(rng.randint(0, 1) for _ in range(n))
            self.assert_on_adiabatic_state(g, eps, occupation if any(occupation)
                                           else (1,) + occupation[1:])
