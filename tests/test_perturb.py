"""Sensitivities, allowable bounds, critical search, and certification."""
import math

import numpy as np
import pytest

from lapsens import _solver
from lapsens import (
    DEFAULT_SATURATION_CAP,
    Assignment,
    BipartiteInstance,
    DegenerateOptimumError,
    ErrorBounds,
    Perturbation,
    ShapeMismatchError,
    certify_exact,
    certify_optimal,
    critical_search,
    divided_bound,
    elementwise_sensitivities,
    halfspace_intervals,
    is_critical,
    solve_lap,
    verify_allowable,
)

from conftest import DEMO_OPTIMUM, DEMO_SENSITIVITIES

OVERFLOW = "^optimal cost of the perturbed weights must be finite, got inf$"


@pytest.fixture()
def demo_sens(demo_instance, demo_optimum):
    return elementwise_sensitivities(demo_instance, demo_optimum)


def swap_instance():
    return BipartiteInstance.from_matrix([[0, 10], [10, 0]])


class TestElementwiseSensitivities:
    def test_known_3x3_exact(self, demo_sens):
        assert dict(demo_sens.values) == DEMO_SENSITIVITIES

    def test_sign_pattern(self, demo_sens, demo_optimum):
        assigned = demo_optimum.assigned_edges()
        for edge, value in demo_sens.values.items():
            if edge in assigned:
                assert value > 0
            else:
                assert value < 0

    def test_single_cell_is_unbounded(self):
        inst = BipartiteInstance.from_matrix([[7]])
        sens = elementwise_sensitivities(inst, Assignment.from_task_map({0: 0}))
        assert sens.values[(0, 0)] == math.inf

    def test_forced_infeasibility_gives_negative_inf(self):
        # task 1 only reaches agent 1, so forcing (1, 0) starves it
        inst = BipartiteInstance(2, 2, {(0, 0): 1.0, (1, 0): 5.0, (1, 1): 2.0})
        assn = solve_lap(inst).assignment
        sens = elementwise_sensitivities(inst, assn)
        assert sens.values[(1, 0)] == -math.inf
        assert sens.values[(1, 1)] == math.inf

    def test_degenerate_raises_without_flag(self):
        inst = BipartiteInstance.from_matrix([[1, 1], [1, 1]])
        assn = Assignment.from_task_map({0: 0, 1: 1})
        with pytest.raises(DegenerateOptimumError):
            elementwise_sensitivities(inst, assn)
        sens = elementwise_sensitivities(inst, assn, allow_degenerate=True)
        # Exact ties are +0.0, never -0.0, so they print as "0.0".
        assert all(math.copysign(1.0, v) == 1.0 and v == 0 for v in sens.values.values())

    def test_non_optimal_reference_rejected(self, demo_instance):
        with pytest.raises(ValueError):
            elementwise_sensitivities(demo_instance, Assignment.from_task_map({0: 0, 1: 1, 2: 2}))

    def test_swap_2x2(self):
        inst = swap_instance()
        sens = elementwise_sensitivities(inst, solve_lap(inst).assignment)
        assert dict(sens.values) == {
            (0, 0): 20.0,
            (0, 1): -20.0,
            (1, 0): -20.0,
            (1, 1): 20.0,
        }


class TestDividedBound:
    def test_known_3x3_values(self, demo_sens):
        pert = divided_bound(demo_sens, 3)
        assert pert.deltas == {e: v / 6 for e, v in DEMO_SENSITIVITIES.items()}
        assert pert.saturated == frozenset()

    def test_swap_2x2(self):
        inst = swap_instance()
        sens = elementwise_sensitivities(inst, solve_lap(inst).assignment)
        pert = divided_bound(sens, 2)
        assert pert.deltas == {(0, 0): 5.0, (0, 1): -5.0, (1, 0): -5.0, (1, 1): 5.0}

    def test_saturates_infinite_sensitivity(self):
        inst = BipartiteInstance.from_matrix([[7]])
        sens = elementwise_sensitivities(inst, Assignment.from_task_map({0: 0}))
        pert = divided_bound(sens, 1)
        assert pert.deltas == {(0, 0): DEFAULT_SATURATION_CAP / 2}
        assert pert.saturated == frozenset({(0, 0)})

    def test_requires_positive_task_count(self, demo_sens):
        with pytest.raises(ValueError):
            divided_bound(demo_sens, 0)


class TestHalfspaceIntervals:
    def test_zero_perturbation_pattern(self, demo_instance, demo_optimum):
        table = halfspace_intervals(Perturbation.zeros(demo_instance.edges), demo_optimum)
        assigned = demo_optimum.assigned_edges()
        for edge, (lo, hi) in table.intervals.items():
            if edge in assigned:
                assert (lo, hi) == (-math.inf, 0.0)
            else:
                assert (lo, hi) == (0.0, math.inf)

    def test_offsets_follow_deltas(self, demo_instance, demo_optimum, demo_sens):
        pert = divided_bound(demo_sens, 3)
        table = halfspace_intervals(pert, demo_optimum)
        assert table.intervals[(1, 0)] == (-math.inf, 157 / 6)
        assert table.intervals[(0, 0)] == (-163 / 6, math.inf)

    def test_saturated_edge_gets_full_line(self):
        inst = BipartiteInstance.from_matrix([[7]])
        assn = Assignment.from_task_map({0: 0})
        pert = divided_bound(elementwise_sensitivities(inst, assn), 1)
        table = halfspace_intervals(pert, assn)
        assert table.intervals[(0, 0)] == (-math.inf, math.inf)

    def test_assignment_outside_edges_rejected(self):
        pert = Perturbation({(0, 0): 0.0})
        with pytest.raises(ShapeMismatchError):
            halfspace_intervals(pert, Assignment.from_task_map({0: 1}))


class TestVerifyAllowable:
    def test_zero_is_allowable(self, demo_instance, demo_optimum):
        assert verify_allowable(demo_instance, demo_optimum, Perturbation.zeros(demo_instance.edges))

    def test_divided_bound_is_allowable(self, demo_instance, demo_optimum, demo_sens):
        assert verify_allowable(demo_instance, demo_optimum, divided_bound(demo_sens, 3))

    def test_single_edge_at_sensitivity_boundary(self, demo_instance, demo_optimum):
        below = {e: 0.0 for e in demo_instance.edges}
        below[(1, 0)] = 156.0
        assert verify_allowable(demo_instance, demo_optimum, Perturbation(below))
        above = dict(below)
        above[(1, 0)] = 158.0
        assert not verify_allowable(demo_instance, demo_optimum, Perturbation(above))

    def test_edge_set_mismatch_rejected(self, demo_instance, demo_optimum):
        with pytest.raises(ShapeMismatchError):
            verify_allowable(demo_instance, demo_optimum, Perturbation({(0, 0): 0.0}))

    def test_overflowing_perturbed_cost_names_the_overflow(self):
        # The optimum costs 1.6e308. Its worst case under +/-1e307 raises its
        # own edges and lowers the others, and then every matching's cost overflows.
        inst = BipartiteInstance.from_matrix([[8e307, 1.5e308], [1.5e308, 8e307]])
        assn = solve_lap(inst).assignment
        deltas = {(0, 0): 1e307, (0, 1): -1e307, (1, 0): -1e307, (1, 1): 1e307}
        with pytest.raises(ValueError, match=OVERFLOW):
            verify_allowable(inst, assn, Perturbation(deltas))
        with pytest.raises(ValueError, match=OVERFLOW):
            certify_exact(inst, assn, ErrorBounds.uniform(inst.edges, 1e307))


class TestCriticalSearch:
    def test_swap_2x2_exact_in_one_iteration(self):
        inst = swap_instance()
        report = critical_search(inst, solve_lap(inst).assignment)
        assert report.iterations == 1
        assert report.residual == 0.0
        assert report.converged is True
        assert report.perturbation.deltas == {
            (0, 0): 5.0,
            (0, 1): -5.0,
            (1, 0): -5.0,
            (1, 1): 5.0,
        }

    def test_known_3x3_converges(self, demo_instance, demo_optimum):
        report = critical_search(demo_instance, demo_optimum)
        assert report.converged
        assert report.residual <= max(1e-6 * 163.0, 1e-9)
        assert verify_allowable(demo_instance, demo_optimum, report.perturbation)
        assert is_critical(demo_instance, demo_optimum, report.perturbation)

    def test_iteration_cap_is_not_an_error(self, demo_instance, demo_optimum):
        report = critical_search(demo_instance, demo_optimum, max_iters=1)
        assert report.iterations == 1
        assert report.converged is False
        assert verify_allowable(demo_instance, demo_optimum, report.perturbation)

    def test_trace_records_every_iterate(self, demo_instance, demo_optimum):
        report = critical_search(demo_instance, demo_optimum, keep_trace=True)
        assert len(report.trace) == report.iterations
        assert report.trace[-1].perturbation == report.perturbation
        assert report.trace[-1].residual == report.residual

    def test_degenerate_rejected(self):
        inst = BipartiteInstance.from_matrix([[1, 1], [1, 1]])
        with pytest.raises(DegenerateOptimumError):
            critical_search(inst, Assignment.from_task_map({0: 0, 1: 1}))

    def test_parameter_validation(self, demo_instance, demo_optimum):
        with pytest.raises(ValueError):
            critical_search(demo_instance, demo_optimum, max_iters=0)

    @pytest.mark.parametrize(
        "grid",
        [[[91, 33, 15], [5, 86, 92], [85, 9, 42]], [[91, 33, 15], [None, 86, 92], [None, 9, 42]]],
        ids=["reference", "infeasible-flips"],
    )
    def test_report_keeps_initial_sensitivities(self, grid):
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        report = critical_search(inst, assn)
        assert report.sensitivities == elementwise_sensitivities(inst, assn)

    @pytest.mark.parametrize(
        "grid, passes",
        [
            ([[91, 33, 15], [None, 86, 92], [None, 9, 42]], 13),
            ([[91, 33, 15], [None, 86, 92], [None, 9, 42], [None, 50, None]], 76),
        ],
        ids=["square", "rectangular"],
    )
    def test_infeasible_flips_still_converge(self, grid, passes):
        # Task 0 has only agent 0, so every flip touching agent 0 is infeasible.
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        sens0 = elementwise_sensitivities(inst, assn)
        report = critical_search(inst, assn)
        assert report.converged is True
        assert report.iterations == passes
        saturated = {(0, 0), (0, 1), (0, 2)}
        assert report.perturbation.saturated == saturated
        assert report.residual <= 1e-6 * _solver.finite_max(np.array([*sens0.values.values()]))
        for edge in saturated:
            # divided_bound's placeholder, never moved
            expected = math.copysign(DEFAULT_SATURATION_CAP, sens0.values[edge]) / (
                2 * inst.num_tasks
            )
            assert report.perturbation.deltas[edge] == expected
        assert verify_allowable(inst, assn, report.perturbation)

    @pytest.mark.parametrize("grid", [[[7]], [[5], [None]]], ids=["1x1", "2x1"])
    def test_no_finite_sensitivity_stops_after_one_pass(self, grid):
        # Every edge holds its placeholder, so the one pass moves nothing.
        inst = BipartiteInstance.from_matrix(grid)
        report = critical_search(inst, solve_lap(inst).assignment, keep_trace=True)
        assert report.iterations == 1
        assert report.converged is False
        assert report.residual == math.inf
        assert report.perturbation.deltas == {(0, 0): 5e8}
        assert len(report.trace) == 1

    def test_infinite_sensitivities_never_converge(self):
        inst = BipartiteInstance.from_matrix([[7]])
        report = critical_search(inst, Assignment.from_task_map({0: 0}), max_iters=3)
        assert report.converged is False
        assert report.residual == math.inf
        assert report.perturbation.saturated == frozenset({(0, 0)})


class TestIsCritical:
    def test_zero_perturbation_not_critical(self, demo_instance, demo_optimum):
        assert not is_critical(demo_instance, demo_optimum, Perturbation.zeros(demo_instance.edges))

    def test_divided_bound_not_critical(self, demo_instance, demo_optimum, demo_sens):
        assert not is_critical(demo_instance, demo_optimum, divided_bound(demo_sens, 3))

    def test_divided_bound_leaves_known_residual(self, demo_instance, demo_optimum, demo_sens):
        # after the first divided step, blocking (1, 0) still costs 70 extra
        shifted = demo_instance.shifted(divided_bound(demo_sens, 3).deltas)
        sens = elementwise_sensitivities(shifted, demo_optimum, allow_degenerate=True)
        assert sens.values[(1, 0)] == pytest.approx(70.0, abs=1e-9)

    def test_swap_2x2_critical_point(self):
        inst = swap_instance()
        assn = solve_lap(inst).assignment
        pert = Perturbation({(0, 0): 5.0, (0, 1): -5.0, (1, 0): -5.0, (1, 1): 5.0})
        assert is_critical(inst, assn, pert)

    def test_infeasible_flips_are_skipped(self):
        # Edges of agent 0 have infinite sensitivities that no shift can zero.
        inst = BipartiteInstance.from_matrix([[91, 33, 15], [None, 86, 92], [None, 9, 42]])
        assn = solve_lap(inst).assignment
        report = critical_search(inst, assn)
        assert report.converged
        assert is_critical(inst, assn, report.perturbation)
        assert not is_critical(inst, assn, Perturbation.zeros(inst.edges))

    def test_no_finite_sensitivity_is_never_critical(self):
        inst = BipartiteInstance.from_matrix([[7]])
        assn = Assignment.from_task_map({0: 0})
        assert not is_critical(inst, assn, critical_search(inst, assn).perturbation)


class TestCertifyOptimal:
    def test_swap_2x2_bounds(self):
        inst = swap_instance()
        assn = solve_lap(inst).assignment
        pert = critical_search(inst, assn).perturbation
        edges = inst.edges
        assert certify_optimal(pert, assn, ErrorBounds.uniform(edges, 3.0))
        assert certify_optimal(pert, assn, ErrorBounds.uniform(edges, 5.0))  # non-strict
        assert not certify_optimal(pert, assn, ErrorBounds.uniform(edges, 6.0))

    def test_zero_bounds_always_certify(self, demo_instance, demo_optimum):
        pert = Perturbation.zeros(demo_instance.edges)
        assert certify_optimal(pert, demo_optimum, ErrorBounds.uniform(demo_instance.edges, 0.0))

    def test_edge_set_mismatch(self, demo_instance, demo_optimum):
        pert = Perturbation.zeros(demo_instance.edges)
        with pytest.raises(ShapeMismatchError):
            certify_optimal(pert, demo_optimum, ErrorBounds({(0, 0): 1.0}))

    def test_per_edge_bounds(self):
        inst = swap_instance()
        assn = solve_lap(inst).assignment
        pert = critical_search(inst, assn).perturbation
        bounds = {(0, 0): 5.0, (0, 1): 5.0, (1, 0): 5.0, (1, 1): 5.0}
        assert certify_optimal(pert, assn, ErrorBounds(bounds))
        bounds[(0, 1)] = 5.5
        assert not certify_optimal(pert, assn, ErrorBounds(bounds))


class TestCertifyExact:
    def test_swap_2x2_bounds(self):
        inst = swap_instance()
        assn = solve_lap(inst).assignment
        edges = inst.edges
        assert certify_exact(inst, assn, ErrorBounds.uniform(edges, 3.0))
        assert certify_exact(inst, assn, ErrorBounds.uniform(edges, 5.0))  # exact tie
        assert not certify_exact(inst, assn, ErrorBounds.uniform(edges, 5.5))

    def test_known_3x3_radius(self, demo_instance, demo_optimum):
        # Rivals two swaps away cost 51 more, so the optimum survives +/-51/4.
        edges = demo_instance.edges
        assert certify_exact(demo_instance, demo_optimum, ErrorBounds.uniform(edges, 8.5))
        exact = ErrorBounds.uniform(edges, 12.75)
        assert certify_exact(demo_instance, demo_optimum, exact)
        assert not certify_exact(demo_instance, demo_optimum, ErrorBounds.uniform(edges, 12.8))
        # The paper's certificate stops just short of the radius.
        pert = critical_search(demo_instance, demo_optimum).perturbation
        assert not certify_optimal(pert, demo_optimum, exact)

    def test_per_edge_bounds(self):
        inst = swap_instance()
        assn = solve_lap(inst).assignment
        bounds = {(0, 0): 5.0, (0, 1): 5.0, (1, 0): 5.0, (1, 1): 5.0}
        assert certify_exact(inst, assn, ErrorBounds(bounds))
        bounds[(0, 1)] = 5.5
        assert not certify_exact(inst, assn, ErrorBounds(bounds))

    def test_missing_edges_and_spare_agent(self):
        # Task 0 can only go to agent 0, so its bound cannot matter.
        inst = BipartiteInstance.from_matrix([[1, 9], [None, 2], [None, 4]])
        assn = solve_lap(inst).assignment
        bounds = {e: 0.9 for e in inst.edges}
        bounds[(0, 0)] = 1e6
        assert certify_exact(inst, assn, ErrorBounds(bounds))
        bounds[(2, 1)] = 1.2  # 2 + 0.9 > 4 - 1.2: the spare agent may be closer
        assert not certify_exact(inst, assn, ErrorBounds(bounds))

    def test_saturated_bounds_on_forced_edges(self):
        # The only full matching; divided_bound saturates every edge to 1e9/6.
        inst = BipartiteInstance.from_matrix(
            [[0.2, None, None], [None, None, 0.4], [None, 1.0, None]]
        )
        assn = solve_lap(inst).assignment
        pert = divided_bound(elementwise_sensitivities(inst, assn), inst.num_tasks)
        bounds = ErrorBounds({e: abs(d) for e, d in pert.deltas.items()})
        assert certify_optimal(pert, assn, bounds)
        assert certify_exact(inst, assn, bounds)

    def test_non_optimum_refused_even_without_error(self, demo_instance):
        assn = Assignment.from_task_map({0: 0, 1: 1, 2: 2})
        assert not certify_exact(
            demo_instance, assn, ErrorBounds.uniform(demo_instance.edges, 0.0)
        )

    def test_edge_set_mismatch(self, demo_instance, demo_optimum):
        with pytest.raises(ShapeMismatchError):
            certify_exact(demo_instance, demo_optimum, ErrorBounds({(0, 0): 1.0}))


class TestValueTypes:
    def test_perturbation_must_be_finite(self):
        with pytest.raises(ValueError):
            Perturbation({(0, 0): math.inf})

    def test_saturated_must_be_subset(self):
        with pytest.raises(ValueError):
            Perturbation({(0, 0): 1.0}, frozenset({(1, 1)}))

    def test_error_bounds_nonnegative(self):
        with pytest.raises(ValueError):
            ErrorBounds({(0, 0): -1.0})

    def test_sensitivity_rejects_nan(self):
        from lapsens import SensitivityMatrix

        with pytest.raises(ValueError):
            SensitivityMatrix({(0, 0): math.nan})
