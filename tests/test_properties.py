"""Property-based tests: the fast paths must agree with the independent oracles."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lapsens import (
    Assignment,
    BipartiteInstance,
    DegenerateOptimumError,
    InfeasibleError,
    Perturbation,
    analyze,
    assignment_cost,
    brute_force_solve,
    constrained_solve,
    critical_search,
    divided_bound,
    elementwise_sensitivities,
    format_matrix,
    halfspace_intervals,
    is_critical,
    parse_matrix,
    report_from_json,
    report_to_json,
    solve_lap,
    uniqueness_check,
    verify_allowable,
)

from conftest import (
    oracle_constrained_sensitivities,
    oracle_enumerate,
    oracle_lap_cost,
    oracle_optima,
    oracle_sensitivities,
)

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def dense_grids(draw, min_n=1, max_n=4, lo=0, hi=60):
    num_tasks = draw(st.integers(min_n, max_n))
    num_agents = draw(st.integers(num_tasks, num_tasks + 2))
    return [
        [draw(st.integers(lo, hi)) for _ in range(num_tasks)]
        for _ in range(num_agents)
    ]


@st.composite
def sparse_grids(draw, min_n=1, max_n=4):
    grid = draw(dense_grids(min_n=min_n, max_n=max_n))
    masked = [
        [w if draw(st.booleans()) else None for w in row]
        for row in grid
    ]
    assume(oracle_enumerate(masked))  # at least one full matching survives
    return masked


@st.composite
def float_grids(draw, max_n=12):
    """Float weights, up to max_n tasks, some edges missing, always solvable."""
    num_tasks = draw(st.integers(1, max_n))
    num_agents = draw(st.integers(num_tasks, num_tasks + 2))
    weight = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
    grid = [
        [draw(weight) if draw(st.booleans()) else None for _ in range(num_tasks)]
        for _ in range(num_agents)
    ]
    mat = np.array([[np.inf if w is None else w for w in row] for row in grid])
    assume(math.isfinite(oracle_lap_cost(mat)))
    return grid


@st.composite
def unique_grids(draw, min_n=2, max_n=4):
    grid = draw(dense_grids(min_n=min_n, max_n=max_n, lo=0, hi=100))
    _, optima = oracle_optima(grid)
    assume(len(optima) == 1)
    return grid


class TestSolverAgainstOracle:
    @SETTINGS
    @given(dense_grids())
    def test_cost_matches_enumeration(self, grid):
        best, optima = oracle_optima(grid)
        report = solve_lap(BipartiteInstance.from_matrix(grid))
        assert report.cost == best
        assert tuple(report.assignment.task_map()[t] for t in range(len(grid[0]))) in set(
            optima
        )

    @SETTINGS
    @given(dense_grids())
    def test_lexicographic_minimum_among_optima(self, grid):
        _, optima = oracle_optima(grid)
        report = solve_lap(BipartiteInstance.from_matrix(grid))
        got = tuple(report.assignment.task_map()[t] for t in range(len(grid[0])))
        assert got == optima[0]

    @SETTINGS
    @given(sparse_grids())
    def test_sparse_instances(self, grid):
        best, optima = oracle_optima(grid)
        report = solve_lap(BipartiteInstance.from_matrix(grid))
        got = tuple(report.assignment.task_map()[t] for t in range(len(grid[0])))
        assert report.cost == best and got == optima[0]

    @SETTINGS
    @given(sparse_grids())
    def test_brute_force_matches_oracle(self, grid):
        best, optima = oracle_optima(grid)
        result = brute_force_solve(BipartiteInstance.from_matrix(grid))
        assert result.cost == best
        got = [
            tuple(a.task_map()[t] for t in range(len(grid[0]))) for a in result.optima
        ]
        assert got == optima

    @SETTINGS
    @given(dense_grids(), st.integers(-20, 20))
    def test_constant_shift_preserves_assignment(self, grid, shift):
        base = solve_lap(BipartiteInstance.from_matrix(grid))
        shifted_grid = [[w + shift for w in row] for row in grid]
        shifted = solve_lap(BipartiteInstance.from_matrix(shifted_grid))
        assert shifted.assignment == base.assignment
        assert shifted.cost == pytest.approx(base.cost + shift * len(grid[0]))

    @SETTINGS
    @given(dense_grids())
    def test_uniqueness_agrees_with_optima_count(self, grid):
        _, optima = oracle_optima(grid)
        report = solve_lap(BipartiteInstance.from_matrix(grid))
        assert report.unique == (len(optima) == 1)
        assert uniqueness_check(BipartiteInstance.from_matrix(grid), report.assignment) == (
            len(optima) == 1
        )

    @SETTINGS
    @given(sparse_grids())
    def test_uniqueness_on_sparse_grids(self, grid):
        _, optima = oracle_optima(grid)
        assert solve_lap(BipartiteInstance.from_matrix(grid)).unique == (len(optima) == 1)


class TestConstrainedAgainstOracle:
    @SETTINGS
    @given(sparse_grids(min_n=1, max_n=3), st.integers(0, 10**6))
    def test_force_and_block(self, grid, pick):
        matchings = oracle_enumerate(grid)
        inst = BipartiteInstance.from_matrix(grid)
        edges = inst.sorted_edges()
        a, b = edges[pick % len(edges)]
        with_edge = [c for c, p in matchings if p[b] == a]
        without_edge = [c for c, p in matchings if p[b] != a]
        if with_edge:
            forced = constrained_solve(inst, (a, b), "force")
            assert forced.cost == min(with_edge)
            assert forced.assignment.agent_of(b) == a
        else:
            with pytest.raises(InfeasibleError):
                constrained_solve(inst, (a, b), "force")
        if without_edge:
            blocked = constrained_solve(inst, (a, b), "block")
            assert blocked.cost == min(without_edge)
            assert blocked.assignment.agent_of(b) != a
        else:
            with pytest.raises(InfeasibleError):
                constrained_solve(inst, (a, b), "block")


class TestSensitivityProperties:
    @SETTINGS
    @given(unique_grids())
    def test_matches_oracle_exactly(self, grid):
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        expected = oracle_sensitivities(grid, assn.task_map())
        got = elementwise_sensitivities(inst, assn)
        assert dict(got.values) == expected

    @SETTINGS
    @given(sparse_grids())
    def test_matches_enumeration_on_sparse_grids(self, grid):
        # Rectangular shapes, missing edges, +/-inf flips and tied optima.
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        expected = oracle_sensitivities(grid, assn.task_map())
        got = elementwise_sensitivities(inst, assn, allow_degenerate=True)
        assert dict(got.values) == expected

    @SETTINGS
    @given(float_grids())
    def test_matches_constrained_solves_on_floats(self, grid):
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        pi = [assn.task_map()[t] for t in range(inst.num_tasks)]
        expected = oracle_constrained_sensitivities(inst.dense(), pi)
        got = elementwise_sensitivities(inst, assn, allow_degenerate=True).values
        scale = max(abs(w) for w in inst.weights.values())
        tol = 1e-9 * scale * inst.num_tasks
        assert set(got) == set(expected)
        for edge, want in expected.items():
            if math.isinf(want):
                assert got[edge] == want
            else:
                assert abs(got[edge] - want) <= tol

    @SETTINGS
    @given(unique_grids())
    def test_sign_pattern(self, grid):
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        sens = elementwise_sensitivities(inst, assn)
        assigned = assn.assigned_edges()
        for edge, value in sens.values.items():
            assert value > 0 if edge in assigned else value < 0

    @SETTINGS
    @given(unique_grids(), st.floats(0.0, 30.0))
    def test_divided_bound_allowable_and_halfspace_extends(self, grid, slack):
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        pert = divided_bound(elementwise_sensitivities(inst, assn), inst.num_tasks)
        assert verify_allowable(inst, assn, pert)
        assigned = assn.assigned_edges()
        extended = Perturbation(
            {
                e: (d - slack) if e in assigned else (d + slack)
                for e, d in pert.deltas.items()
            }
        )
        assert verify_allowable(inst, assn, extended)

    @SETTINGS
    @given(unique_grids())
    def test_single_edge_within_sensitivity_is_allowable(self, grid):
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        sens = elementwise_sensitivities(inst, assn)
        edge, value = min(sens.values.items(), key=lambda kv: abs(kv[1]))
        deltas = {e: 0.0 for e in inst.edges}
        deltas[edge] = value  # the full one-edge budget, inclusive
        assert verify_allowable(inst, assn, Perturbation(deltas))
        deltas[edge] = value * 1.5 + math.copysign(1.0, value)
        assert not verify_allowable(inst, assn, Perturbation(deltas))


class TestCriticalSearchProperties:
    @settings(max_examples=15, deadline=None)
    @given(unique_grids(min_n=2, max_n=3))
    def test_iterates_allowable_monotone_and_critical(self, grid):
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        sens0 = elementwise_sensitivities(inst, assn)
        report = critical_search(inst, assn, keep_trace=True)
        assert report.converged
        assigned = assn.assigned_edges()
        previous = {e: 0.0 for e in inst.edges}
        last_residual = math.inf
        for step in report.trace:
            assert verify_allowable(inst, assn, step.perturbation)
            assert step.residual <= last_residual + 1e-9
            last_residual = step.residual
            for e, d in step.perturbation.deltas.items():
                if e in assigned:
                    assert d >= previous[e] - 1e-9
                else:
                    assert d <= previous[e] + 1e-9
                assert abs(d) <= abs(sens0.values[e]) + 1e-9
                previous[e] = d
        assert is_critical(inst, assn, report.perturbation)


class TestFormatsRoundTrip:
    @SETTINGS
    @given(sparse_grids())
    def test_matrix_text_round_trip(self, grid):
        inst = BipartiteInstance.from_matrix(grid)
        assert parse_matrix(format_matrix(inst)) == inst

    @SETTINGS
    @given(
        st.lists(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, width=64), min_size=2, max_size=2
            ),
            min_size=2,
            max_size=3,
        )
    )
    def test_float_weights_round_trip(self, rows):
        inst = BipartiteInstance.from_matrix(rows)
        assert parse_matrix(format_matrix(inst)) == inst

    @settings(max_examples=15, deadline=None)
    @given(unique_grids(min_n=2, max_n=3))
    def test_analysis_report_round_trip(self, grid):
        try:
            report = analyze(BipartiteInstance.from_matrix(grid))
        except DegenerateOptimumError:
            assume(False)
        assert report_from_json(report_to_json(report)) == report


class TestAssignmentCostConsistency:
    @SETTINGS
    @given(dense_grids())
    def test_report_cost_equals_recomputed_cost(self, grid):
        inst = BipartiteInstance.from_matrix(grid)
        report = solve_lap(inst)
        assert assignment_cost(inst, report.assignment) == report.cost
