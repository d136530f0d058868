"""Property-based tests: the fast paths must agree with the independent oracles."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lapsens import (
    Assignment,
    BipartiteInstance,
    DegenerateOptimumError,
    ErrorBounds,
    InfeasibleError,
    Perturbation,
    analyze,
    assignment_cost,
    brute_force_solve,
    certify_exact,
    certify_optimal,
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
from lapsens import _solver
from lapsens._solver import ExchangeKernel, fixed_edges
from lapsens.perturb import DEFAULT_MAX_ITERS, DEFAULT_SATURATION_CAP, default_stop_tol

from conftest import (
    oracle_constrained_sensitivities,
    oracle_enumerate,
    oracle_lap_cost,
    oracle_optima,
    oracle_sensitivities,
    oracle_worst_case_certified,
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
def sparse_grids(draw, min_n=1, max_n=4, solvable=True, hi=60):
    grid = draw(dense_grids(min_n=min_n, max_n=max_n, hi=hi))
    masked = [
        [w if draw(st.booleans()) else None for w in row]
        for row in grid
    ]
    if solvable:
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


class TestSolveCanonical:
    # Weights up to 3 make ties common, so the tie-break is exercised.
    @settings(max_examples=150, deadline=None)
    @given(sparse_grids(max_n=5, solvable=False, hi=3))
    def test_matches_solve_lap_and_oracle(self, grid):
        instance = BipartiteInstance.from_matrix(grid)
        result = _solver.solve_canonical(instance.dense())
        solved = oracle_optima(grid)
        if solved is None:
            assert result is None
            with pytest.raises(InfeasibleError):
                solve_lap(instance)
            return
        task_to_agent, unique = result
        report = solve_lap(instance)
        assert tuple(enumerate(task_to_agent.tolist())) == report.assignment.pairs
        assert unique is report.unique
        _, optima = solved
        assert tuple(task_to_agent.tolist()) == optima[0]
        assert unique == (len(optima) == 1)


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


def _error_bounds(grid, eps) -> ErrorBounds:
    return ErrorBounds(
        {
            (a, b): eps[a][b]
            for a, row in enumerate(grid)
            for b, w in enumerate(row)
            if w is not None
        }
    )


class TestCertifyExactProperties:
    @SETTINGS
    @given(sparse_grids(), st.data())
    def test_matches_worst_case_oracle(self, grid, data):
        # Any matching, optimal or not; quarter-step bounds keep sums exact.
        _, perm = data.draw(st.sampled_from(oracle_enumerate(grid)))
        quarters = st.integers(0, 40).map(lambda k: k / 4)
        eps = [[data.draw(quarters) for _ in row] for row in grid]
        inst = BipartiteInstance.from_matrix(grid)
        got = certify_exact(inst, Assignment(tuple(enumerate(perm))), _error_bounds(grid, eps))
        assert got == oracle_worst_case_certified(grid, perm, eps)

    @settings(max_examples=25, deadline=None)
    @given(sparse_grids(), st.data())
    def test_paper_certificate_implies_exact(self, grid, data):
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        try:
            sens = elementwise_sensitivities(inst, assn)
        except DegenerateOptimumError:
            assume(False)
        share = st.floats(0.0, 1.0)
        for pert in (
            critical_search(inst, assn).perturbation,
            divided_bound(sens, inst.num_tasks),
        ):
            # A share of each edge's budget, so the paper's certificate accepts;
            # saturated budgets keep their full size.
            bounds = ErrorBounds(
                {e: data.draw(share) * abs(d) for e, d in pert.deltas.items()}
            )
            assert certify_optimal(pert, assn, bounds)
            assert certify_exact(inst, assn, bounds)

    @SETTINGS
    @given(sparse_grids())
    def test_zero_error_accepts_every_optimum(self, grid):
        inst = BipartiteInstance.from_matrix(grid)
        zero = ErrorBounds.uniform(inst.edges, 0.0)
        _, optima = oracle_optima(grid)
        for perm in optima:
            assert certify_exact(inst, Assignment(tuple(enumerate(perm))), zero)


class TestFixedEdgesProperties:
    @SETTINGS
    @given(sparse_grids(), st.data())
    def test_marks_edges_every_matching_agrees_on(self, grid, data):
        matchings = oracle_enumerate(grid)
        _, perm = data.draw(st.sampled_from(matchings))
        mat = np.array([[np.inf if w is None else w for w in row] for row in grid])
        got = fixed_edges(mat, np.array(perm))
        for a, row in enumerate(grid):
            for b, w in enumerate(row):
                agree = len({m[b] == a for _, m in matchings}) == 1
                assert got[a, b] == (w is not None and agree)


def _dense(grid) -> np.ndarray:
    return np.array([[np.inf if w is None else w for w in row] for row in grid], dtype=float)


class TestExchangeKernelProperties:
    """One kernel reused across weights must give what a fresh one gives, bit for bit."""

    @SETTINGS
    @given(sparse_grids(), st.data())
    def test_reused_kernel_matches_fresh_kernels(self, grid, data):
        # Any matching, optimal or not; quarter steps give exact ties and zeros.
        _, perm = data.draw(st.sampled_from(oracle_enumerate(grid)))
        mat, pi = _dense(grid), np.array(perm)
        kernel = ExchangeKernel(np.isfinite(mat), pi)
        quarters = st.integers(-40, 40).map(lambda k: k / 4)
        returned = []
        for _ in range(3):
            shifted = mat + np.array([[data.draw(quarters) for _ in row] for row in grid])
            got = kernel(shifted)
            # tobytes compares NaN positions and the sign of zero as well.
            assert got.tobytes() == ExchangeKernel(np.isfinite(mat), pi)(shifted).tobytes()
            returned.append((got, got.copy()))
        for got, kept in returned:
            assert got.tobytes() == kept.tobytes()

    @SETTINGS
    @given(sparse_grids(), st.data())
    def test_batched_kernel_matches_one_matrix_kernels(self, grid, data):
        # Every slice weighs the grid's edge set so that a matching of its own
        # is optimal: that matching's edges weigh +/-0.0 and the others small
        # integers, which gives ties and signed zeros; missing edges give
        # infinite flips.
        mask = np.isfinite(_dense(grid))
        matchings = [perm for _, perm in oracle_enumerate(grid)]
        batch = data.draw(st.integers(1, 4))
        maps = np.array([data.draw(st.sampled_from(matchings)) for _ in range(batch)])
        zeros, small = st.sampled_from([0.0, -0.0]), st.integers(0, 2).map(float)
        stack = np.full((batch,) + mask.shape, np.inf)
        for b, pi in enumerate(maps):
            for a, t in zip(*np.nonzero(mask)):
                stack[b, a, t] = data.draw(zeros if pi[t] == a else small)
        kernel = ExchangeKernel(mask, maps)
        quarters = st.integers(-8, 8).map(lambda k: k / 4)
        for _ in range(2):
            got = kernel(stack)
            # tobytes compares NaN positions and the sign of zero as well.
            assert got.tobytes() == ExchangeKernel(mask, maps)(stack).tobytes()
            for b in range(batch):
                assert got[b].tobytes() == ExchangeKernel(mask, maps[b])(stack[b]).tobytes()
            shift = [[[data.draw(quarters) for _ in row] for row in grid] for _ in maps]
            stack = stack + np.array(shift)


def _reference_critical_search(instance, optimum):
    """`critical_search` written plainly, as its reference.

    It rebuilds the exchange graph through `_solver.sens_dense` on every
    pass, clamps with `np.clip` and allocates fresh arrays throughout; the
    answers must match the prepared kernel's bit for bit.
    """
    sens0 = elementwise_sensitivities(instance, optimum)
    tol = default_stop_tol(sens0)
    edges = instance.sorted_edges()
    saturated = frozenset(e for e, v in sens0.values.items() if math.isinf(v))

    mat = instance.dense()
    task_map = optimum.task_map()
    pi = np.array([task_map[t] for t in range(instance.num_tasks)], dtype=np.intp)
    edge_mask = np.isfinite(mat)
    shape = (instance.num_agents, instance.num_tasks)
    sens = np.full(shape, np.nan)
    for edge, v in sens0.values.items():
        sens[edge] = v
    finite = np.isfinite(sens)
    all_saturated = bool(edges) and not finite.any()
    floor = math.inf if all_saturated else 0.0
    delta = np.zeros(shape)
    residual = float(np.abs(sens[finite]).max(initial=floor))
    two_n = 2.0 * instance.num_tasks
    moving = edge_mask
    iterations = 0
    while residual > tol and iterations < DEFAULT_MAX_ITERS:
        step = np.clip(sens, -DEFAULT_SATURATION_CAP, DEFAULT_SATURATION_CAP) / two_n
        delta = delta + np.where(moving, step, 0.0)
        moving = finite
        sens = _solver.sens_dense(mat + delta, pi)
        residual = float(np.abs(sens[finite]).max(initial=floor))
        iterations += 1
        if all_saturated:
            break
    pert = Perturbation({e: float(delta[e]) for e in edges}, saturated)
    return pert, iterations, residual, residual <= tol


def _assert_matches_reference(grid):
    inst = BipartiteInstance.from_matrix(grid)
    assn = solve_lap(inst).assignment
    try:
        want = _reference_critical_search(inst, assn)
    except DegenerateOptimumError:
        assume(False)
    report = critical_search(inst, assn)
    pert, iterations, residual, converged = want
    assert report.iterations == iterations
    assert report.residual == residual
    assert report.converged == converged
    assert report.perturbation.saturated == pert.saturated
    assert report.perturbation.deltas == pert.deltas
    # == takes -0.0 for +0.0, so compare the signs of the deltas too.
    assert [math.copysign(1.0, d) for d in report.perturbation.deltas.values()] == [
        math.copysign(1.0, pert.deltas[e]) for e in report.perturbation.deltas
    ]


class TestCriticalSearchAgainstReferenceLoop:
    @pytest.mark.parametrize(
        "grid",
        [
            [[91, 33, 15], [5, 86, 92], [85, 9, 42]],
            [[91, 33, 15], [None, 86, 92], [None, 9, 42]],
            [[91, 33, 15], [None, 86, 92], [None, 9, 42], [None, 50, None]],
        ],
        ids=["reference", "infeasible-flips", "infeasible-flips-rectangular"],
    )
    def test_fixed_instances(self, grid):
        _assert_matches_reference(grid)

    @settings(max_examples=50, deadline=None)
    @given(sparse_grids())
    def test_sparse_grids(self, grid):
        _assert_matches_reference(grid)


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
