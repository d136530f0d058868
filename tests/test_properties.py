"""Property-based tests: the fast paths must agree with the independent oracles."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from lapsens import _solver, perturb
from lapsens._solver import ExchangeKernel
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
def scaled_float_grids(draw, max_n=4):
    """`float_grids` scaled so that the weights reach about 1e8 or 1e12."""
    factor = draw(st.sampled_from([1e5, 1e9]))
    return [[None if w is None else w * factor for w in row] for row in draw(float_grids(max_n))]


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
    # Rivals a hair costlier than the optimum: an absolute tie tolerance
    # took them for ties and handed the kernel a matching that is not optimal.
    @example([[1.4117418926548737e-135], [0.0]])
    @example([[9.130860064213693e-14], [0.0]])
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
    @given(st.one_of(sparse_grids(), scaled_float_grids()), st.data())
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


class TestScaleInvariance:
    """Scaling every weight by 2**k changes no decision: ties follow the weights' scale.

    A power of two scales every sum and difference exactly, away from
    overflow and subnormals, so the answers must match bit for bit.
    """

    @SETTINGS
    @given(
        st.one_of(sparse_grids(), float_grids(max_n=5)), st.sampled_from([-40, 40]), st.data()
    )
    def test_solve_sensitivities_and_certificate(self, grid, k, data):
        inst = BipartiteInstance.from_matrix(grid)
        scaled = {e: math.ldexp(w, k) for e, w in inst.weights.items()}
        assume(all(math.ldexp(w, -k) == inst.weights[e] for e, w in scaled.items()))
        big = BipartiteInstance(inst.num_agents, inst.num_tasks, scaled)
        report, big_report = solve_lap(inst), solve_lap(big)
        assert big_report.assignment == report.assignment
        assert big_report.unique == report.unique
        assn = report.assignment
        sens = elementwise_sensitivities(inst, assn, allow_degenerate=True).values
        big_sens = elementwise_sensitivities(big, assn, allow_degenerate=True).values
        assert big_sens == {e: math.ldexp(v, k) for e, v in sens.items()}
        quarters = st.integers(0, 40).map(lambda q: q / 4)
        bounds = {e: data.draw(quarters) for e in sorted(inst.edges)}
        big_bounds = {e: math.ldexp(b, k) for e, b in bounds.items()}
        assert certify_exact(big, assn, ErrorBounds(big_bounds)) == certify_exact(
            inst, assn, ErrorBounds(bounds)
        )

    @SETTINGS
    @given(
        st.one_of(sparse_grids(), float_grids(max_n=4)), st.sampled_from([-40, 40]), st.data()
    )
    def test_critical_search_and_paper_certificate(self, grid, k, data):
        inst = BipartiteInstance.from_matrix(grid)
        # Far from subnormals, so that no delta or residual loses bits at 2**-40.
        assume(all(w == 0 or abs(w) > 1e-200 for w in inst.weights.values()))
        big = BipartiteInstance(
            inst.num_agents, inst.num_tasks, {e: math.ldexp(w, k) for e, w in inst.weights.items()}
        )
        assn = solve_lap(inst).assignment
        try:
            report = critical_search(inst, assn)
        except DegenerateOptimumError:
            assume(False)
        big_report = critical_search(big, assn)
        assert big_report.iterations == report.iterations
        assert big_report.residual == math.ldexp(report.residual, k)
        assert big_report.converged == report.converged
        pert, big_pert = report.perturbation, big_report.perturbation
        # Saturated edges keep the placeholder, which does not scale.
        assert big_pert.saturated == pert.saturated
        assert big_pert.deltas == {
            e: d if e in pert.saturated else math.ldexp(d, k) for e, d in pert.deltas.items()
        }
        assert is_critical(big, assn, big_pert) == is_critical(inst, assn, pert)
        # Bounds at, just past and below each delta; 0 on the saturated edges.
        bounds = {
            e: 0.0 if e in pert.saturated else data.draw(
                st.sampled_from([abs(d), math.nextafter(abs(d), math.inf), abs(d) / 2])
            )
            for e, d in sorted(pert.deltas.items())
        }
        big_bounds = {e: math.ldexp(b, k) for e, b in bounds.items()}
        assert certify_optimal(big_pert, assn, ErrorBounds(big_bounds)) == certify_optimal(
            pert, assn, ErrorBounds(bounds)
        )

    @pytest.mark.parametrize("k", [-40, 40])
    def test_readme_grid_search_and_certificate(self, k):
        grid = [[91, 33, 15], [5, 86, 92], [85, 9, 42]]
        inst = BipartiteInstance.from_matrix(grid)
        big = BipartiteInstance.from_matrix([[math.ldexp(w, k) for w in row] for row in grid])
        assn = solve_lap(inst).assignment
        report, big_report = critical_search(inst, assn), critical_search(big, assn)
        assert (report.iterations, report.converged) == (61, True)
        assert (big_report.iterations, big_report.converged) == (61, True)
        assert big_report.perturbation.deltas == {
            e: math.ldexp(d, k) for e, d in report.perturbation.deltas.items()
        }
        assert is_critical(big, assn, big_report.perturbation)
        eps = ErrorBounds.uniform(big.edges, math.ldexp(8.5, k))
        assert certify_optimal(big_report.perturbation, assn, eps)


class TestCriticalSearchContraction:
    """Each pass of the critical search shrinks the residual by a factor of at most 1 - 1/2N."""

    @SETTINGS
    @given(sparse_grids())
    @example([[91, 33, 15], [None, 86, 92], [None, 9, 42], [None, 50, None]])
    @example([[7], [None]])
    def test_residual_contracts_every_pass(self, grid):
        inst = BipartiteInstance.from_matrix(grid)
        try:
            report = critical_search(inst, solve_lap(inst).assignment, keep_trace=True)
        except DegenerateOptimumError:
            assume(False)
        finite = [abs(s) for s in report.sensitivities.values.values() if math.isfinite(s)]
        residuals = [step.residual for step in report.trace]
        if not finite:
            assert residuals == [math.inf]
            return
        rate = 1 - 1 / (2 * inst.num_tasks)
        # Every residual that starts a pass exceeds the stop tolerance, 1e-6 of
        # the first, which is at least 1 on integer grids; the kernel's sums
        # round by about 1e-13 on weights up to 60.
        for before, after in zip([max(finite)] + residuals, residuals):
            assert after <= rate * before * (1 + 1e-6)


class TestFixedEdgesProperties:
    """The kernel's infinite sensitivities, which `certify_exact` holds fixed."""

    @SETTINGS
    @given(sparse_grids(), st.data())
    def test_marks_edges_every_matching_agrees_on(self, grid, data):
        # Two matchings per grid: the mask must not depend on which one.
        matchings = oracle_enumerate(grid)
        mat = _dense(grid)
        for _ in range(2):
            _, perm = data.draw(st.sampled_from(matchings))
            got = np.isinf(_solver.sens_dense(mat, np.array(perm)))
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
    pass, gives each saturated edge its placeholder once, before the first
    pass, and allocates fresh arrays throughout; the answers must match the
    prepared kernel's bit for bit.
    """
    sens0 = elementwise_sensitivities(instance, optimum)
    tol = default_stop_tol(sens0, instance)
    edges = instance.sorted_edges()
    saturated = frozenset(e for e, v in sens0.values.items() if math.isinf(v))

    mat = instance.dense()
    task_map = optimum.task_map()
    pi = np.array([task_map[t] for t in range(instance.num_tasks)], dtype=np.intp)
    shape = (instance.num_agents, instance.num_tasks)
    sens = np.full(shape, np.nan)
    for edge, v in sens0.values.items():
        sens[edge] = v
    finite = np.isfinite(sens)
    all_saturated = bool(edges) and not finite.any()
    floor = math.inf if all_saturated else 0.0
    two_n = 2.0 * instance.num_tasks
    delta = np.zeros(shape)
    for edge in saturated:
        delta[edge] = math.copysign(DEFAULT_SATURATION_CAP, sens[edge]) / two_n
    residual = float(np.abs(sens[finite]).max(initial=floor))
    iterations = 0
    while residual > tol and iterations < DEFAULT_MAX_ITERS:
        delta = delta + np.where(finite, sens / two_n, 0.0)
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


def _full_search_certifies(inst, assn, bounds) -> bool:
    """The paper's certificate on the fully run critical search: the reference."""
    try:
        pert = critical_search(inst, assn).perturbation
    except DegenerateOptimumError:
        pert = Perturbation.zeros(inst.edges)
    return certify_optimal(pert, assn, ErrorBounds(bounds))


def _early_stop_certifies(inst, assn, bound):
    """`_certify_critical`'s answer and what each of its searches returned."""
    mat = inst.dense()
    pi = np.array([assn.task_map()[t] for t in range(inst.num_tasks)], dtype=np.intp)
    searches = []
    search = perturb._search

    def spy(*args, **kwargs):
        searches.append(search(*args, **kwargs))
        return searches[-1]

    with mock.patch.object(perturb, "_search", spy):
        got = perturb._certify_critical(mat, pi, bound)
    return got, searches


def _dense_bounds(inst, bounds) -> np.ndarray:
    out = np.zeros((inst.num_agents, inst.num_tasks))
    for edge, value in bounds.items():
        out[edge] = value
    return out


class TestCertifyCriticalEarlyStop:
    """The simulation's lock test stops the search early and still answers as the full search."""

    @settings(max_examples=60, deadline=None)
    @given(sparse_grids(), st.data())
    def test_matches_full_search_on_sparse_grids(self, grid, data):
        # Rectangular grids, missing and fixed edges, tied optima.
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        tied = False
        try:
            budget = critical_search(inst, assn).perturbation.deltas
        except DegenerateOptimumError:
            tied = True
            budget = {e: data.draw(st.integers(0, 8)) / 4 for e in inst.edges}
        share = st.floats(0.0, 1.25)
        drawn = {e: data.draw(share) * abs(d) for e, d in budget.items()}
        uniform = data.draw(st.floats(0.0, max(map(abs, budget.values()), default=0.0)))
        for bounds, bound in [
            ({e: 0.0 for e in inst.edges}, 0.0),
            (drawn, _dense_bounds(inst, drawn)),
            ({e: uniform for e in inst.edges}, uniform),
        ]:
            got, searches = _early_stop_certifies(inst, assn, bound)
            assert got == _full_search_certifies(inst, assn, bounds)
            assert len(searches) == (not tied)
        if not tied:
            # Zero bounds: the first iterate of a unique optimum clears them.
            _, searches = _early_stop_certifies(inst, assn, 0.0)
            assert [(n, locked) for _, n, _, locked in searches] == [(1, True)]

    @settings(max_examples=60, deadline=None)
    @given(sparse_grids(), st.data())
    def test_bounds_within_tol_of_converged_deltas_run_the_full_search(self, grid, data):
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        try:
            report = critical_search(inst, assn)
        except DegenerateOptimumError:
            assume(False)
        tol = default_stop_tol(report.sensitivities, inst)
        # Each edge clears its bound by at most 0.9 tol at the converged
        # perturbation, so no earlier iterate clears it by more than tol.
        wobble = st.floats(-0.9, 0.9)
        bounds = {
            e: max(0.0, abs(d) + data.draw(wobble) * tol)
            for e, d in report.perturbation.deltas.items()
        }
        got, searches = _early_stop_certifies(inst, assn, _dense_bounds(inst, bounds))
        assert got == _full_search_certifies(inst, assn, bounds)
        [(_, iterations, _, locked)] = searches
        assert not locked and iterations == report.iterations

    @pytest.mark.parametrize(
        "grid, bound",
        [
            ([[7]], 0.0),
            ([[7]], 1.0),
            ([[7]], DEFAULT_SATURATION_CAP / 2),  # clears by 0: decided at the end
            ([[7]], DEFAULT_SATURATION_CAP / 2 + 1e3),
            ([[1, 1], [1, 1]], 0.0),  # tied: the zero perturbation
            ([[1, 1], [1, 1]], 0.25),
            ([[91, 33, 15], [5, 86, 92], [85, 9, 42]], 8.5),
            ([[91, 33, 15], [5, 86, 92], [85, 9, 42]], 13.0),
        ],
    )
    def test_fixed_instances(self, grid, bound):
        inst = BipartiteInstance.from_matrix(grid)
        assn = solve_lap(inst).assignment
        got, _ = _early_stop_certifies(inst, assn, bound)
        assert got == _full_search_certifies(inst, assn, {e: bound for e in inst.edges})

    def test_search_out_of_budget_decides_on_its_last_iterate(self, monkeypatch):
        # Two passes leave the search far from converged. The bound sits at the
        # second iterate's smallest delta: that iterate certifies, the first
        # (the divided bound) does not.
        monkeypatch.setattr(perturb, "DEFAULT_MAX_ITERS", 2)
        inst = BipartiteInstance.from_matrix([[91, 33, 15], [5, 86, 92], [85, 9, 42]])
        assn = solve_lap(inst).assignment
        report = critical_search(inst, assn, max_iters=2)
        assert not report.converged
        bound = min(abs(d) for d in report.perturbation.deltas.values())
        bounds = ErrorBounds.uniform(inst.edges, bound)
        assert certify_optimal(report.perturbation, assn, bounds)
        assert not certify_optimal(divided_bound(report.sensitivities, 3), assn, bounds)
        got, searches = _early_stop_certifies(inst, assn, bound)
        assert got
        [(_, iterations, _, locked)] = searches
        assert not locked and iterations == 2
