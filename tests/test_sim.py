"""Scenario validation, measurement, kinematics, and the two policies."""
import dataclasses
import math
import re

import numpy as np
import pytest

from lapsens import (
    Assignment,
    BipartiteInstance,
    DegenerateOptimumError,
    ErrorBounds,
    Perturbation,
    Scenario,
    certify_exact,
    certify_optimal,
    critical_search,
    divided_bound,
    exact_distances,
    measure_weights,
    run_simulation,
    run_sweep,
    solve_lap,
    step_dynamics,
    summarize,
)
from lapsens import _solver
from lapsens.sim import SimLog, SimStep


def swap_scenario(**overrides):
    """Two agents whose measured-optimal assignment flips under noise."""
    params = dict(
        agent_positions=((0.0, 0.0), (1.0, 0.0)),
        target_positions=((1.0, 10.0), (0.0, 10.0)),
        speed=0.25,
        noise_bound=0.08,
        seed=3,
        max_steps=200,
    )
    params.update(overrides)
    return Scenario(**params)


def contested3_scenario(seed, noise_bound=0.05):
    """Three agents abreast chase three targets abreast; the optima nearly tie."""
    return Scenario(
        agent_positions=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
        target_positions=((0.0, 10.0), (1.0, 10.0), (2.0, 10.0)),
        speed=0.5,
        noise_bound=noise_bound,
        seed=seed,
        max_steps=200,
    )


def contested4_scenario(seed):
    """The four-abreast geometry of perfbench/scenarios/contested4.json."""
    return Scenario(
        agent_positions=tuple((float(i), 0.0) for i in range(4)),
        target_positions=tuple((float(i), 10.0) for i in range(4)),
        speed=0.25,
        noise_bound=0.05,
        seed=seed,
        max_steps=200,
    )


def _allowable_perturbation(instance, assn):
    """The perturbation the paper's certificate is asked about, from the full search.

    The converged critical perturbation; the divided bound when the search
    runs out of passes; the zero perturbation when the optimum is tied
    (certification then fails unless the noise bound is zero). On a search
    that runs out of passes, `run_simulation` decides on its last iterate
    instead, so it can lock sooner than this reference; no scenario here
    gets there.
    """
    try:
        report = critical_search(instance, assn)
        if report.converged:
            return report.perturbation
        return divided_bound(report.sensitivities, instance.num_tasks)
    except DegenerateOptimumError:
        return Perturbation.zeros(instance.edges)


def reference_simulation(scenario, policy):
    """The step loop on instances: `from_matrix`, `solve_lap`, then the certificates.

    A slow reference for `run_simulation`, which solves and certifies each
    measured matrix on the dense layer instead, stops the critical search at
    its first certifying iterate and keeps an unchanged map's `Assignment`.
    """
    positions = scenario.agent_positions
    targets = scenario.target_positions
    steps = []
    total_distance = 0.0
    reassignments = 0
    certification_step = None
    locked = previous = None
    exhausted = True
    for k in range(scenario.max_steps):
        weights = measure_weights(scenario, positions, k)
        if locked is not None:
            assn = locked
        else:
            instance = BipartiteInstance.from_matrix(weights)
            assn = solve_lap(instance).assignment
            if policy == "certified":
                bounds = ErrorBounds.uniform(instance.edges, scenario.noise_bound)
                if certify_exact(instance, assn, bounds) and certify_optimal(
                    _allowable_perturbation(instance, assn), assn, bounds
                ):
                    locked = assn
                    certification_step = k
        reassigned = previous is not None and assn != previous
        reassignments += reassigned
        rows = tuple(tuple(float(w) for w in row) for row in weights)
        steps.append(SimStep(k, rows, assn, positions, locked is not None, reassigned))
        moved = step_dynamics(positions, assn, targets, scenario.speed)
        total_distance += sum(
            math.hypot(nx - px, ny - py) for (px, py), (nx, ny) in zip(positions, moved)
        )
        positions = moved
        previous = assn
        if all(positions[a] == targets[t] for t, a in assn.pairs):
            exhausted = False
            break
    return SimLog(
        policy, scenario, tuple(steps), total_distance, reassignments,
        certification_step, exhausted, positions,
    )


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            swap_scenario(speed=0.0)
        with pytest.raises(ValueError):
            swap_scenario(noise_bound=-0.1)
        with pytest.raises(ValueError):
            swap_scenario(max_steps=0)
        with pytest.raises(ValueError):
            swap_scenario(target_positions=())
        with pytest.raises(ValueError):
            swap_scenario(agent_positions=((0.0, 0.0),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            swap_scenario(agent_positions=((0.0, bad), (1.0, 0.0)))
        with pytest.raises(ValueError, match="coordinates must be finite"):
            swap_scenario(target_positions=((1.0, 10.0), (bad, 10.0)))

    def test_positions_coerced_to_float_tuples(self):
        sc = swap_scenario(agent_positions=[[0, 0], [1, 0]])
        assert sc.agent_positions == ((0.0, 0.0), (1.0, 0.0))


class TestMeasureWeights:
    def test_zero_noise_gives_exact_distances(self):
        sc = swap_scenario(noise_bound=0.0)
        w = measure_weights(sc, sc.agent_positions, 0)
        assert np.array_equal(w, exact_distances(sc.agent_positions, sc.target_positions))

    def test_known_distance_matrix(self):
        sc = Scenario(((0.0, 0.0), (3.0, 4.0)), ((3.0, 4.0), (0.0, 0.0)), 1.0, 0.0)
        w = measure_weights(sc, sc.agent_positions, 0)
        assert w.tolist() == [[5.0, 0.0], [0.0, 5.0]]

    def test_noise_stays_within_bound(self):
        sc = swap_scenario(noise_bound=0.5)
        exact = exact_distances(sc.agent_positions, sc.target_positions)
        for k in range(20):
            w = measure_weights(sc, sc.agent_positions, k)
            assert np.all(np.abs(w - exact) <= 0.5)

    def test_deterministic_per_seed_and_step(self):
        sc = swap_scenario()
        a = measure_weights(sc, sc.agent_positions, 4)
        b = measure_weights(sc, sc.agent_positions, 4)
        assert np.array_equal(a, b)
        c = measure_weights(sc, sc.agent_positions, 5)
        assert not np.array_equal(a, c)
        d = measure_weights(dataclasses.replace(sc, seed=4), sc.agent_positions, 4)
        assert not np.array_equal(a, d)


class TestStepDynamics:
    def test_moves_at_speed_toward_target(self):
        new = step_dynamics(((0.0, 0.0),), Assignment.from_task_map({0: 0}), ((0.0, 10.0),), 2.0)
        assert new == ((0.0, 2.0),)

    def test_clamps_onto_target(self):
        new = step_dynamics(((0.0, 9.9),), Assignment.from_task_map({0: 0}), ((0.0, 10.0),), 2.0)
        assert new == ((0.0, 10.0),)

    def test_unassigned_agent_holds(self):
        new = step_dynamics(
            ((0.0, 0.0), (5.0, 5.0)),
            Assignment.from_task_map({0: 0}),
            ((0.0, 10.0),),
            1.0,
        )
        assert new[1] == (5.0, 5.0)

    def test_step_length_never_exceeds_speed(self):
        positions = ((0.0, 0.0), (1.0, 0.0))
        targets = ((1.0, 10.0), (0.0, 10.0))
        assn = Assignment.from_task_map({0: 1, 1: 0})
        new = step_dynamics(positions, assn, targets, 0.25)
        for (px, py), (nx, ny) in zip(positions, new):
            assert math.hypot(nx - px, ny - py) <= 0.25 + 1e-12


class TestRunSimulation:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            run_simulation(swap_scenario(), "eager")

    def test_agents_reach_targets(self):
        log = run_simulation(swap_scenario(), "naive")
        assert not log.exhausted
        final = set(log.final_positions)
        assert {(1.0, 10.0), (0.0, 10.0)} <= final

    def test_exhausted_when_steps_run_out(self):
        log = run_simulation(swap_scenario(max_steps=3), "naive")
        assert log.exhausted and len(log.steps) == 3

    def test_naive_reassigns_under_noise(self):
        log = run_simulation(swap_scenario(), "naive")
        assert log.reassignments > 0
        assert log.certification_step is None

    def test_certified_locks_and_stays_locked(self):
        log = run_simulation(swap_scenario(), "certified")
        cert = log.certification_step
        assert cert is not None
        locked = log.steps[cert].assignment
        for step in log.steps[cert:]:
            assert step.assignment == locked
            assert step.certified
            if step.index > cert:
                assert not step.reassigned
        for step in log.steps[:cert]:
            assert not step.certified

    def test_reassignment_counter_matches_flags(self):
        log = run_simulation(swap_scenario(), "naive")
        assert log.reassignments == sum(s.reassigned for s in log.steps)

    def test_speed_bound_holds_throughout(self):
        sc = swap_scenario()
        log = run_simulation(sc, "naive")
        trail = [s.positions for s in log.steps] + [log.final_positions]
        for before, after in zip(trail, trail[1:]):
            for (px, py), (nx, ny) in zip(before, after):
                assert math.hypot(nx - px, ny - py) <= sc.speed + 1e-12

    def test_zero_noise_policies_identical(self):
        sc = swap_scenario(noise_bound=0.0)
        naive = run_simulation(sc, "naive")
        certified = run_simulation(sc, "certified")
        assert [s.assignment for s in naive.steps] == [s.assignment for s in certified.steps]
        assert [s.positions for s in naive.steps] == [s.positions for s in certified.steps]
        assert naive.reassignments == certified.reassignments == 0
        assert certified.certification_step == 0

    def test_deterministic_given_seed(self):
        a = run_simulation(swap_scenario(), "certified")
        b = run_simulation(swap_scenario(), "certified")
        assert a == b

    def test_more_agents_than_targets(self):
        sc = Scenario(
            agent_positions=((0.0, 0.0), (5.0, 0.0), (9.0, 9.0)),
            target_positions=((0.0, 2.0), (5.0, 2.0)),
            speed=1.0,
            noise_bound=0.0,
        )
        log = run_simulation(sc, "certified")
        assert not log.exhausted
        assert log.final_positions[2] == (9.0, 9.0)  # spare agent never moves


    @pytest.mark.parametrize("policy", ["naive", "certified"])
    def test_overflowing_distance_rejected(self, policy):
        # Finite coordinates 2e308 apart measure an infinite distance.
        sc = swap_scenario(agent_positions=((-1e308, 0.0), (1.0, 0.0)),
                           target_positions=((1e308, 0.0), (0.0, 10.0)))
        with pytest.raises(ValueError, match=r"edge \(0, 0\) must be finite, got inf"):
            run_simulation(sc, policy)
        with pytest.raises(ValueError, match=r"edge \(0, 0\) must be finite, got inf"):
            list(run_sweep(sc, range(3), policy))


    @pytest.mark.parametrize("policy", ["naive", "certified"])
    def test_overflowing_optimal_cost_rejected(self, policy):
        # Every distance is finite, about 1e308, but any assignment's cost overflows.
        sc = swap_scenario(agent_positions=((-1e308, 0.0), (1e308, 0.0)),
                           target_positions=((0.0, 1e307), (0.0, -1e307)))
        with pytest.raises(ValueError, match="^optimal cost of the measured weights must be"):
            run_simulation(sc, policy)


def _tied_scenario():
    """Zero noise, three agents on one point and two targets on another.

    Every step is an exact tie, and on most steps scipy's optimum is not the
    canonical one, so the tie-break search decides the assignment.
    """
    return Scenario(
        agent_positions=((-1.0, 0.0),) * 3,
        target_positions=((1.0, 6.0), (0.0, 6.0), (0.0, 6.0)),
        speed=0.5,
        noise_bound=0.0,
        max_steps=200,
    )


def _rectangular_scenario(seed):
    """Three agents, two targets; the spare agent changes with the noise."""
    return Scenario(
        agent_positions=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
        target_positions=((0.5, 8.0), (1.5, 8.0)),
        speed=0.5,
        noise_bound=0.1,
        seed=seed,
        max_steps=200,
    )


def _single_scenario(seed):
    """One agent, one target: the one edge is in every matching, so it is fixed."""
    return Scenario(
        agent_positions=((0.0, 0.0),),
        target_positions=((3.0, 4.0),),
        speed=0.5,
        noise_bound=0.1,
        seed=seed,
        max_steps=50,
    )


def _one_target_scenario(seed):
    """Three agents, one target; the two nearest agents start at the same true distance."""
    return Scenario(
        agent_positions=((-0.5, 0.0), (0.5, 0.0), (2.0, 0.0)),
        target_positions=((0.0, 6.0),),
        speed=0.5,
        noise_bound=0.1,
        seed=seed,
        max_steps=50,
    )


def _scattered_scenario():
    """Nine agents and seven targets at seeded random points.

    Its ideal cost summed in agent order differs in the last bit from the
    sum in task order.
    """
    rng = np.random.default_rng(5)
    return Scenario(
        agent_positions=tuple(map(tuple, rng.uniform(0, 10, (9, 2)))),
        target_positions=tuple(map(tuple, rng.uniform(0, 10, (7, 2)))),
        speed=0.5,
        noise_bound=0.02,
        max_steps=100,
    )


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("policy", ["naive", "certified"])
    @pytest.mark.parametrize(
        "scenarios",
        [
            pytest.param([contested3_scenario(s) for s in range(50)], id="contested3"),
            pytest.param([contested4_scenario(s) for s in range(50)], id="contested4"),
            pytest.param([_tied_scenario()], id="tied"),
            pytest.param([_rectangular_scenario(s) for s in range(20)], id="rectangular"),
            pytest.param([_single_scenario(s) for s in range(5)], id="single"),
            pytest.param([_one_target_scenario(s) for s in range(20)], id="one_target"),
        ],
    )
    def test_logs_equal_reference(self, scenarios, policy):
        for sc in scenarios:
            assert repr(run_simulation(sc, policy)) == repr(reference_simulation(sc, policy))

    def test_tied_scenario_needs_the_tie_break(self):
        log = run_simulation(_tied_scenario(), "naive")
        assert len(log.steps) > 10
        assert not any(
            solve_lap(BipartiteInstance.from_matrix(step.weights)).unique for step in log.steps
        )
        scipy_maps = [tuple(_solver.solve_dense(np.array(s.weights))[1]) for s in log.steps]
        canonical = [tuple(a for _, a in s.assignment.pairs) for s in log.steps]
        assert sum(a != b for a, b in zip(scipy_maps, canonical)) > 5

    def test_rectangular_scenario_changes_spare_agent(self):
        spares = {
            frozenset(range(3)) - {a for _, a in step.assignment.pairs}
            for sc in map(_rectangular_scenario, range(20))
            for step in run_simulation(sc, "naive").steps
        }
        assert len(spares) > 1


class TestSweep:
    """Each seed of a lockstep sweep gets the log of its own run."""

    @pytest.mark.parametrize("policy", ["naive", "certified"])
    @pytest.mark.parametrize("count", [1, 2, 5, 9])
    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(contested3_scenario(0), id="contested3"),
            pytest.param(contested4_scenario(0), id="contested4"),
            pytest.param(_tied_scenario(), id="tied"),
            pytest.param(_rectangular_scenario(0), id="rectangular"),
            pytest.param(_single_scenario(0), id="single"),
            pytest.param(_one_target_scenario(0), id="one_target"),
            # Seeds 40..48 lock between steps 2 and 12; five of them arrive
            # at step 20, where the other four run out of steps.
            pytest.param(dataclasses.replace(contested3_scenario(0), max_steps=20), id="capped"),
        ],
    )
    def test_logs_equal_reference(self, scenario, count, policy):
        seeds = range(40, 40 + count)
        want = [
            repr(reference_simulation(dataclasses.replace(scenario, seed=s), policy))
            for s in seeds
        ]
        assert [repr(log) for log in run_sweep(scenario, seeds, policy)] == want

    def test_overflowing_seed_raises_after_the_seeds_before_it(self):
        # The targets are 2**1024 apart, more than the largest float, so an
        # agent on its target measures its distance to the other one as inf,
        # with or without `np.hypot`. Two agents contest the left target; on
        # some seeds it is reached before the right one, while the run goes on.
        far = 2.0**1023
        sc = Scenario(
            agent_positions=(
                (-far + 2e306, 5e306), (-far + 3e306, -4.5e306), (far - 3e306, 5e306)
            ),
            target_positions=((-far, 0.0), (far, 0.0)),
            speed=1e306,
            noise_bound=1e306,
            max_steps=50,
        )
        sweep = run_sweep(sc, range(8), "naive")
        for seed in range(8):
            try:
                want = repr(reference_simulation(dataclasses.replace(sc, seed=seed), "naive"))
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    next(sweep)
                break
            assert repr(next(sweep)) == want
        assert seed == 2

    def test_overflowing_certification_raises_after_the_seeds_before_it(self):
        # The optimum costs about 1.6e308. Seed 0 locks on step 0; on seed 1's
        # step 0, the worst case of the noise bound overflows every matching's cost.
        sc = Scenario(
            agent_positions=((0.0, 0.0), (1.27e308, 0.0)),
            target_positions=((0.0, 8e307), (1.27e308, 8e307)),
            speed=1e300,
            noise_bound=1e307,
            max_steps=3,
        )
        message = "^optimal cost of the perturbed weights must be finite, got inf$"
        sweep = run_sweep(sc, [0, 1], "certified")
        log = next(sweep)
        assert log.certification_step == 0
        assert repr(log) == repr(run_simulation(sc, "certified"))
        assert repr(log) == repr(reference_simulation(sc, "certified"))
        with pytest.raises(ValueError, match=message):
            next(sweep)
        with pytest.raises(ValueError, match=message):
            reference_simulation(dataclasses.replace(sc, seed=1), "certified")
        assert len(list(run_sweep(sc, [0, 1], "naive"))) == 2

    def test_only_a_lone_edge_is_fixed_on_the_complete_edge_set(self):
        # `run_sweep` holds fixed the edges whose sensitivity is infinite on
        # the complete edge set; any full matching gives that mask.
        for agents in range(1, 7):
            for tasks in range(1, agents + 1):
                sens = _solver.sens_dense(np.zeros((agents, tasks)), np.arange(tasks))
                assert (np.isinf(sens) == ((agents, tasks) == (1, 1))).all()

    def test_distances_past_the_squares_overflow_are_measured(self):
        # The targets are 1.4e154 apart, so the squared distance to the far
        # target overflows once an agent gets close to its own; `np.hypot`
        # measures it, and the norm measures every other distance.
        sc = Scenario(
            agent_positions=((-1.4e152, 1.4e153), (-7e152, 4.9e153)),
            target_positions=((-7e153, 0.0), (7e153, 0.0)),
            speed=2.2e153,
            noise_bound=1.85e153,
            max_steps=50,
        )
        logs = list(run_sweep(sc, range(8), "naive"))
        for seed, log in enumerate(logs):
            want = reference_simulation(dataclasses.replace(sc, seed=seed), "naive")
            assert repr(log) == repr(want)
        assert any(max(map(max, step.weights)) > 1.4e154 for log in logs for step in log.steps)

    def test_negative_seed_raises_before_any_log(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            run_sweep(contested3_scenario(0), [0, 1, -1], "naive")
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            run_simulation(contested3_scenario(-2), "certified")


class TestWarmStart:
    """A seed keeps its previous map exactly where it is still the strictly unique optimum."""

    @staticmethod
    def _previous_maps(log):
        """Per step after the first: whether the previous map is optimal, and tied, there."""
        states = []
        for before, step in zip(log.steps, log.steps[1:]):
            mat = np.array(step.weights)
            pi = np.array([agent for _, agent in before.assignment.pairs])
            sens = _solver.sens_dense(mat, pi)
            tol = _solver.tie_tol(mat)
            optimal = bool((sens[pi, np.arange(len(pi))] >= -tol).all())
            states.append((optimal, bool((np.abs(sens) <= tol).any())))
        return states

    @pytest.mark.parametrize("policy", ["naive", "certified"])
    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(_tied_scenario(), id="tied"),
            pytest.param(
                dataclasses.replace(_tied_scenario(), target_positions=((0.0, 6.0), (0.0, 6.0))),
                id="tied_rectangular",
            ),
        ],
    )
    def test_previous_map_optimal_but_tied(self, scenario, policy):
        logs = list(run_sweep(scenario, range(3), policy))
        assert (True, True) in self._previous_maps(logs[0])
        for seed, log in enumerate(logs):
            want = reference_simulation(dataclasses.replace(scenario, seed=seed), policy)
            assert repr(log) == repr(want)

    @pytest.mark.parametrize(
        "scenario",
        [_rectangular_scenario(0), contested4_scenario(0)],
        ids=["rectangular", "contested4"],
    )
    def test_previous_map_no_longer_optimal(self, scenario):
        logs = list(run_sweep(scenario, range(6), "naive"))
        states = [state for log in logs for state in self._previous_maps(log)]
        assert (False, False) in states
        for seed, log in enumerate(logs):
            want = reference_simulation(dataclasses.replace(scenario, seed=seed), "naive")
            assert repr(log) == repr(want)

    def test_naive_contested4_solves_far_fewer_than_seed_steps(self, monkeypatch):
        solves = []
        solve_dense = _solver.solve_dense
        monkeypatch.setattr(_solver, "solve_dense", lambda m: solves.append(1) or solve_dense(m))
        logs = run_sweep(contested4_scenario(0), range(8), "naive")
        seed_steps = sum(len(log.steps) for log in logs)
        assert seed_steps > 300
        assert len(solves) * 10 < seed_steps


class TestCertifiedPrefilter:
    def test_skipped_searches_could_not_lock(self):
        # Wherever the exact test refuses before the lock, the paper's
        # certificate on the allowable perturbation refuses as well.
        scenarios = [swap_scenario(seed=s) for s in range(100)]
        scenarios += [contested3_scenario(s) for s in range(50)]
        refused = 0
        for sc in scenarios:
            log = run_simulation(sc, "certified")
            cert = log.certification_step
            for step in log.steps[: len(log.steps) if cert is None else cert + 1]:
                inst = BipartiteInstance.from_matrix(step.weights)
                bounds = ErrorBounds.uniform(inst.edges, sc.noise_bound)
                pert = _allowable_perturbation(inst, step.assignment)
                paper = certify_optimal(pert, step.assignment, bounds)
                assert paper == (step.index == cert)
                if not certify_exact(inst, step.assignment, bounds):
                    refused += 1
                    assert not paper
        assert refused > 0

    def test_paper_certificate_decides_the_lock(self):
        # At step 16 the exact test accepts but the critical perturbation falls
        # short, so the lock waits for the paper's certificate at step 20.
        sc = contested3_scenario(27, noise_bound=0.2)
        log = run_simulation(sc, "certified")
        assert log.certification_step == 20
        exact = []
        for step in log.steps[:21]:
            inst = BipartiteInstance.from_matrix(step.weights)
            bounds = ErrorBounds.uniform(inst.edges, sc.noise_bound)
            if certify_exact(inst, step.assignment, bounds):
                exact.append(step.index)
        assert exact == [16, 20]

    def test_contested3_lock_is_pinned(self):
        log = run_simulation(contested3_scenario(0), "certified")
        assert log.certification_step == 12
        assert log.reassignments == 1
        assert log.total_distance == pytest.approx(30.005223292337302, rel=1e-12)


class TestSummarize:
    def test_zero_noise_gap_is_zero(self):
        metrics = summarize(run_simulation(swap_scenario(noise_bound=0.0), "naive"))
        assert metrics.optimality_gap == pytest.approx(0.0, abs=1e-9)
        assert metrics.reached_all

    def test_noise_never_beats_straight_line(self):
        metrics = summarize(run_simulation(swap_scenario(), "naive"))
        assert metrics.optimality_gap >= -1e-9

    def test_fields_mirror_log(self):
        log = run_simulation(swap_scenario(), "certified")
        metrics = summarize(log)
        assert metrics.policy == "certified"
        assert metrics.steps == len(log.steps)
        assert metrics.total_distance == log.total_distance
        assert metrics.reassignments == log.reassignments
        assert metrics.certification_step == log.certification_step

    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(swap_scenario(), id="swap"),
            pytest.param(contested4_scenario(0), id="contested4"),
            pytest.param(_tied_scenario(), id="tied"),
            pytest.param(_rectangular_scenario(0), id="rectangular"),
            pytest.param(_scattered_scenario(), id="scattered"),
        ],
    )
    def test_ideal_cost_is_solve_lap_cost(self, scenario):
        log = run_simulation(scenario, "naive")
        dist = exact_distances(scenario.agent_positions, scenario.target_positions)
        ideal = solve_lap(BipartiteInstance.from_matrix(dist)).cost
        gap = summarize(log).optimality_gap
        assert type(gap) is float
        assert gap == log.total_distance - ideal
