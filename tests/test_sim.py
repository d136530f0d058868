"""Scenario validation, measurement, kinematics, and the two policies."""
import dataclasses
import math

import numpy as np
import pytest

from lapsens import (
    Assignment,
    BipartiteInstance,
    ErrorBounds,
    Scenario,
    certify_exact,
    certify_optimal,
    exact_distances,
    measure_weights,
    run_simulation,
    step_dynamics,
    summarize,
)
from lapsens.sim import _allowable_perturbation


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
