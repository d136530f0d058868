"""Multi-vehicle guidance simulation comparing re-assignment policies.

Agents chase assigned targets under noisy distance measurements. A naive
policy re-solves the assignment every step and can churn; a certified policy
re-solves only until the assignment is provably optimal for the true
distances, then locks it.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import _solver
from .core import Assignment
from .perturb import _certify_critical, _certify_exact

Point = tuple[float, float]


@dataclass(frozen=True)
class Scenario:
    """A planar pursuit setup: agents, targets, kinematics, and measurement noise.

    Weights are Euclidean distances corrupted by i.i.d. uniform noise on
    [-noise_bound, +noise_bound]; `seed` makes every run reproducible.
    """

    agent_positions: tuple[Point, ...]
    target_positions: tuple[Point, ...]
    speed: float
    noise_bound: float
    seed: int = 0
    max_steps: int = 500

    def __post_init__(self):
        agents = tuple((float(x), float(y)) for x, y in self.agent_positions)
        targets = tuple((float(x), float(y)) for x, y in self.target_positions)
        object.__setattr__(self, "agent_positions", agents)
        object.__setattr__(self, "target_positions", targets)
        if len(targets) < 1:
            raise ValueError("at least one target is required")
        if not np.isfinite(agents + targets).all():
            raise ValueError("agent and target coordinates must be finite")
        if len(agents) < len(targets):
            raise ValueError("need at least as many agents as targets")
        if not self.speed > 0:
            raise ValueError("speed must be positive")
        if self.noise_bound < 0 or not math.isfinite(self.noise_bound):
            raise ValueError("noise_bound must be finite and >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class SimStep:
    """State recorded at one decision step, before the agents move."""

    index: int
    weights: tuple[tuple[float, ...], ...]
    assignment: Assignment
    positions: tuple[Point, ...]
    certified: bool
    reassigned: bool


@dataclass(frozen=True)
class SimLog:
    """Complete record of one simulation run."""

    policy: str
    scenario: Scenario
    steps: tuple[SimStep, ...]
    total_distance: float
    reassignments: int
    certification_step: int | None
    exhausted: bool
    final_positions: tuple[Point, ...]


@dataclass(frozen=True)
class RunMetrics:
    """Summary statistics of a simulation run."""

    policy: str
    steps: int
    total_distance: float
    reassignments: int
    certification_step: int | None
    reached_all: bool
    optimality_gap: float


def exact_distances(positions, targets) -> np.ndarray:
    """Euclidean distance matrix, agents as rows and targets as columns.

    `positions` may also be a stack of agent position sets, one matrix each.
    """
    pos = np.asarray(positions, dtype=float)
    tgt = np.asarray(targets, dtype=float)
    return np.linalg.norm(pos[..., None, :] - tgt, axis=-1)


def measure_weights(
    scenario: Scenario, positions, step: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Noisy distance measurements at one step.

    The default generator is seeded from (scenario.seed, step), so a given
    step's measurement never depends on how earlier steps were consumed.
    """
    if rng is None:
        rng = np.random.default_rng((scenario.seed, step))
    dist = exact_distances(positions, scenario.target_positions)
    noise = rng.uniform(-scenario.noise_bound, scenario.noise_bound, size=dist.shape)
    return dist + noise


def step_dynamics(positions, assignment: Assignment, targets, speed: float):
    """Advance every assigned agent straight toward its target by one step.

    Movement is capped at `speed` and clamped to land exactly on the target;
    unassigned agents hold position. Returns the new position tuple.
    """
    new_positions = [(float(x), float(y)) for x, y in positions]
    for task, agent in assignment.pairs:
        px, py = new_positions[agent]
        tx, ty = targets[task]
        dx, dy = tx - px, ty - py
        dist = math.hypot(dx, dy)
        if dist <= speed:
            new_positions[agent] = (float(tx), float(ty))
        else:
            scale = speed / dist
            new_positions[agent] = (px + dx * scale, py + dy * scale)
    return tuple(new_positions)


def _arrived(positions, assignment: Assignment, targets) -> bool:
    return all(positions[agent] == targets[task] for task, agent in assignment.pairs)


class _Run:
    """One seed's run inside a sweep: its state so far, then its outcome."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.positions = scenario.agent_positions
        self.steps: list[SimStep] = []
        self.total_distance = 0.0
        self.reassignments = 0
        self.certification_step: int | None = None
        self.locked: Assignment | None = None
        self.previous: Assignment | None = None
        self.outcome: SimLog | ValueError | None = None

    def finish(self, policy: str, exhausted: bool) -> None:
        self.outcome = SimLog(
            policy,
            self.scenario,
            tuple(self.steps),
            self.total_distance,
            self.reassignments,
            self.certification_step,
            exhausted,
            self.positions,
        )


def run_sweep(
    scenario: Scenario, seeds: Iterable[int], policy: Literal["naive", "certified"]
) -> Iterator[SimLog]:
    """Run the scenario once per seed, all seeds in lockstep; yields the logs in seed order.

    Each log is the one that seed's run alone gives (see `run_simulation`).
    At each step every live seed measures its weights on one stacked
    distance computation with its own `default_rng((seed, step))` noise, and
    every seed that still solves gets `_solver.solve_dense` on its matrix.
    One `_solver.unique_optima` pass over the stack then tests all their
    optima; its kernel depends on their maps alone and is rebuilt only when
    that stack of maps changes, and a tied optimum goes to
    `_solver.canonical_assignment`. Certification stays per seed, on arrays:
    a solving step of any seed has every weight finite, so all of them share
    the complete edge set and the scalar bound. The edges that `certify_exact`
    holds fixed depend on that edge set alone (see `_solver`), so their mask
    is computed once per sweep; the critical search builds the exchange
    kernel of its own map at each step it runs. A seed whose measured
    distance overflows to infinity raises ValueError when the iteration
    reaches it, after the logs of the seeds before it.
    """
    if policy not in ("naive", "certified"):
        raise ValueError(f"policy must be 'naive' or 'certified', got {policy!r}")
    runs = [_Run(replace(scenario, seed=seed)) for seed in seeds]
    targets = scenario.target_positions
    shape = (len(scenario.agent_positions), len(targets))
    edge = np.ones(shape, dtype=bool)
    noise_bound = scenario.noise_bound
    if policy == "certified":
        # Any full matching gives the mask; agent t holding task t is one.
        fixed = np.isinf(_solver.sens_dense(np.zeros(shape), np.arange(shape[1])))
    live = runs
    kernel = None
    for k in range(scenario.max_steps):
        if not live:
            break
        weights = exact_distances([run.positions for run in live], targets)
        weights += np.array(
            [
                np.random.default_rng((run.scenario.seed, k)).uniform(
                    -noise_bound, noise_bound, size=shape
                )
                for run in live
            ]
        )
        # Each seed's max|w|: the scale of its tie tolerance, and inf if any weight is.
        scale = np.abs(weights).max(axis=(1, 2))
        finite = np.isfinite(scale)
        solving = []
        for i, run in enumerate(live):
            if run.locked is not None:
                continue
            if not finite[i]:
                a, t = np.argwhere(~np.isfinite(weights[i]))[0]
                run.outcome = ValueError(
                    f"measured weight for edge ({a}, {t}) must be finite, got {weights[i, a, t]}"
                )
            else:
                solving.append(i)
        maps: dict[int, np.ndarray] = {}
        if solving:
            # With every weight finite and agents >= targets, a matching exists.
            solved = [_solver.solve_dense(weights[i]) for i in solving]
            base = np.array([task_to_agent for _, task_to_agent in solved])
            if kernel is None or not np.array_equal(kernel.pi, base):
                kernel = _solver.ExchangeKernel(edge, base)
            tol = _solver.tie_tol(weights, scale[solving])
            unique = _solver.unique_optima(kernel, weights[solving], tol)
            for j, i in enumerate(solving):
                cost, task_to_agent = solved[j]
                if not unique[j]:
                    task_to_agent = _solver.canonical_assignment(weights[i], task_to_agent, cost)
                maps[i] = task_to_agent
        rows = weights.tolist()
        for i, run in enumerate(live):
            if run.outcome is not None:
                continue
            if run.locked is not None:
                assn = run.locked
            else:
                pairs = tuple(enumerate(maps[i].tolist()))
                same = run.previous is not None and run.previous.pairs == pairs
                assn = run.previous if same else Assignment(pairs)
                if policy == "certified":
                    pi, mat = maps[i], weights[i]
                    # The exact test is necessary for the paper's certificate,
                    # so the critical search runs only where a lock is possible.
                    exact = _certify_exact(mat, pi, noise_bound, fixed, scale[i] + noise_bound)
                    if exact and _certify_critical(mat, pi, noise_bound):
                        run.locked = assn
                        run.certification_step = k
            reassigned = run.previous is not None and assn != run.previous
            if reassigned:
                run.reassignments += 1
            run.steps.append(
                SimStep(
                    k,
                    tuple(map(tuple, rows[i])),
                    assn,
                    run.positions,
                    run.locked is not None,
                    reassigned,
                )
            )
            moved = step_dynamics(run.positions, assn, targets, scenario.speed)
            run.total_distance += sum(
                math.hypot(nx - px, ny - py)
                for (px, py), (nx, ny) in zip(run.positions, moved)
            )
            run.positions = moved
            run.previous = assn
            if _arrived(moved, assn, targets):
                run.finish(policy, exhausted=False)
        live = [run for run in live if run.outcome is None]
    for run in live:
        run.finish(policy, exhausted=True)
    return _in_seed_order(runs)


def _in_seed_order(runs: list[_Run]) -> Iterator[SimLog]:
    for run in runs:
        if isinstance(run.outcome, ValueError):
            raise run.outcome
        yield run.outcome


def run_simulation(scenario: Scenario, policy: Literal["naive", "certified"]) -> SimLog:
    """Run one pursuit simulation under the given re-assignment policy.

    `naive` re-solves the assignment from the noisy weights every step.
    `certified` also re-solves each step, but additionally checks whether the
    measured optimum is provably optimal for the true distances given the
    noise bound; once certified, the assignment is locked and never changes.
    The paper's certificate (`certify_optimal` on the critical perturbation)
    decides every lock; steps that `certify_exact` refuses skip its search,
    and the search stops at its first iterate that certifies. When the
    search runs out of passes, its last iterate decides. Ends when every
    assigned agent has reached its target or after `scenario.max_steps`
    steps (`exhausted=True`).

    Each step solves the measured matrix as `solve_lap` does, and certifies
    it, on the dense layer, with no `BipartiteInstance`. A step whose solve
    gives the previous step's map keeps the previous `Assignment`. This is
    `run_sweep` of the scenario's own seed. Raises ValueError when a
    measured distance overflows to infinity.
    """
    return next(run_sweep(scenario, [scenario.seed], policy))


def summarize(log: SimLog) -> RunMetrics:
    """Distance, churn, and certification statistics for a run.

    The optimality gap compares the distance actually travelled against the
    cost of the best assignment on the true initial distances (the shortest
    possible total straight-line travel).
    """
    ideal = _ideal_cost(log.scenario.agent_positions, log.scenario.target_positions)
    return RunMetrics(
        policy=log.policy,
        steps=len(log.steps),
        total_distance=log.total_distance,
        reassignments=log.reassignments,
        certification_step=log.certification_step,
        reached_all=not log.exhausted,
        optimality_gap=log.total_distance - ideal,
    )


@functools.lru_cache
def _ideal_cost(agent_positions, target_positions) -> float:
    """Cost of the canonical optimum on the exact distances; the seeds of a sweep share it."""
    dist = exact_distances(agent_positions, target_positions)
    task_to_agent, _ = _solver.solve_canonical(dist)
    # Summed in task order from 0.0, as `assignment_cost` sums `solve_lap`'s cost.
    ideal = 0.0
    for weight in dist[task_to_agent, np.arange(len(task_to_agent))].tolist():
        ideal += weight
    return ideal
