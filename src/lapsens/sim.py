"""Multi-vehicle guidance simulation comparing re-assignment policies.

Agents chase assigned targets under noisy distance measurements. A naive
policy re-solves the assignment every step and can churn; a certified policy
re-solves only until the assignment is provably optimal for the true
distances, then locks it.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import _rng, _solver
from .core import Assignment
from .perturb import _certify_critical, _certify_exact

Point = tuple[float, float]

# Steps of noise that `run_sweep` draws per seed at once. A block costs
# about as much as 12 `default_rng` draws for one seed of a 3x3 scenario, and
# 22 for four seeds of a 4x4 one (148 and 282 us on 2 vCPUs), so a run
# shorter than a block still gains. Blocks of 16 to 128 steps timed within a
# few percent of each other on the perfbench pursuit scenarios.
NOISE_BLOCK = 64


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
    Each distance is the square root of the summed squared differences, the
    arithmetic of `np.linalg.norm` on one axis, bit for bit. The squares read
    a distance above about 1.34e154 as inf; only those entries are recomputed
    with `np.hypot`, which does not overflow but rounds differently. The
    squares' overflow warns unless the caller ignores it, as every caller in
    this module does.
    """
    pos = np.asarray(positions, dtype=float)
    tgt = np.asarray(targets, dtype=float)
    diff = pos[..., None, :] - tgt
    dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
    over = np.isinf(dist)
    if over.any():
        dist[over] = np.hypot(*diff[over].T)
    return dist


@np.errstate(over="ignore")
def measure_weights(scenario: Scenario, positions, step: int) -> np.ndarray:
    """Noisy distance measurements at one step.

    The noise comes from `np.random.default_rng((scenario.seed, step))`, so a
    given step's measurement never depends on how earlier steps were
    consumed. `run_sweep` draws the same noise in blocks (`_rng`); this
    function keeps numpy's generator as the independent reference.
    """
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
        self.pi: np.ndarray | None = None  # the task->agent map of `previous`
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


@np.errstate(over="ignore")
def run_sweep(
    scenario: Scenario, seeds: Iterable[int], policy: Literal["naive", "certified"]
) -> Iterator[SimLog]:
    """Run the scenario once per seed, all seeds in lockstep; yields the logs in seed order.

    Each log is the one that seed's run alone gives (see `run_simulation`).
    At each step every live seed measures its weights on one stacked
    distance computation. Its noise is that of `measure_weights`,
    `default_rng((seed, step))`, bit for bit, but `_rng.uniform_block` draws
    it for every live seed and NOISE_BLOCK steps at once.

    Every seed that still solves is first warm-started: one
    `_solver.unique_optima` pass tests each seed's previous map on its new
    weights. A map that is still the strictly unique optimum is the one any
    solve would give, so the seed keeps it (the dynamic Hungarian idea;
    Mills-Tettey, Stentz and Dias, CMU-RI-TR-07-27, 2007). The pass runs one
    stacked exchange kernel, which depends on the maps alone and is rebuilt
    only for a stack of maps it does not hold. The other seeds, and every
    seed's first step, get `_solver.solve_canonical`, the solve of
    `solve_lap`.

    Certification stays per seed, on arrays: a solving step of any seed has
    every weight finite, so all of them share the complete edge set and the
    scalar bound. On that edge set, only the lone edge of a 1x1 scenario is
    in every full matching, so it is the one edge that `certify_exact` holds
    fixed. The critical search builds the exchange kernel of its own map at
    each step it runs. A seed whose measured distance, the optimal cost of
    whose weights, or whose certification overflows to infinity raises
    ValueError when the iteration reaches it, after the logs of the seeds
    before it; a negative seed raises ValueError before any log. The whole
    sweep runs under `np.errstate(over="ignore")`, so the overflows it
    handles print no warning, and its steps enter no guard of their own.
    """
    if policy not in ("naive", "certified"):
        raise ValueError(f"policy must be 'naive' or 'certified', got {policy!r}")
    runs = [_Run(replace(scenario, seed=seed)) for seed in seeds]
    targets = scenario.target_positions
    shape = (len(scenario.agent_positions), len(targets))
    edge = np.ones(shape, dtype=bool)
    fixed = np.full(shape, shape == (1, 1))
    noise_bound = scenario.noise_bound
    live = runs
    kernel = None
    for k in range(scenario.max_steps):
        if not live:
            break
        if k % NOISE_BLOCK == 0:
            count = min(NOISE_BLOCK, scenario.max_steps - k)
            live_seeds = [run.scenario.seed for run in live]
            noise = _rng.uniform_block(live_seeds, k, count, -noise_bound, noise_bound, shape)
            rows = np.arange(len(live))
        weights = exact_distances([run.positions for run in live], targets)
        weights += noise[rows, k % NOISE_BLOCK]
        # Each seed's max|w|: the scale of its tie tolerance, and inf if any weight is.
        scale = np.abs(weights).max(axis=(1, 2))
        finite = np.isfinite(scale)
        warm = [
            i for i, run in enumerate(live)
            if run.locked is None and run.pi is not None and finite[i]
        ]
        kept = set()
        if warm:
            stack = np.array([live[i].pi for i in warm])
            if kernel is None or not np.array_equal(kernel.pi, stack):
                kernel = _solver.ExchangeKernel(edge, stack)
            tol = _solver.tie_tol(weights, scale[warm])
            kept = set(itertools.compress(warm, _solver.unique_optima(kernel, weights[warm], tol)))
        records = weights.tolist()
        for i, run in enumerate(live):
            if run.locked is not None:
                assn = run.locked
            elif not finite[i]:
                a, t = np.argwhere(~np.isfinite(weights[i]))[0]
                run.outcome = ValueError(
                    f"measured weight for edge ({a}, {t}) must be finite, got {weights[i, a, t]}"
                )
                continue
            elif i in kept:
                assn = run.previous
            else:
                # With every weight finite and agents >= targets, a matching
                # exists, but its cost can still overflow.
                res = _solver.solve_canonical(weights[i])
                if res is None:
                    run.outcome = ValueError(
                        "optimal cost of the measured weights must be finite, got inf"
                    )
                    continue
                run.pi = res[0]
                pairs = tuple(enumerate(run.pi.tolist()))
                same = run.previous is not None and run.previous.pairs == pairs
                assn = run.previous if same else Assignment(pairs)
            if run.locked is None and policy == "certified":
                pi, mat = run.pi, weights[i]
                # The exact test is necessary for the paper's certificate,
                # so the critical search runs only where a lock is possible.
                try:
                    exact = _certify_exact(mat, pi, noise_bound, fixed, scale[i] + noise_bound)
                except ValueError as exc:
                    run.outcome = exc
                    continue
                if exact and _certify_critical(mat, pi, noise_bound):
                    run.locked = assn
                    run.certification_step = k
            reassigned = run.previous is not None and assn != run.previous
            if reassigned:
                run.reassignments += 1
            run.steps.append(
                SimStep(
                    k,
                    tuple(map(tuple, records[i])),
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
        going = [run.outcome is None for run in live]
        live = [run for run, on in zip(live, going) if on]
        rows = rows[going]
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

    Each step takes the assignment that `solve_lap` gives on the measured
    matrix, and certifies it, on the dense layer, with no
    `BipartiteInstance`; a step that keeps the previous step's map keeps
    the previous `Assignment`. This is `run_sweep` of the scenario's own
    seed. Raises ValueError when a measured distance overflows to infinity
    or the seed is negative.
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
@np.errstate(over="ignore")
def _ideal_cost(agent_positions, target_positions) -> float:
    """Cost of the canonical optimum on the exact distances; the seeds of a sweep share it."""
    dist = exact_distances(agent_positions, target_positions)
    task_to_agent, _ = _solver.solve_canonical(dist)
    # Summed in task order from 0.0, as `assignment_cost` sums `solve_lap`'s cost.
    ideal = 0.0
    for weight in dist[task_to_agent, np.arange(len(task_to_agent))].tolist():
        ideal += weight
    return ideal
