"""Multi-vehicle guidance simulation comparing re-assignment policies.

Agents chase assigned targets under noisy distance measurements. A naive
policy re-solves the assignment every step and can churn; a certified policy
re-solves only until the assignment is provably optimal for the true
distances, then locks it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import Assignment, BipartiteInstance, solve_lap
from .errors import DegenerateOptimumError
from .perturb import (
    ErrorBounds,
    Perturbation,
    certify_exact,
    certify_optimal,
    critical_search,
    divided_bound,
)

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
    """Euclidean distance matrix, agents as rows and targets as columns."""
    pos = np.asarray(positions, dtype=float)
    tgt = np.asarray(targets, dtype=float)
    return np.linalg.norm(pos[:, None, :] - tgt[None, :, :], axis=2)


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


def _allowable_perturbation(instance: BipartiteInstance, assn: Assignment) -> Perturbation:
    """Best available allowable perturbation for certification.

    Prefers the converged critical perturbation; falls back to the divided
    bound when the search hits its iteration cap, and to the zero
    perturbation when the optimum is degenerate (certification then fails
    unless the noise bound is zero, which is the honest answer).
    """
    try:
        report = critical_search(instance, assn)
        if report.converged:
            return report.perturbation
        return divided_bound(report.sensitivities, instance.num_tasks)
    except DegenerateOptimumError:
        return Perturbation.zeros(instance.edges)


def _arrived(positions, assignment: Assignment, targets) -> bool:
    return all(positions[agent] == targets[task] for task, agent in assignment.pairs)


def run_simulation(scenario: Scenario, policy: Literal["naive", "certified"]) -> SimLog:
    """Run one pursuit simulation under the given re-assignment policy.

    `naive` re-solves the assignment from the noisy weights every step.
    `certified` also re-solves each step, but additionally checks whether the
    measured optimum is provably optimal for the true distances given the
    noise bound; once certified, the assignment is locked and never changes.
    The paper's certificate (`certify_optimal` on the critical perturbation)
    decides every lock; steps that `certify_exact` refuses skip its search.
    Ends when every assigned agent has reached its target or after
    `scenario.max_steps` steps (`exhausted=True`).
    """
    if policy not in ("naive", "certified"):
        raise ValueError(f"policy must be 'naive' or 'certified', got {policy!r}")
    positions = scenario.agent_positions
    targets = scenario.target_positions
    steps: list[SimStep] = []
    total_distance = 0.0
    reassignments = 0
    certification_step: int | None = None
    locked: Assignment | None = None
    previous: Assignment | None = None
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
                # The exact test is necessary for the paper's certificate, so
                # the critical search runs only where a lock is possible.
                if certify_exact(instance, assn, bounds) and certify_optimal(
                    _allowable_perturbation(instance, assn), assn, bounds
                ):
                    locked = assn
                    certification_step = k
        reassigned = previous is not None and assn != previous
        if reassigned:
            reassignments += 1
        steps.append(
            SimStep(
                k,
                tuple(tuple(float(w) for w in row) for row in weights),
                assn,
                positions,
                locked is not None,
                reassigned,
            )
        )
        moved = step_dynamics(positions, assn, targets, scenario.speed)
        total_distance += sum(
            math.hypot(nx - px, ny - py)
            for (px, py), (nx, ny) in zip(positions, moved)
        )
        positions = moved
        previous = assn
        if _arrived(positions, assn, targets):
            exhausted = False
            break
    return SimLog(
        policy,
        scenario,
        tuple(steps),
        total_distance,
        reassignments,
        certification_step,
        exhausted,
        positions,
    )


def summarize(log: SimLog) -> RunMetrics:
    """Distance, churn, and certification statistics for a run.

    The optimality gap compares the distance actually travelled against the
    cost of the best assignment on the true initial distances (the shortest
    possible total straight-line travel).
    """
    scenario = log.scenario
    ideal = solve_lap(
        BipartiteInstance.from_matrix(
            exact_distances(scenario.agent_positions, scenario.target_positions)
        )
    ).cost
    return RunMetrics(
        policy=log.policy,
        steps=len(log.steps),
        total_distance=log.total_distance,
        reassignments=log.reassignments,
        certification_step=log.certification_step,
        reached_all=not log.exhausted,
        optimality_gap=log.total_distance - ideal,
    )
