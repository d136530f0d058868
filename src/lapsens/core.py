"""Weighted bipartite instances and exact linear assignment solving."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Mapping

import numpy as np

from . import _solver
from .errors import CapExceededError, InfeasibleError, UnknownEdgeError

Edge = tuple[int, int]  # (agent index, task index)


@dataclass(frozen=True)
class BipartiteInstance:
    """A weighted bipartite graph with agents as rows and tasks as columns.

    Edges absent from `weights` are genuinely missing, not expensive. Every
    weight must be finite, and there must be at least as many agents as tasks
    so that a full matching on tasks is conceivable.
    """

    num_agents: int
    num_tasks: int
    weights: Mapping[Edge, float]

    def __post_init__(self):
        if self.num_agents < 0 or self.num_tasks < 0:
            raise ValueError("vertex counts must be non-negative")
        if self.num_agents < self.num_tasks:
            raise InfeasibleError(
                f"{self.num_tasks} tasks but only {self.num_agents} agents"
            )
        cleaned: dict[Edge, float] = {}
        for edge, value in dict(self.weights).items():
            a, b = edge
            a, b = int(a), int(b)
            if not (0 <= a < self.num_agents and 0 <= b < self.num_tasks):
                raise ValueError(f"edge {edge} out of range")
            v = float(value)
            if not math.isfinite(v):
                raise ValueError(f"weight for edge {edge} must be finite, got {value}")
            cleaned[(a, b)] = v
        object.__setattr__(self, "weights", cleaned)

    @classmethod
    def from_matrix(cls, rows, missing=None) -> "BipartiteInstance":
        """Build an instance from a rectangular grid.

        Entries equal to `missing` (None by default) or NaN are treated as
        absent edges.
        """
        grid = [list(r) for r in rows]
        num_agents = len(grid)
        num_tasks = len(grid[0]) if grid else 0
        weights: dict[Edge, float] = {}
        for a, row in enumerate(grid):
            if len(row) != num_tasks:
                raise ValueError("rows must all have the same length")
            for b, value in enumerate(row):
                if value is missing or value is None:
                    continue
                v = float(value)
                if math.isnan(v):
                    continue
                weights[(a, b)] = v
        return cls(num_agents, num_tasks, weights)

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.weights)

    def sorted_edges(self) -> list[Edge]:
        """Edges in row-major (agent, task) order."""
        return sorted(self.weights)

    @cached_property
    def _dense(self) -> np.ndarray:
        mat = np.full((self.num_agents, self.num_tasks), np.inf)
        for (a, b), v in self.weights.items():
            mat[a, b] = v
        return mat

    def dense(self) -> np.ndarray:
        """Weight matrix copy with np.inf marking missing edges."""
        return self._dense.copy()

    def shifted(self, deltas: Mapping[Edge, float]) -> "BipartiteInstance":
        """A new instance with `deltas` added edge-wise.

        `deltas` must be defined on exactly this instance's edge set.
        """
        if set(deltas) != set(self.weights):
            raise UnknownEdgeError("shift is not defined on exactly the edge set")
        new_weights = {e: w + deltas[e] for e, w in self.weights.items()}
        return BipartiteInstance(self.num_agents, self.num_tasks, new_weights)


@dataclass(frozen=True)
class Assignment:
    """A matching of tasks to distinct agents, stored as (task, agent) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted((int(t), int(a)) for t, a in self.pairs))
        tasks = [t for t, _ in pairs]
        agents = [a for _, a in pairs]
        if len(set(tasks)) != len(tasks):
            raise ValueError("a task appears in more than one pair")
        if len(set(agents)) != len(agents):
            raise ValueError("an agent appears in more than one pair")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_task_map(cls, mapping: Mapping[int, int]) -> "Assignment":
        return cls(tuple((t, a) for t, a in mapping.items()))

    def task_map(self) -> dict[int, int]:
        return {t: a for t, a in self.pairs}

    def agent_of(self, task: int) -> int:
        for t, a in self.pairs:
            if t == task:
                return a
        raise KeyError(task)

    def assigned_edges(self) -> frozenset[Edge]:
        return frozenset((a, t) for t, a in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SolveReport:
    """An optimal assignment, its cost, and whether it is the unique optimum."""

    assignment: Assignment
    cost: float
    unique: bool


@dataclass(frozen=True)
class BruteForceResult:
    """Every minimum-cost assignment of an instance, in lexicographic order."""

    optima: tuple[Assignment, ...]
    cost: float


def _pi_array(instance: BipartiteInstance, assn: Assignment) -> np.ndarray:
    """Task->agent index array; validates coverage and edge membership."""
    if len(assn) != instance.num_tasks:
        raise ValueError(
            f"assignment covers {len(assn)} tasks, instance has {instance.num_tasks}"
        )
    pi = np.empty(instance.num_tasks, dtype=np.intp)
    for t, a in assn.pairs:
        if (a, t) not in instance.weights:
            raise UnknownEdgeError(f"({a}, {t}) is not an edge of the instance")
        pi[t] = a
    return pi


def solve_lap(instance: BipartiteInstance) -> SolveReport:
    """Minimum-cost assignment covering every task.

    Costs within `_solver.tie_tol` tie; ties go to the lexicographically
    smallest pair sequence in (task, agent) order, so the result is
    deterministic. Raises InfeasibleError when some task cannot be covered.
    """
    res = _solver.solve_canonical(instance._dense)
    if res is None:
        raise InfeasibleError("no assignment covers every task")
    task_to_agent, unique = res
    assn = Assignment(tuple(enumerate(task_to_agent.tolist())))
    return SolveReport(assn, assignment_cost(instance, assn), unique)


def assignment_cost(instance: BipartiteInstance, assn: Assignment) -> float:
    """Sum of the weights of the assignment's edges.

    Every pair must be an edge of the instance; an empty assignment costs 0.
    """
    total = 0.0
    for t, a in assn.pairs:
        try:
            total += instance.weights[(a, t)]
        except KeyError:
            raise UnknownEdgeError(f"({a}, {t}) is not an edge of the instance") from None
    return total


def constrained_solve(
    instance: BipartiteInstance, edge: Edge, mode: Literal["force", "block"]
) -> SolveReport:
    """Optimal assignment with one edge's membership constrained.

    `force` pins the edge into the assignment by contracting its endpoints
    and solving the reduced instance; `block` removes the edge entirely.
    The `unique` flag refers to the constrained problem.
    """
    a, b = int(edge[0]), int(edge[1])
    if (a, b) not in instance.weights:
        raise UnknownEdgeError(f"({a}, {b}) is not an edge of the instance")
    if mode == "block":
        sub = {e: w for e, w in instance.weights.items() if e != (a, b)}
        return solve_lap(BipartiteInstance(instance.num_agents, instance.num_tasks, sub))
    if mode == "force":
        sub = {
            (a2 - (a2 > a), b2 - (b2 > b)): w
            for (a2, b2), w in instance.weights.items()
            if a2 != a and b2 != b
        }
        inner = solve_lap(
            BipartiteInstance(instance.num_agents - 1, instance.num_tasks - 1, sub)
        )
        pairs = [(t + (t >= b), agent + (agent >= a)) for t, agent in inner.assignment.pairs]
        pairs.append((b, a))
        return SolveReport(
            Assignment(tuple(pairs)),
            inner.cost + instance.weights[(a, b)],
            inner.unique,
        )
    raise ValueError(f"mode must be 'force' or 'block', got {mode!r}")


def uniqueness_check(instance: BipartiteInstance, assn: Assignment) -> bool:
    """True when `assn` is the strictly unique optimum.

    Checks that flipping any single edge's membership strictly increases the
    cost, i.e. that no finite sensitivity is within `_solver.tie_tol` of
    zero. `assn` must already be optimal for the answer to be meaningful.
    """
    return _solver.unique_optimum(instance._dense, _pi_array(instance, assn))


def brute_force_solve(instance: BipartiteInstance, cap: int = 8) -> BruteForceResult:
    """Exhaustively enumerate every full matching and return all minimizers (within `tie_tol`).

    Intended as an oracle for validating the fast paths. Raises
    CapExceededError when the instance has more than `cap` tasks and
    InfeasibleError when no full matching exists.
    """
    if instance.num_tasks > cap:
        raise CapExceededError(
            f"{instance.num_tasks} tasks exceeds the enumeration cap of {cap}"
        )
    num_tasks = instance.num_tasks
    tol = _solver.tie_tol(instance._dense)
    adjacency = [
        sorted(a for (a, t) in instance.weights if t == task) for task in range(num_tasks)
    ]
    best = math.inf
    candidates: list[tuple[float, tuple[int, ...]]] = []
    used = [False] * instance.num_agents
    picks: list[int] = []

    def recurse(task: int, acc: float) -> None:
        nonlocal best
        if task == num_tasks:
            if acc < best - tol:
                best = acc
            if acc <= best + tol:
                candidates.append((acc, tuple(picks)))
            return
        for agent in adjacency[task]:
            if used[agent]:
                continue
            used[agent] = True
            picks.append(agent)
            recurse(task + 1, acc + instance.weights[(agent, task)])
            picks.pop()
            used[agent] = False

    recurse(0, 0.0)
    if not candidates:
        raise InfeasibleError("no assignment covers every task")
    optima = tuple(
        Assignment(tuple(enumerate(agents)))
        for cost, agents in candidates
        if cost <= best + tol
    )
    return BruteForceResult(optima, best)
