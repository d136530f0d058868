"""Shared fixtures and three independent oracles.

The enumeration oracle lists matchings with itertools; the constrained-solve
oracle flips one edge at a time and re-solves with scipy; the worst-case
certificate enumerates the optima of the worst-case grid. None of them
touches the package's solver paths, so agreement with them is meaningful.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from lapsens import Assignment, BipartiteInstance

# Known 3x3 case used throughout: unique optimum {t0->a1, t1->a2, t2->a0},
# cost 29, hand-checkable sensitivities.
DEMO_GRID = [[91, 33, 15], [5, 86, 92], [85, 9, 42]]
DEMO_OPTIMUM = {0: 1, 1: 2, 2: 0}
DEMO_COST = 29.0
DEMO_SENSITIVITIES = {
    (0, 0): -163.0,
    (0, 1): -51.0,
    (0, 2): 51.0,
    (1, 0): 157.0,
    (1, 1): -157.0,
    (1, 2): -163.0,
    (2, 0): -157.0,
    (2, 1): 51.0,
    (2, 2): -51.0,
}


def oracle_enumerate(grid):
    """Every full matching of a dense grid (None = missing edge).

    Returns (cost, task->agent tuple) pairs for all injective maps that use
    only present edges.
    """
    num_agents = len(grid)
    num_tasks = len(grid[0]) if grid else 0
    matchings = []
    for perm in itertools.permutations(range(num_agents), num_tasks):
        cost = 0.0
        feasible = True
        for task, agent in enumerate(perm):
            weight = grid[agent][task]
            if weight is None:
                feasible = False
                break
            cost += weight
        if feasible:
            matchings.append((cost, perm))
    return matchings


def oracle_optima(grid, tol=1e-9, matchings=None):
    """(optimal cost, sorted list of optimal task->agent tuples), or None."""
    if matchings is None:
        matchings = oracle_enumerate(grid)
    if not matchings:
        return None
    best = min(cost for cost, _ in matchings)
    return best, sorted(perm for cost, perm in matchings if cost <= best + tol)


def oracle_sensitivities(grid, opt_map, matchings=None):
    """Expected per-edge sensitivities; +/-inf when a flip has no matching."""
    if matchings is None:
        matchings = oracle_enumerate(grid)
    best = min(cost for cost, _ in matchings)
    out = {}
    for a in range(len(grid)):
        for b in range(len(grid[0])):
            if grid[a][b] is None:
                continue
            with_edge = [c for c, p in matchings if p[b] == a]
            without_edge = [c for c, p in matchings if p[b] != a]
            if opt_map[b] == a:
                out[(a, b)] = (min(without_edge) - best) if without_edge else math.inf
            else:
                out[(a, b)] = (best - min(with_edge)) if with_edge else -math.inf
    return out


def oracle_worst_case_certified(grid, opt_map, eps, tol=1e-9):
    """Whether opt_map is optimal for every weight within +/-eps of the grid.

    `eps[a][b]` bounds the error of edge (a, b). The worst case for opt_map
    raises its own edges by eps and lowers every other edge by eps; opt_map
    survives every error exactly when it is among that grid's optima.
    """
    opt = tuple(opt_map[t] for t in range(len(grid[0])))
    worst = [
        [
            None if w is None else (w + eps[a][b] if opt[b] == a else w - eps[a][b])
            for b, w in enumerate(row)
        ]
        for a, row in enumerate(grid)
    ]
    _, optima = oracle_optima(worst, tol)
    return opt in set(optima)


def oracle_lap_cost(mat):
    """Optimal cost of a dense matrix (np.inf = missing edge); inf if none."""
    if mat.shape[1] == 0:
        return 0.0
    if mat.shape[0] < mat.shape[1]:
        return math.inf
    try:
        rows, cols = linear_sum_assignment(mat)
    except ValueError:
        return math.inf
    return float(mat[rows, cols].sum())


def oracle_constrained_sensitivities(mat, task_to_agent):
    """Per-edge sensitivities from one constrained solve per edge.

    An assigned edge is blocked and the instance re-solved; an unassigned
    edge (a, b) is forced by solving without agent a and task b. +/-inf when
    the flipped problem has no matching.
    """
    mat = np.asarray(mat, dtype=float)
    base = sum(float(mat[a, t]) for t, a in enumerate(task_to_agent))
    out = {}
    for a, b in zip(*np.nonzero(np.isfinite(mat))):
        a, b = int(a), int(b)
        if task_to_agent[b] == a:
            blocked = mat.copy()
            blocked[a, b] = np.inf
            out[(a, b)] = oracle_lap_cost(blocked) - base
        else:
            reduced = np.delete(np.delete(mat, a, axis=0), b, axis=1)
            out[(a, b)] = base - (oracle_lap_cost(reduced) + float(mat[a, b]))
    return out


@dataclass(frozen=True)
class CorpusItem:
    grid: tuple
    instance: BipartiteInstance
    optimum: Assignment
    cost: float
    oracle_sens: dict


@dataclass(frozen=True)
class Corpus:
    items: tuple
    build_seconds: float


def _build_corpus(count=500, sizes=(2, 3, 4, 5, 6), seed=20260815) -> Corpus:
    rng = np.random.default_rng(seed)
    size_cycle = itertools.cycle(sizes)
    items = []
    started = time.perf_counter()
    while len(items) < count:
        n = next(size_cycle)
        grid = rng.integers(0, 101, size=(n, n)).tolist()
        matchings = oracle_enumerate(grid)
        cost, optima = oracle_optima(grid, matchings=matchings)
        if len(optima) > 1:
            continue  # unique optimum enforced by rejection
        opt_map = optima[0]
        sens = oracle_sensitivities(grid, opt_map, matchings=matchings)
        items.append(
            CorpusItem(
                grid=tuple(tuple(row) for row in grid),
                instance=BipartiteInstance.from_matrix(grid),
                optimum=Assignment(tuple(enumerate(opt_map))),
                cost=float(cost),
                oracle_sens=sens,
            )
        )
    return Corpus(tuple(items), time.perf_counter() - started)


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    """500 random integer instances (2x2..6x6) with unique optima."""
    return _build_corpus()


@pytest.fixture()
def demo_instance() -> BipartiteInstance:
    return BipartiteInstance.from_matrix(DEMO_GRID)


@pytest.fixture()
def demo_optimum() -> Assignment:
    return Assignment.from_task_map(DEMO_OPTIMUM)
