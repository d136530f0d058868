"""Low-level routines on dense weight matrices.

Matrices are float arrays with rows = agents and columns = tasks; np.inf
marks a missing edge. All routines are pure functions of their inputs and
are safe to call concurrently.

Sensitivities come from the exchange graph of a matching. Node t stands for
the agent holding task t. Edge t->u means "t's agent takes u's task" and
weighs `W[holder(t), u] - W[holder(t), t]`. With more agents than tasks, a
free-pool node Z joins: t->Z means "t's agent drops its task" and weighs
`-W[holder(t), t]`; Z->u means "the cheapest free agent takes u's task". The
matching is optimal exactly when no cycle is negative, and each single-edge
flip is a cheapest cycle, so one all-pairs shortest-path pass yields every
sensitivity.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

# Absolute tolerance for treating two assignment costs as equal.
COST_TOL = 1e-9


def solve_dense(mat: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Optimal cost and task->agent index map, or None when no full matching exists."""
    if mat.shape[1] == 0:
        return 0.0, np.empty(0, dtype=np.intp)
    if mat.shape[0] < mat.shape[1]:
        return None
    try:
        rows, cols = linear_sum_assignment(mat)
    except ValueError:
        return None
    cost = float(mat[rows, cols].sum())
    if not np.isfinite(cost):
        return None
    task_to_agent = np.empty(mat.shape[1], dtype=np.intp)
    task_to_agent[cols] = rows
    return cost, task_to_agent


def flip_cost(mat: np.ndarray, a: int, b: int, assigned: bool) -> float:
    """Cost of the best matching with edge (a, b)'s membership flipped.

    Returns np.inf when no matching with the flipped membership exists. The
    sensitivity kernel does not use it; it stays because perfbench/spans.py
    traces it by name.
    """
    if assigned:
        blocked = mat.copy()
        blocked[a, b] = np.inf
        res = solve_dense(blocked)
        return np.inf if res is None else res[0]
    reduced = np.delete(np.delete(mat, a, axis=0), b, axis=1)
    res = solve_dense(reduced)
    return np.inf if res is None else res[0] + float(mat[a, b])


def sens_dense(mat: np.ndarray, task_to_agent: np.ndarray) -> np.ndarray:
    """Element-wise sensitivities of every edge relative to the given matching.

    Assigned edges give `flipped_cost - base_cost` (>= 0 at an optimum),
    unassigned edges give `base_cost - flipped_cost` (<= 0). Entries are
    +/-inf where the flip is infeasible and NaN at non-edges.

    On the exchange graph (module docstring), blocking task t's edge costs the
    cheapest cycle through node t. Forcing agent a onto task j costs
    `W[a, j] - W[a, s]` plus the shortest path j->s when a holds task s, and
    `W[a, j]` plus the shortest path j->Z when a is free.
    """
    num_agents, num_tasks = mat.shape
    if num_tasks == 0:
        return np.full(mat.shape, np.nan)
    tasks = np.arange(num_tasks)
    pi = np.asarray(task_to_agent, dtype=np.intp)
    # Each agent's node (its task, or Z = num_tasks when free) and held weight.
    node = np.full(num_agents, num_tasks)
    node[pi] = tasks
    held = np.zeros(num_agents)
    held[pi] = mat[pi, tasks]
    free = node == num_tasks
    size = num_tasks + int(free.any())
    graph = np.full((size, size), np.inf)
    graph[:num_tasks, :num_tasks] = mat[pi] - held[pi, None]
    if free.any():
        graph[:num_tasks, num_tasks] = -held[pi]
        graph[num_tasks, :num_tasks] = mat[free].min(axis=0)
    np.fill_diagonal(graph, np.inf)
    dist = graph.copy()
    np.fill_diagonal(dist, 0.0)
    for k in range(size):  # Floyd-Warshall, one min-plus step per node
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    forced = mat - held[:, None] + dist[:num_tasks, node].T
    # Subtracting from 0.0 rather than negating keeps an exact tie at +0.0.
    out = np.where(np.isfinite(mat), 0.0 - forced, np.nan)
    out[pi, tasks] = (graph[:num_tasks] + dist[:, :num_tasks].T).min(axis=1)
    return out


def canonical_assignment(
    mat: np.ndarray, base_map: np.ndarray, opt_cost: float, tol: float = COST_TOL
) -> np.ndarray:
    """Lexicographically smallest optimal matching in (task, agent) order.

    `base_map` must be an optimal task->agent map achieving `opt_cost`; it is
    rewritten as tasks are pinned so that most tasks adopt its agent without
    an extra solve.
    """
    num_agents, num_tasks = mat.shape
    chosen = np.full(num_tasks, -1, dtype=np.intp)
    used = np.zeros(num_agents, dtype=bool)
    base = np.asarray(base_map, dtype=np.intp).copy()
    rows = np.arange(num_agents)
    fixed_cost = 0.0
    for t in range(num_tasks):
        rem_cols = np.arange(t + 1, num_tasks)
        for a in range(num_agents):
            if used[a] or not np.isfinite(mat[a, t]):
                continue
            if a == base[t]:
                chosen[t] = a
                break
            rem_rows = rows[~used & (rows != a)]
            res = solve_dense(mat[np.ix_(rem_rows, rem_cols)])
            if res is None:
                continue
            if fixed_cost + float(mat[a, t]) + res[0] <= opt_cost + tol:
                chosen[t] = a
                base[t] = a
                base[rem_cols] = rem_rows[res[1]]
                break
        fixed_cost += float(mat[chosen[t], t])
        used[chosen[t]] = True
    return chosen
