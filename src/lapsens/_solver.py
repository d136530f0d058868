"""Low-level routines on dense weight matrices.

Matrices are float arrays with rows = agents and columns = tasks; np.inf
marks a missing edge. All functions are pure functions of their inputs and
are safe to call concurrently; an `ExchangeKernel` reuses its buffers, so
each thread needs its own.

Sensitivities come from the exchange graph of a matching. Node t stands for
the agent holding task t. Edge t->u means "t's agent takes u's task" and
weighs `W[holder(t), u] - W[holder(t), t]`. With more agents than tasks, a
free-pool node Z joins: t->Z means "t's agent drops its task" and weighs
`-W[holder(t), t]`; Z->u means "the cheapest free agent takes u's task". The
matching is optimal exactly when no cycle is negative, and each single-edge
flip is a cheapest cycle, so one all-pairs shortest-path pass yields every
sensitivity.

`ExchangeKernel` prepares that pass once per matching and edge set. The
critical search calls one kernel on every pass, `perturb.is_critical` one for
both of its passes, and `fixed_edges` reuses its node map; `sens_dense`, the
one-off form, serves `core.uniqueness_check` and
`perturb.elementwise_sensitivities`.
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


class ExchangeKernel:
    """The exchange graph of one matching, prepared for any weights on one edge set.

    Built once from the edge mask and the task->agent map: the node of each
    agent, the free agents that make up node Z, and the graph and distance
    buffers with their Floyd-Warshall row and column views. Calling it on a
    weight matrix with that edge set returns the matching's element-wise
    sensitivities: assigned edges give `flipped_cost - base_cost` (>= 0 at an
    optimum), unassigned edges give `base_cost - flipped_cost` (<= 0). Entries
    are +/-inf where the flip is infeasible and NaN at non-edges. Each call
    returns a new array; the buffers are only reused between calls, so one
    kernel must not be called from two threads at once.

    On the exchange graph (module docstring), blocking task t's edge costs the
    cheapest cycle through node t. Forcing agent a onto task j costs
    `W[a, j] - W[a, s]` plus the shortest path j->s when a holds task s, and
    `W[a, j]` plus the shortest path j->Z when a is free.
    """

    def __init__(self, edge: np.ndarray, task_to_agent: np.ndarray):
        num_agents, num_tasks = edge.shape
        self.non_edge = ~edge
        self.pi = np.asarray(task_to_agent, dtype=np.intp)
        self.tasks = np.arange(num_tasks)
        # Each agent's node: its task, or Z = num_tasks when it is free.
        self.node = np.full(num_agents, num_tasks)
        self.node[self.pi] = self.tasks
        self.free = np.flatnonzero(self.node == num_tasks)
        self.size = size = num_tasks + int(self.free.size > 0)
        graph, dist = np.empty((size, size)), np.empty((size, size))
        self.graph, self.dist, self.sums = graph, dist, np.empty((size, size))
        self.cycles = np.empty((num_tasks, size))
        self.diagonals = graph.reshape(-1)[:: size + 1], dist.reshape(-1)[:: size + 1]
        self.steps = [(dist[:, k, None], dist[k]) for k in range(size)]

    def __call__(self, mat: np.ndarray) -> np.ndarray:
        num_tasks = len(self.tasks)
        if num_tasks == 0:
            return np.full(mat.shape, np.nan)
        pi, graph, dist = self.pi, self.graph, self.dist
        held = np.zeros(mat.shape[0])
        held[pi] = held_pi = mat[pi, self.tasks]
        np.subtract(mat[pi], held_pi[:, None], out=graph[:num_tasks, :num_tasks])
        if self.free.size:
            np.negative(held_pi, out=graph[:num_tasks, num_tasks])
            np.minimum.reduce(mat[self.free], axis=0, out=graph[num_tasks, :num_tasks])
        self.diagonals[0].fill(np.inf)
        np.copyto(dist, graph)
        self.diagonals[1].fill(0.0)
        for col, row in self.steps:  # Floyd-Warshall, one min-plus step per node
            np.add(col, row, out=self.sums)
            np.minimum(dist, self.sums, out=dist)
        out = np.subtract(mat, held[:, None])
        np.add(out, dist[:num_tasks, self.node].T, out=out)
        # Subtracting from 0.0 rather than negating keeps an exact tie at +0.0.
        np.subtract(0.0, out, out=out)
        out[self.non_edge] = np.nan
        np.add(graph[:num_tasks], dist[:, :num_tasks].T, out=self.cycles)
        out[pi, self.tasks] = np.minimum.reduce(self.cycles, axis=1)
        return out


def sens_dense(mat: np.ndarray, task_to_agent: np.ndarray) -> np.ndarray:
    """Element-wise sensitivities of every edge relative to the given matching.

    A one-off `ExchangeKernel` call; see there for the values.
    """
    return ExchangeKernel(np.isfinite(mat), task_to_agent)(mat)


def fixed_edges(mat: np.ndarray, task_to_agent: np.ndarray) -> np.ndarray:
    """Mask of the edges that every full matching uses, or that none uses.

    These are the edges whose sensitivity `sens_dense` reports as infinite.
    On the exchange graph of the given matching (module docstring), edge
    (a, j) is the move from a's node to task j, and its membership can change
    only when that move lies on a cycle, i.e. when j reaches a's node. Weights
    play no part; only the edge set does.
    """
    edge = np.isfinite(mat)
    kernel = ExchangeKernel(edge, task_to_agent)
    num_tasks, node, size = len(kernel.tasks), kernel.node, kernel.size
    # reach[s, u]: some path leads from node s to node u; node Z = num_tasks.
    reach = np.zeros((size, size), dtype=bool)
    rows, cols = np.nonzero(edge)
    reach[node[rows], cols] = True
    reach[kernel.tasks, kernel.tasks] = False
    if kernel.free.size:
        reach[:num_tasks, num_tasks] = True
    for k in range(size):  # Warshall, one step per node
        reach |= reach[:, k, None] & reach[k]
    return edge & ~reach[:num_tasks, node].T


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
