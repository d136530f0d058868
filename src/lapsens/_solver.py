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
matching is optimal exactly when no cycle is negative, so exactly when no
assigned edge's sensitivity is, since every cycle passes a task's node. Each
single-edge flip is a cheapest cycle, so one all-pairs shortest-path pass
yields every sensitivity.

`ExchangeKernel` prepares that pass once per matching and edge set, or once
per stack of matchings on one edge set: a leading batch axis runs the pass
for B weight matrices at once, each with its own matching, with the values
that B separate kernels give. The critical search calls one kernel on every
pass and `perturb.is_critical` one for both of its passes; `sens_dense` is
the one-off form. `unique_optima` turns a kernel's values into uniqueness
flags, one per matrix: `sim.run_sweep` calls it once per step on the stack
of every seed that still solves, reusing the kernel while their maps stay
the same.

A sensitivity is infinite exactly where every full matching uses the edge,
or none does. So the mask of infinities depends on the edge set alone, not
on the weights or on which full matching the kernel holds: `certify_exact`
takes its fixed edges from it, and `sim.run_sweep` computes it once per sweep.

Costs tie within `tie_tol`, TIE_RTOL * tasks * max|w|: rounding in a sum of
n weights grows with n * max|w| (Higham, Accuracy and Stability of Numerical
Algorithms, 4.2). Every tie and optimality decision takes its tolerance here.

`solve_canonical` is the whole solve on one matrix: `solve_dense`, the
uniqueness test from a one-off kernel (`unique_optimum`), and
`canonical_assignment` only when the optimum is tied. `core.solve_lap` wraps
it for instances; `sim.run_sweep` runs the same three steps on its stack.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

TIE_RTOL = 1e-12


def finite_max(values: np.ndarray) -> float:
    """Largest finite absolute value, or 0 when there is none."""
    return float(np.maximum.reduce(np.abs(values), None, where=np.isfinite(values), initial=0.0))


def tie_tol(mat: np.ndarray, scale=None):
    """Tie tolerance of costs on `mat`; `scale`, one per matrix of a stack, overrides max|w|."""
    return TIE_RTOL * mat.shape[-1] * (finite_max(mat) if scale is None else scale)


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
    """The exchange graphs of a stack of matchings, prepared for any weights on one edge set.

    Built once from the edge mask and the task->agent maps: a map of shape
    (tasks,) or a stack of shape (B, tasks), one matching per weight matrix.
    The build keeps the node of each agent, the flat indices of every gather
    and scatter, and the graph and distance buffers with their Floyd-Warshall
    row and column views; a single map is the stack of one. Calling it on
    weights of the matching shape, (agents, tasks) or (B, agents, tasks),
    returns each matching's element-wise sensitivities in that shape:
    assigned edges give `flipped_cost - base_cost` (>= 0 at an optimum),
    unassigned edges give `base_cost - flipped_cost` (<= 0). Entries are
    +/-inf where the flip is infeasible and NaN at non-edges. Each call
    returns a new array; the buffers are only reused between calls, so one
    kernel must not be called from two threads at once.

    On the exchange graph (module docstring), blocking task t's edge costs the
    cheapest cycle through node t. Forcing agent a onto task j costs
    `W[a, j] - W[a, s]` plus the shortest path j->s when a holds task s, and
    `W[a, j]` plus the shortest path j->Z when a is free. Every slice of a
    stack runs the same arithmetic as a matching of its own, so its values
    are bit for bit those of a one-matching kernel.
    """

    def __init__(self, edge: np.ndarray, task_to_agent: np.ndarray):
        self.pi = np.asarray(task_to_agent, dtype=np.intp)
        maps = self.pi if self.pi.ndim == 2 else self.pi[None]
        batch, num_tasks = maps.shape
        num_agents = edge.shape[0]
        self.shape = (batch, num_agents, num_tasks)
        self.size = size = num_tasks + (num_agents > num_tasks)
        tasks = np.arange(num_tasks)
        # Flat (slice, agent) index of each task's holder, and each agent's
        # node: its task, or Z = num_tasks when it is free.
        self.holders = maps + num_agents * np.arange(batch)[:, None]
        node = np.full(batch * num_agents, num_tasks)
        node[self.holders] = tasks
        # Flat indices into a (B, agents, tasks) stack: the assigned cells and
        # the rows of the holders and of the free agents.
        starts = self.holders * num_tasks
        self.assigned = starts + tasks
        self.rows = starts[:, :, None] + tasks
        if size > num_tasks:
            free = np.flatnonzero(node == num_tasks) * num_tasks
            self.free_rows = free.reshape(batch, -1, 1) + tasks
        # paths[b, a, j] indexes dist[b, j, node of agent a in slice b].
        node = node.reshape(batch, num_agents, 1)
        node += size * size * np.arange(batch)[:, None, None]
        self.paths = node + size * tasks
        self.non_edge = ~edge
        graph, dist = np.empty((batch, size, size)), np.empty((batch, size, size))
        self.graph, self.dist, self.sums = graph, dist, np.empty((batch, size, size))
        self.cycles = np.empty((batch, num_tasks, size))
        diagonal = slice(None, None, size + 1)
        self.diagonals = graph.reshape(batch, -1)[:, diagonal], dist.reshape(batch, -1)[:, diagonal]
        self.steps = [(dist[:, :, k, None], dist[:, None, k]) for k in range(size)]

    def __call__(self, mat: np.ndarray) -> np.ndarray:
        batch, num_agents, num_tasks = self.shape
        if num_tasks == 0:
            return np.full(mat.shape, np.nan)
        graph, dist = self.graph, self.dist
        flat = mat.reshape(-1)
        held_pi = flat.take(self.assigned)
        held = np.zeros(batch * num_agents)
        held.put(self.holders, held_pi)
        np.subtract(flat.take(self.rows), held_pi[:, :, None], out=graph[:, :num_tasks, :num_tasks])
        if self.size > num_tasks:
            np.negative(held_pi, out=graph[:, :num_tasks, num_tasks])
            np.minimum.reduce(flat.take(self.free_rows), axis=1, out=graph[:, num_tasks, :num_tasks])
        self.diagonals[0].fill(np.inf)
        np.copyto(dist, graph)
        self.diagonals[1].fill(0.0)
        for col, row in self.steps:  # Floyd-Warshall, one min-plus step per node
            np.add(col, row, out=self.sums)
            np.minimum(dist, self.sums, out=dist)
        out = np.subtract(mat.reshape(self.shape), held.reshape(batch, num_agents, 1))
        np.add(out, dist.take(self.paths), out=out)
        # Subtracting from 0.0 rather than negating keeps an exact tie at +0.0.
        np.subtract(0.0, out, out=out)
        np.copyto(out, np.nan, where=self.non_edge)
        np.add(graph[:, :num_tasks], dist[:, :, :num_tasks].transpose(0, 2, 1), out=self.cycles)
        out.put(self.assigned, np.minimum.reduce(self.cycles, axis=2))
        return out.reshape(mat.shape)


def sens_dense(mat: np.ndarray, task_to_agent: np.ndarray) -> np.ndarray:
    """Element-wise sensitivities of every edge relative to the given matching.

    A one-off `ExchangeKernel` call; see there for the values.
    """
    return ExchangeKernel(np.isfinite(mat), task_to_agent)(mat)


def unique_optima(kernel: ExchangeKernel, mat: np.ndarray, tol) -> np.ndarray:
    """Whether each of the kernel's matchings is the strictly unique optimum of its weights.

    True where every single-edge flip moves the matching's cost by more than
    `tol`, the matrix's `tie_tol`; the matching must be optimal for the
    answer to mean that. `mat` has the kernel's shape, one matrix or a stack,
    and gives one flag per matrix; a stack takes one tolerance per matrix.
    """
    return ~(np.abs(kernel(mat)) <= np.asarray(tol)[..., None, None]).any(axis=(-2, -1))


def unique_optimum(mat: np.ndarray, task_to_agent: np.ndarray) -> bool:
    """`unique_optima` of a one-off kernel for one matrix."""
    kernel = ExchangeKernel(np.isfinite(mat), task_to_agent)
    return bool(unique_optima(kernel, mat, tie_tol(mat)))


def solve_canonical(mat: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """Canonical optimal task->agent map and its uniqueness flag.

    The map is the lexicographically smallest optimum in (task, agent) order;
    a unique optimum is that one already, so only ties run the search. Returns
    None when no matching covers every task.
    """
    res = solve_dense(mat)
    if res is None:
        return None
    opt_cost, base = res
    if unique_optimum(mat, base):
        return base, True
    return canonical_assignment(mat, base, opt_cost), False


def canonical_assignment(mat: np.ndarray, base_map: np.ndarray, opt_cost: float) -> np.ndarray:
    """Lexicographically smallest optimal matching in (task, agent) order.

    A matching counts as optimal within `tie_tol(mat)` of `opt_cost`. `base_map`
    must be an optimal task->agent map achieving `opt_cost`; it is
    rewritten as tasks are pinned so that most tasks adopt its agent without
    an extra solve.
    """
    num_agents, num_tasks = mat.shape
    tol = tie_tol(mat)
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
