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

`ExchangeKernel` runs that pass on weights in a matching's row order: the
holders of tasks 0..n-1 first, then the free agents in ascending order
(`row_order`). In that order the matching is the diagonal, so the kernel
holds no per-matching index tables: it is built once per shape, and every
gather and scatter of a pass is a slice or a strided view of its buffers.
A leading batch axis runs the pass for B weight matrices at once, each with
its own matching, with the values that B one-matrix kernels give. The
critical search writes every pass's weights straight into one kernel's
buffer and puts its answer back into agent order once, at the end;
`perturb.is_critical` calls one kernel for both of its passes, and
`sens_dense` is the one-off form. `unique_optima` turns a kernel's values
into flags, one per matrix: whether the matching is the strictly unique
optimum, for any matching, optimal or not. The flags do not depend on the
order of the rows, so they never go back to agent order.

A sensitivity is infinite exactly where every full matching uses the edge,
or none does. So the mask of infinities depends on the edge set alone, not
on the weights or on which full matching the pass runs for: `certify_exact`
takes its fixed edges from it.

Costs tie within `tie_tol`, TIE_RTOL * tasks * max|w|: rounding in a sum of
n weights grows with n * max|w| (Higham, Accuracy and Stability of Numerical
Algorithms, 4.2). Every tie and optimality decision takes its tolerance here.

`solve_canonical` is the whole solve on one matrix: `solve_dense`, the
uniqueness test from a one-off kernel (`unique_optimum`), and
`canonical_assignment` only when the optimum is tied. `core.solve_lap` wraps
it for instances.
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


def row_order(task_to_agent: np.ndarray, num_agents: int) -> np.ndarray:
    """The agents of each matching in row order: the holders of tasks 0..n-1, then the free ones.

    Free agents come in ascending order. `task_to_agent` is one map of shape
    (tasks,) or a stack of shape (B, tasks), and so is the order, with one
    entry per agent.
    """
    pi = np.asarray(task_to_agent, dtype=np.intp)
    if pi.shape[-1] == num_agents:
        return pi
    free = np.ones(pi.shape[:-1] + (num_agents,), dtype=bool)
    np.put_along_axis(free, pi, False, axis=-1)
    return np.concatenate([pi, np.nonzero(free)[-1].reshape(pi.shape[:-1] + (-1,))], axis=-1)


class ExchangeKernel:
    """The exchange-graph pass of any matchings, on weights in their row order, for one shape.

    Built once per shape: (agents, tasks) for one matrix, (B, agents, tasks)
    for a stack. `weights` is the input buffer, agents as rows in each
    matching's `row_order`: row t holds the agent of task t, and the free
    agents follow. In that order each matching is the diagonal, so every
    gather and scatter of the pass is a slice or a strided view of buffers
    built here. Calling the kernel runs the pass on `weights` and returns
    the output buffer, in the same order and overwritten by the next call:
    assigned edges (the diagonal, also `assigned`) give
    `flipped_cost - base_cost` (>= 0 at an optimum), unassigned edges give
    `base_cost - flipped_cost` (<= 0). Entries are +/-inf where the flip is
    infeasible; at non-edges they are -inf or NaN. `load` and
    `sensitivities` convert from and to agent order. One kernel must not be
    called from two threads at once.

    On the exchange graph (module docstring), blocking task t's edge costs the
    cheapest cycle through node t. Forcing agent a onto task j costs
    `W[a, j] - W[a, s]` plus the shortest path j->s when a holds task s, and
    `W[a, j]` plus the shortest path j->Z when a is free. Every slice of a
    stack runs the same arithmetic as a kernel of one matrix, so its values
    are bit for bit those of that kernel.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.weights, self.out = weights, out = np.empty(shape), np.empty(shape)
        *batch, num_agents, n = shape
        size = n + (num_agents > n)  # nodes: n tasks, and Z = n when some agent is free
        graph, dist, sums = (np.empty((*batch, size, size)) for _ in range(3))
        cycles = np.empty((*batch, n, size))

        def diagonal(a, count):  # a[..., t, t] for t < count, as a view
            return a.reshape(*batch, -1)[..., : count * a.shape[-1] : a.shape[-1] + 1]

        held = diagonal(weights, n)
        graph_diagonal, dist_diagonal = diagonal(graph, size), diagonal(dist, size)
        self.assigned = assigned = diagonal(out, n)
        held_rows, held_col, graph_tasks = weights[..., :n, :], held[..., None], graph[..., :n, :n]
        steps = [(dist[..., :, k, None], dist[..., None, k, :]) for k in range(size)]
        # cycles[..., t, u] = graph[..., t, u] + dist[..., u, t]; the held
        # agents' unassigned sensitivities negate its first n columns.
        graph_held, dist_back = graph[..., :n, :], dist[..., :n].swapaxes(-1, -2)
        cycles_tasks, out_held = cycles[..., :n], out[..., :n, :]
        free_rows, out_free = weights[..., n:, :], out[..., n:, :]
        if size > n:
            to_z, from_z, dist_z = graph[..., :n, n], graph[..., n, :n], dist[..., None, :n, n]
        add, subtract, minimum = np.add, np.subtract, np.minimum

        def run() -> np.ndarray:
            subtract(held_rows, held_col, out=graph_tasks)
            if size > n:
                # Not np.negative: numpy 2.4.6 negates a 64-byte-strided
                # input wrongly into a non-contiguous output, and 7 tasks give
                # `held` that stride. Subtracting from -0.0 negates bit for bit.
                subtract(-0.0, held, out=to_z)
                minimum.reduce(free_rows, axis=-2, out=from_z)
            graph_diagonal.fill(np.inf)
            np.copyto(dist, graph)
            dist_diagonal.fill(0.0)
            for col, row in steps:  # Floyd-Warshall, one min-plus step per node
                add(col, row, out=sums)
                minimum(dist, sums, out=dist)
            add(graph_held, dist_back, out=cycles)
            # Subtracting from 0.0 rather than negating keeps an exact tie at +0.0.
            subtract(0.0, cycles_tasks, out=out_held)
            minimum.reduce(cycles, axis=-1, out=assigned)
            if size > n:
                add(free_rows, dist_z, out=out_free)
                subtract(0.0, out_free, out=out_free)
            return out

        # Without tasks the output is empty, and a 0 x 0 shape has no node to reduce over.
        self._pass = run if n else lambda: out

    def __call__(self) -> np.ndarray:
        return self._pass()

    def load(self, mat: np.ndarray, task_to_agent: np.ndarray) -> None:
        """Put `mat`, agents as rows, into `weights` in the row order of the matchings.

        `task_to_agent` holds one map per matrix; their `row_order` becomes
        `order`, and `rows` indexes the rows of `mat` that the rows of
        `weights` hold.
        """
        order = self.order = row_order(task_to_agent, mat.shape[-2])
        self.rows = (order,) if order.ndim == 1 else (np.arange(len(order))[:, None], order)
        self.weights[...] = mat[self.rows]

    def sensitivities(self, mat: np.ndarray, task_to_agent: np.ndarray) -> np.ndarray:
        """The pass on `mat`, agents as rows, for the matchings `task_to_agent`.

        Returns a new array of `mat`'s shape, agents as rows, NaN where `mat`
        is not finite. It leaves `mat` in `weights`, in row order `order`.
        """
        self.load(mat, task_to_agent)
        sens = np.empty(mat.shape)
        sens[self.rows] = self()
        np.copyto(sens, np.nan, where=~np.isfinite(mat))
        return sens


def sens_dense(mat: np.ndarray, task_to_agent: np.ndarray) -> np.ndarray:
    """Element-wise sensitivities of every edge relative to the given matching.

    `ExchangeKernel.sensitivities` from a one-off kernel; see there for the values.
    """
    return ExchangeKernel(mat.shape).sensitivities(mat, task_to_agent)


def unique_optima(kernel: ExchangeKernel, mat: np.ndarray, maps: np.ndarray, tol) -> np.ndarray:
    """Whether each matching is the strictly unique optimum of its weights.

    True where every assigned edge's sensitivity is positive and every
    single-edge flip moves the matching's cost by more than `tol`, the
    matrix's `tie_tol`. The first condition makes the matching optimal: a
    matching that is not has a negative cycle, and so a negative assigned
    sensitivity. So the answer holds for any matching, and a True one is
    what any solve returns. `mat` has the kernel's shape, one matrix or a
    stack, with one task->agent map per matrix in `maps`, and gives one
    flag per matrix; a stack takes one tolerance per matrix. The flags do
    not depend on the order of the rows, so they are read in row order,
    where a non-edge is never tied. On weights near the largest float, a
    path sum that overflows reads as inf.
    """
    kernel.load(mat, maps)
    tied = np.abs(kernel()) <= np.asarray(tol)[..., None, None]
    return (kernel.assigned > 0).all(axis=-1) & ~tied.any(axis=(-2, -1))


def unique_optimum(mat: np.ndarray, task_to_agent: np.ndarray) -> bool:
    """`unique_optima` of a one-off kernel for one matrix."""
    return bool(unique_optima(ExchangeKernel(mat.shape), mat, task_to_agent, tie_tol(mat)))


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
