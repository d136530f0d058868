"""Perturbation robustness analysis for assignment instances.

The central question: how far can individual edge weights drift before the
optimal assignment changes? Everything here is phrased relative to a fixed
reference optimum of a fixed instance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _solver
from .core import Assignment, BipartiteInstance, Edge, _pi_array
from .errors import DegenerateOptimumError, ShapeMismatchError

DEFAULT_SATURATION_CAP = 1e9
DEFAULT_MAX_ITERS = 10_000
RELATIVE_STOP_TOL = 1e-6


def _set_edge_map(obj, name: str, convert, valid, message: str) -> dict:
    """Store field `name` of frozen `obj` as a dict keyed by int edge pairs; returns it.

    Each value goes through `convert`; a result `v` that `valid` rejects raises
    ValueError with `message`, formatted with `edge`, the given `value` and `v`.
    """
    cleaned = {}
    for edge, value in dict(getattr(obj, name)).items():
        v = convert(value)
        if not valid(v):
            raise ValueError(message.format(edge=edge, value=value, v=v))
        cleaned[(int(edge[0]), int(edge[1]))] = v
    object.__setattr__(obj, name, cleaned)
    return cleaned


def _interval(value) -> tuple[float, float]:
    lo, hi = value
    return float(lo), float(hi)


@dataclass(frozen=True)
class SensitivityMatrix:
    """Per-edge cost increase of flipping that edge's membership.

    Values are >= 0 on assigned edges and <= 0 on unassigned edges when the
    reference assignment is optimal; +/-inf marks an infeasible flip.
    """

    values: Mapping[Edge, float]

    def __post_init__(self):
        _set_edge_map(
            self, "values", float, lambda v: not math.isnan(v), "sensitivity for edge {edge} is NaN"
        )


@dataclass(frozen=True)
class Perturbation:
    """An additive shift of edge weights, defined on exactly one edge set.

    `saturated` records edges whose value stands in for an unbounded
    sensitivity and is therefore a capped placeholder, not a tight budget.
    """

    deltas: Mapping[Edge, float]
    saturated: frozenset[Edge] = frozenset()

    def __post_init__(self):
        cleaned = _set_edge_map(
            self, "deltas", float, math.isfinite,
            "delta for edge {edge} must be finite, got {value}",
        )
        sat = frozenset((int(a), int(b)) for a, b in self.saturated)
        if not sat <= set(cleaned):
            raise ValueError("saturated edges must belong to the perturbation")
        object.__setattr__(self, "saturated", sat)

    @classmethod
    def zeros(cls, edges) -> "Perturbation":
        return cls({(int(a), int(b)): 0.0 for a, b in edges})


@dataclass(frozen=True)
class IntervalTable:
    """Per-edge weight-shift intervals [lower, upper] that keep the optimum.

    Assigned edges get (-inf, delta], unassigned edges [delta, +inf); an
    edge with unbounded sensitivity gets the full line.
    """

    intervals: Mapping[Edge, tuple[float, float]]

    def __post_init__(self):
        # lo <= hi fails on NaN too.
        _set_edge_map(
            self, "intervals", _interval, lambda v: v[0] <= v[1],
            "bad interval for edge {edge}: [{v[0]}, {v[1]}]",
        )


@dataclass(frozen=True)
class TraceStep:
    """One iterate of the critical search."""

    perturbation: Perturbation
    residual: float


@dataclass(frozen=True)
class CriticalSearchReport:
    """Outcome of the iterative critical-perturbation search.

    The perturbation is allowable whether or not the search converged;
    `residual` is the largest remaining absolute finite sensitivity.
    `sensitivities` are those of the unperturbed instance, where the search
    started.
    """

    perturbation: Perturbation
    iterations: int
    residual: float
    converged: bool
    trace: tuple[TraceStep, ...] | None = None
    sensitivities: SensitivityMatrix | None = None


@dataclass(frozen=True)
class ErrorBounds:
    """Per-edge non-negative bounds on measurement error magnitude."""

    bounds: Mapping[Edge, float]

    def __post_init__(self):
        _set_edge_map(
            self, "bounds", float, lambda v: math.isfinite(v) and v >= 0,
            "bound for edge {edge} must be finite and >= 0",
        )

    @classmethod
    def uniform(cls, edges, value: float) -> "ErrorBounds":
        return cls({(int(a), int(b)): float(value) for a, b in edges})


def _perturbed_dense(instance: BipartiteInstance, pert: Perturbation) -> np.ndarray:
    """Dense weights of instance + perturbation; edge sets must match exactly."""
    if set(pert.deltas) != instance.edges:
        raise ShapeMismatchError("perturbation is not defined on exactly the edge set")
    mat = instance.dense()
    for (a, b), d in pert.deltas.items():
        mat[a, b] += d
    return mat


def _stays_optimal(mat: np.ndarray, pi: np.ndarray, tol: float) -> bool:
    """Whether matching `pi` costs within `tol` of the optimal cost of `mat`.

    `pi` is a matching of `mat`, so the solve fails only when every
    matching's cost overflows; that raises ValueError.
    """
    base = float(mat[pi, np.arange(len(pi))].sum()) if len(pi) else 0.0
    res = _solver.solve_dense(mat)
    if res is None:
        raise ValueError("optimal cost of the perturbed weights must be finite, got inf")
    return bool(base <= res[0] + tol)


def _check_optimum(
    mat: np.ndarray, pi: np.ndarray, sens: np.ndarray, allow_degenerate: bool
) -> None:
    """Raise ValueError unless `pi` is an optimum of `mat`, with dense sensitivities `sens`.

    Unless `allow_degenerate` is set, also raise DegenerateOptimumError,
    naming the first edge in row-major order, when some flip moves the cost
    by `_solver.tie_tol` or less.
    """
    tol = _solver.tie_tol(mat)
    if (sens[pi, np.arange(len(pi))] < -tol).any():
        raise ValueError("the reference assignment is not an optimum of the instance")
    if not allow_degenerate:
        tied = np.argwhere(np.abs(sens) <= tol)
        if len(tied):
            edge = (int(tied[0, 0]), int(tied[0, 1]))
            raise DegenerateOptimumError(
                f"optimum is not unique: flipping edge {edge} does not change the cost"
            )


def elementwise_sensitivities(
    instance: BipartiteInstance,
    optimum: Assignment,
    *,
    allow_degenerate: bool = False,
) -> SensitivityMatrix:
    """Sensitivity of every edge: the cost increase of flipping its membership.

    For an assigned edge this is the optimal cost with the edge blocked minus
    the optimal cost; for an unassigned edge, the optimal cost minus the
    optimal cost with the edge forced. Infeasible flips yield +/-inf rather
    than an error. Raises DegenerateOptimumError when some sensitivity is
    (numerically) zero, i.e. the optimum is not unique, unless
    `allow_degenerate` is set.

    Every value comes from one shortest-path pass over the optimum's exchange
    graph (see `_solver`); neither an edge nor the optimality check solves.
    """
    pi = _pi_array(instance, optimum)
    dense = _solver.sens_dense(instance._dense, pi)
    _check_optimum(instance._dense, pi, dense, allow_degenerate)
    return SensitivityMatrix({(a, b): float(dense[a, b]) for a, b in instance.sorted_edges()})


def divided_bound(sens: SensitivityMatrix, num_tasks: int) -> Perturbation:
    """A jointly-allowable perturbation: each sensitivity divided by 2N.

    N is the number of tasks (the matching size). Shifting every edge by its
    share simultaneously provably keeps the reference optimum optimal.
    Infinite sensitivities take the placeholder +/-DEFAULT_SATURATION_CAP/2N,
    which does not scale with the weights, and are flagged in the result.
    """
    if sens.values and num_tasks < 1:
        raise ValueError("num_tasks must be at least 1")
    deltas: dict[Edge, float] = {}
    saturated = set()
    for edge, s in sens.values.items():
        if math.isinf(s):
            saturated.add(edge)
            s = math.copysign(DEFAULT_SATURATION_CAP, s)
        deltas[edge] = s / (2.0 * num_tasks)
    return Perturbation(deltas, frozenset(saturated))


def halfspace_intervals(pert: Perturbation, optimum: Assignment) -> IntervalTable:
    """One-sided invariance intervals extending an allowable perturbation.

    Pushing an assigned edge's weight further down, or an unassigned edge's
    further up, can only reinforce the optimum, so each allowable delta
    extends to a half-line. Saturated edges get the full line.
    """
    assigned = optimum.assigned_edges()
    if not assigned <= set(pert.deltas):
        raise ShapeMismatchError("assignment uses edges outside the perturbation")
    table: dict[Edge, tuple[float, float]] = {}
    for edge, d in pert.deltas.items():
        if edge in pert.saturated:
            table[edge] = (-math.inf, math.inf)
        elif edge in assigned:
            table[edge] = (-math.inf, d)
        else:
            table[edge] = (d, math.inf)
    return IntervalTable(table)


@np.errstate(over="ignore")
def verify_allowable(
    instance: BipartiteInstance,
    optimum: Assignment,
    pert: Perturbation,
) -> bool:
    """Whether the optimum stays optimal after applying the perturbation.

    Checks membership in the perturbed instance's optimum set (cost within
    `_solver.tie_tol` of the perturbed optimal cost), not uniqueness.
    """
    mat = _perturbed_dense(instance, pert)
    return _stays_optimal(mat, _pi_array(instance, optimum), _solver.tie_tol(mat))


def default_stop_tol(sens: np.ndarray, mat: np.ndarray) -> float:
    """The critical search's stop tolerance on weights `mat`, from their dense sensitivities `sens`.

    Scaled to the largest finite sensitivity, never below the tie tolerance.
    """
    return max(RELATIVE_STOP_TOL * _solver.finite_max(sens), _solver.tie_tol(mat))


def _residual(sens: np.ndarray, finite: np.ndarray) -> float:
    """Largest finite |sensitivity| of dense `sens`, whose mask of finite values is `finite`.

    Inf when `sens` holds values but none is finite: no search pass moves them.
    """
    residual = float(np.maximum.reduce(np.abs(sens), None, where=finite, initial=-math.inf))
    if residual < 0:  # no finite value
        return math.inf if sens.size else 0.0
    return residual


def _search_start(
    mat: np.ndarray, pi: np.ndarray
) -> tuple[_solver.ExchangeKernel, np.ndarray, float]:
    """The critical search's start from optimum `pi` of `mat`, on arrays.

    Returns an exchange kernel of `mat`'s shape that holds `mat` in `pi`'s
    row order (its `order`), the dense sensitivities of `mat` and the
    default stop tolerance. Raises ValueError when `pi` is not an optimum of
    `mat` and DegenerateOptimumError when it is tied.
    """
    kernel = _solver.ExchangeKernel(mat.shape)
    sens = kernel.sensitivities(mat, pi)
    _check_optimum(mat, pi, sens, allow_degenerate=False)
    return kernel, sens, default_stop_tol(sens, mat)


def _search(
    kernel: _solver.ExchangeKernel,
    sens: np.ndarray,
    tol: float,
    max_iters: int,
    *,
    lock: tuple[np.ndarray, np.ndarray] | None = None,
    trace: list | None = None,
) -> tuple[np.ndarray, int, float, bool]:
    """The passes of the critical search on arrays, all in the kernel's row order.

    `kernel` holds the weights in row order `kernel.order`, as
    `_search_start` leaves it, and `sens` is their dense sensitivities, in
    agent order. Returns the dense deltas of the last iterate in row order
    (0 at non-edges), the number of passes, the residual and whether the
    search stopped at a certifying iterate. With `lock`, a pair (sign,
    floor) as `_clearance` takes it, in row order, the search stops at the
    first iterate whose every edge clears its bound by more than `tol`,
    before the pass that would evaluate it; the residual returned then is
    that of the iterate before. `trace`, a list, gets a copy of each
    iterate's deltas, in row order, and its residual.
    """
    # A flip's feasibility depends on the edge set alone, so `finite` holds on
    # every pass, and saturated edges keep their placeholder throughout. It
    # holds no non-edge, so the kernel's -inf or NaN there is never read.
    sens = sens[kernel.order]
    finite = np.isfinite(sens)
    two_n = 2.0 * sens.shape[1]
    delta = np.where(np.isinf(sens), np.copysign(DEFAULT_SATURATION_CAP / two_n, sens), 0.0)
    residual = _residual(sens, finite)
    base = kernel.weights.copy()
    iterations = 0
    while residual > tol and iterations < max_iters:
        np.add(delta, sens / two_n, out=delta, where=finite)
        if lock is not None and (_clearance(delta, *lock) > tol).all():
            return delta, iterations + 1, residual, True
        np.add(base, delta, out=kernel.weights)
        sens = kernel()
        residual = _residual(sens, finite)
        iterations += 1
        if trace is not None:
            trace.append((delta.copy(), residual))
        if math.isinf(residual):
            break  # no edge moves, so every later pass repeats this one
    return delta, iterations, residual, False


def critical_search(
    instance: BipartiteInstance,
    optimum: Assignment,
    *,
    max_iters: int = DEFAULT_MAX_ITERS,
    keep_trace: bool = False,
) -> CriticalSearchReport:
    """Iterate divided bounds to approach the critical perturbation.

    Each pass adds the finite sensitivities divided by 2N to the running
    perturbation and re-evaluates; every iterate is allowable, so stopping
    anywhere is sound. Stops when the residual, the largest absolute finite
    sensitivity, falls to the stop tolerance, `default_stop_tol`, or after
    `max_iters` passes (`converged=False`). Edges with unbounded
    sensitivity hold `divided_bound`'s placeholder throughout and are flagged
    saturated; with no finite sensitivity the residual is infinite and the
    search stops after one pass. Scaling every weight by a power of two
    scales the residuals and every other delta exactly.

    Each pass shrinks the residual by a factor of at most 1 - 1/2N, up to
    rounding: on 2,811 random integer grids (1 to 4 tasks, up to 2 extra
    agents, missing and saturated edges) the largest ratio to that bound was
    1 + 3.3e-9, and it was reached. So a search takes about 2N * ln(r0 / tol)
    passes under the stop tolerance tol, about 27.6N.

    Deltas only move away from zero: assigned edges go up and unassigned
    edges go down, because every iterate is allowable, so its sensitivities
    keep their signs. Rounding can move a delta the wrong way by a hair: on
    400 random instances (2 to 7 tasks, up to 2 extra agents, weights uniform
    in [1, 100]), 16,413 of 1.69 M moves did, all by at most 1.42e-14. So
    once an iterate clears per-edge bounds by more than the stop tolerance,
    the converged perturbation clears them too. The certified simulation
    (`_certify_critical`) uses this to stop at the first iterate that
    certifies; this function always runs to the end.

    One `_solver.ExchangeKernel`, built for the instance's shape, runs every
    pass on the weights in the optimum's row order (`_search_start`), and
    the deltas return to agent order at the end. The reference optimum must
    be unique (DegenerateOptimumError otherwise).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    kernel, sens, tol = _search_start(instance._dense, _pi_array(instance, optimum))
    edges = instance.sorted_edges()
    sens0 = SensitivityMatrix({e: float(sens[e]) for e in edges})
    trace = [] if keep_trace else None
    delta, iterations, residual, _ = _search(kernel, sens, tol, max_iters, trace=trace)
    saturated = frozenset(e for e, v in sens0.values.items() if math.isinf(v))
    row_of = np.argsort(kernel.order)  # each agent's row in the search's order

    def perturbation(rows: np.ndarray) -> Perturbation:
        return Perturbation({(a, b): float(rows[row_of[a], b]) for a, b in edges}, saturated)

    return CriticalSearchReport(
        perturbation(delta),
        iterations,
        residual,
        residual <= tol,
        tuple(TraceStep(perturbation(d), r) for d, r in trace) if keep_trace else None,
        sens0,
    )


def is_critical(
    instance: BipartiteInstance,
    optimum: Assignment,
    pert: Perturbation,
) -> bool:
    """Whether the perturbed instance sits at the invariance boundary.

    True when every finite element-wise sensitivity of the shifted weights is
    zero within critical_search's stop tolerance, `default_stop_tol` of the
    unperturbed weights. Infeasible flips are skipped, as in critical_search's
    residual; with edges but no feasible flip the answer is False.
    """
    mat, pi = instance._dense, _pi_array(instance, optimum)
    kernel = _solver.ExchangeKernel(mat.shape)
    tol = default_stop_tol(kernel.sensitivities(mat, pi), mat)
    sens = kernel.sensitivities(_perturbed_dense(instance, pert), pi)
    return bool(_residual(sens, np.isfinite(sens)) <= tol)


def certify_optimal(
    pert: Perturbation, optimum: Assignment, eps: ErrorBounds
) -> bool:
    """Whether bounded measurement error cannot have hidden a better optimum.

    `pert` must be an allowable perturbation of the measured instance and
    `eps` the per-edge error magnitude bounds, on the same edge set. True
    when every assigned edge tolerates at least +eps of upward shift and
    every unassigned edge at least -eps of downward shift; the measured
    optimum is then also optimal for the true weights.
    """
    if set(pert.deltas) != set(eps.bounds):
        raise ShapeMismatchError("perturbation and error bounds cover different edges")
    assigned = optimum.assigned_edges()
    if not assigned <= set(pert.deltas):
        raise ShapeMismatchError("assignment uses edges outside the perturbation")
    for edge, d in pert.deltas.items():
        bound = eps.bounds[edge]
        if edge in assigned:
            if not bound <= d:
                return False
        elif not d <= -bound:
            return False
    return True


def _clearance(delta: np.ndarray, sign: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """How far each delta clears its bound in `certify_optimal`'s test, on arrays.

    `sign` is +1 on assigned edges and -1 on unassigned ones, and `floor` the
    bound on edges and -inf at non-edges. An edge passes the test where its
    clearance is >= 0, since `d - b >= 0` exactly when `d >= b`.
    """
    return delta * sign - floor


def _certify_critical(mat: np.ndarray, pi: np.ndarray, bound) -> bool:
    """`certify_optimal` on the critical perturbation of optimum `pi`, on arrays.

    The certified simulation's lock test. `bound` is the error bound, a
    scalar or a dense array. The search is `critical_search`'s with its
    defaults, from the same `_search_start`, but it stops at the first
    iterate that clears every bound by more than the stop tolerance, since
    the converged perturbation clears them too (see `critical_search`). A
    search that never gets there runs to its end and the test decides on its
    last iterate, which is allowable whether or not it converged. A tied
    optimum gets the zero perturbation, which certifies only zero bounds.
    Raises ValueError when `pi` is not an optimum of `mat`.
    """
    edge = np.isfinite(mat)
    sign = np.where(edge, -1.0, 0.0)
    sign[pi, np.arange(len(pi))] = 1.0
    floor = np.where(edge, bound, -np.inf)
    try:
        kernel, sens, tol = _search_start(mat, pi)
    except DegenerateOptimumError:
        return bool((floor <= 0).all())  # what the zero perturbation clears
    # The test is edge by edge, so it runs in the search's row order.
    sign, floor = sign[kernel.order], floor[kernel.order]
    delta, _, _, locked = _search(kernel, sens, tol, DEFAULT_MAX_ITERS, lock=(sign, floor))
    return locked or bool((_clearance(delta, sign, floor) >= 0).all())


def _certify_exact(mat: np.ndarray, pi: np.ndarray, bound, fixed: np.ndarray, scale) -> bool:
    """`certify_exact` on arrays.

    `bound` is a scalar or a dense array, `fixed` the mask of the edges whose
    sensitivity is infinite (see `_solver`) and `scale` that of the tie rule.
    """
    shift = np.negative(bound, out=np.empty(mat.shape))
    shift[pi, np.arange(len(pi))] *= -1.0
    shift[fixed] = 0.0
    return _stays_optimal(mat + shift, pi, _solver.tie_tol(mat, scale))


@np.errstate(over="ignore")
def certify_exact(instance: BipartiteInstance, optimum: Assignment, eps: ErrorBounds) -> bool:
    """Whether the optimum stays optimal for every weight within the error bounds.

    Decides exactly, with one solve on the optimum's worst case: its own edges
    raised by eps and every other edge lowered by eps (the "necessarily
    optimal" test for interval data). True when the optimum's worst-case cost
    ties with that instance's optimal cost: `_solver.tie_tol`, on the largest
    |weight| plus the largest bound off the fixed edges. Edges that every full
    matching uses, or that none does, keep their weight: an error on them
    moves every matching's cost alike, and kept out of the sums, a large
    bound on them (such as a saturated budget) cannot swamp the comparison.
    `certify_optimal` with any allowable perturbation accepts only where this
    test accepts, as long as the rounding in sums of the weights and the
    remaining bounds stays below that tolerance.
    """
    if set(eps.bounds) != instance.edges:
        raise ShapeMismatchError("error bounds are not defined on exactly the edge set")
    mat = instance._dense
    pi = _pi_array(instance, optimum)
    bound = np.zeros(mat.shape)
    for edge, value in eps.bounds.items():
        bound[edge] = value
    fixed = np.isinf(_solver.sens_dense(mat, pi))
    scale = _solver.finite_max(mat) + bound.max(where=~fixed, initial=0.0)
    return _certify_exact(mat, pi, bound, fixed, scale)
