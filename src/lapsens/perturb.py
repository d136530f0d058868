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
from .core import COST_TOL, Assignment, BipartiteInstance, Edge, _pi_array
from .errors import DegenerateOptimumError, ShapeMismatchError

DEFAULT_SATURATION_CAP = 1e9
DEFAULT_MAX_ITERS = 10_000
RELATIVE_STOP_TOL = 1e-6
ABSOLUTE_STOP_FLOOR = 1e-9


@dataclass(frozen=True)
class SensitivityMatrix:
    """Per-edge cost increase of flipping that edge's membership.

    Values are >= 0 on assigned edges and <= 0 on unassigned edges when the
    reference assignment is optimal; +/-inf marks an infeasible flip.
    """

    values: Mapping[Edge, float]

    def __post_init__(self):
        cleaned = {}
        for edge, value in dict(self.values).items():
            v = float(value)
            if math.isnan(v):
                raise ValueError(f"sensitivity for edge {edge} is NaN")
            cleaned[(int(edge[0]), int(edge[1]))] = v
        object.__setattr__(self, "values", cleaned)

    def finite_scale(self) -> float:
        """Largest finite absolute sensitivity, or 0 when there is none."""
        finite = [abs(v) for v in self.values.values() if math.isfinite(v)]
        return max(finite, default=0.0)


@dataclass(frozen=True)
class Perturbation:
    """An additive shift of edge weights, defined on exactly one edge set.

    `saturated` records edges whose value stands in for an unbounded
    sensitivity and is therefore a capped placeholder, not a tight budget.
    """

    deltas: Mapping[Edge, float]
    saturated: frozenset[Edge] = frozenset()

    def __post_init__(self):
        cleaned = {}
        for edge, value in dict(self.deltas).items():
            v = float(value)
            if not math.isfinite(v):
                raise ValueError(f"delta for edge {edge} must be finite, got {value}")
            cleaned[(int(edge[0]), int(edge[1]))] = v
        object.__setattr__(self, "deltas", cleaned)
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
        cleaned = {}
        for edge, (lo, hi) in dict(self.intervals).items():
            lo, hi = float(lo), float(hi)
            if math.isnan(lo) or math.isnan(hi) or lo > hi:
                raise ValueError(f"bad interval for edge {edge}: [{lo}, {hi}]")
            cleaned[(int(edge[0]), int(edge[1]))] = (lo, hi)
        object.__setattr__(self, "intervals", cleaned)


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
    """

    perturbation: Perturbation
    iterations: int
    residual: float
    converged: bool
    trace: tuple[TraceStep, ...] | None = None


@dataclass(frozen=True)
class ErrorBounds:
    """Per-edge non-negative bounds on measurement error magnitude."""

    bounds: Mapping[Edge, float]

    def __post_init__(self):
        cleaned = {}
        for edge, value in dict(self.bounds).items():
            v = float(value)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"bound for edge {edge} must be finite and >= 0")
            cleaned[(int(edge[0]), int(edge[1]))] = v
        object.__setattr__(self, "bounds", cleaned)

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


def _sens_values(mat: np.ndarray, pi: np.ndarray, edges) -> dict[Edge, float]:
    dense = _solver.sens_dense(mat, pi)
    return {(a, b): float(dense[a, b]) for a, b in edges}


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
    graph (see `_solver`); no edge needs a solve of its own.
    """
    pi = _pi_array(instance, optimum)
    base = float(instance._dense[pi, np.arange(instance.num_tasks)].sum()) if len(pi) else 0.0
    res = _solver.solve_dense(instance._dense)
    if res is None or base > res[0] + COST_TOL:
        raise ValueError("the reference assignment is not an optimum of the instance")
    values = _sens_values(instance._dense, pi, instance.sorted_edges())
    if not allow_degenerate:
        for edge, v in values.items():
            if abs(v) <= COST_TOL:
                raise DegenerateOptimumError(
                    f"optimum is not unique: flipping edge {edge} does not change the cost"
                )
    return SensitivityMatrix(values)


def divided_bound(
    sens: SensitivityMatrix,
    num_tasks: int,
    *,
    saturation_cap: float = DEFAULT_SATURATION_CAP,
) -> Perturbation:
    """A jointly-allowable perturbation: each sensitivity divided by 2N.

    N is the number of tasks (the matching size). Shifting every edge by its
    share simultaneously provably keeps the reference optimum optimal.
    Infinite sensitivities saturate to +/-saturation_cap before scaling and
    are flagged in the result.
    """
    if sens.values and num_tasks < 1:
        raise ValueError("num_tasks must be at least 1")
    deltas: dict[Edge, float] = {}
    saturated = set()
    for edge, s in sens.values.items():
        if math.isinf(s):
            saturated.add(edge)
            s = math.copysign(saturation_cap, s)
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


def verify_allowable(
    instance: BipartiteInstance,
    optimum: Assignment,
    pert: Perturbation,
    *,
    tol: float = COST_TOL,
) -> bool:
    """Whether the optimum stays optimal after applying the perturbation.

    Checks membership in the perturbed instance's optimum set (cost within
    `tol` of the perturbed optimal cost), not uniqueness.
    """
    mat = _perturbed_dense(instance, pert)
    pi = _pi_array(instance, optimum)
    base = float(mat[pi, np.arange(instance.num_tasks)].sum()) if len(pi) else 0.0
    res = _solver.solve_dense(mat)
    if res is None:
        raise ValueError("the reference assignment is not a matching of the instance")
    return base <= res[0] + tol


def default_stop_tol(sens: SensitivityMatrix) -> float:
    """Convergence tolerance scaled to the instance's finite sensitivities."""
    return max(RELATIVE_STOP_TOL * sens.finite_scale(), ABSOLUTE_STOP_FLOOR)


def critical_search(
    instance: BipartiteInstance,
    optimum: Assignment,
    stop_tol: float | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    *,
    saturation_cap: float = DEFAULT_SATURATION_CAP,
    keep_trace: bool = False,
) -> CriticalSearchReport:
    """Iterate divided bounds to approach the critical perturbation.

    Each pass adds the current sensitivities divided by 2N to the running
    perturbation and re-evaluates; the moves shrink geometrically and every
    iterate is allowable, so stopping anywhere is sound. Stops when the
    largest absolute sensitivity falls to `stop_tol` (default: scaled to the
    initial sensitivities) or after `max_iters` passes; hitting the cap
    simply returns `converged=False`. Edges with unbounded sensitivity take
    one capped step, are flagged saturated and then stay fixed; the residual
    covers the finite sensitivities only, and is infinite when there are none.

    The reference optimum must be unique (DegenerateOptimumError otherwise).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if stop_tol is not None and stop_tol <= 0:
        raise ValueError("stop_tol must be positive")
    sens0 = elementwise_sensitivities(instance, optimum)
    tol = stop_tol if stop_tol is not None else default_stop_tol(sens0)
    edges = instance.sorted_edges()
    saturated = frozenset(e for e, v in sens0.values.items() if math.isinf(v))

    mat = instance._dense
    pi = _pi_array(instance, optimum)
    edge_mask = np.isfinite(mat)
    shape = (instance.num_agents, instance.num_tasks)
    sens = np.full(shape, np.nan)
    for edge, v in sens0.values.items():
        sens[edge] = v
    # A flip's feasibility depends on the edge set alone, so `finite` holds on
    # every pass. With edges but no finite sensitivity the residual stays inf.
    finite = np.isfinite(sens)
    floor = math.inf if edges and not finite.any() else 0.0
    delta = np.zeros(shape)
    residual = float(np.abs(sens[finite]).max(initial=floor))
    two_n = 2.0 * instance.num_tasks
    moving = edge_mask
    iterations = 0
    trace: list[TraceStep] = []
    while residual > tol and iterations < max_iters:
        step = np.clip(sens, -saturation_cap, saturation_cap) / two_n
        delta = delta + np.where(moving, step, 0.0)
        moving = finite  # saturated edges take one capped step, then stay put
        sens = _solver.sens_dense(mat + delta, pi)
        residual = float(np.abs(sens[finite]).max(initial=floor))
        iterations += 1
        if keep_trace:
            trace.append(
                TraceStep(
                    Perturbation({e: float(delta[e]) for e in edges}, saturated),
                    residual,
                )
            )
    pert = Perturbation({e: float(delta[e]) for e in edges}, saturated)
    return CriticalSearchReport(
        pert,
        iterations,
        residual,
        residual <= tol,
        tuple(trace) if keep_trace else None,
    )


def is_critical(
    instance: BipartiteInstance,
    optimum: Assignment,
    pert: Perturbation,
    tol: float | None = None,
) -> bool:
    """Whether the perturbed instance sits at the invariance boundary.

    True when every element-wise sensitivity of the shifted weights is zero
    within `tol` (default: the same scaled tolerance critical_search uses).
    """
    pi = _pi_array(instance, optimum)
    if tol is None:
        tol = default_stop_tol(
            elementwise_sensitivities(instance, optimum, allow_degenerate=True)
        )
    mat = _perturbed_dense(instance, pert)
    values = _sens_values(mat, pi, instance.sorted_edges())
    return all(abs(v) <= tol for v in values.values())


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
