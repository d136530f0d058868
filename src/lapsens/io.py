"""Text formats: weight grids, perturbation grids, scenario files, reports.

Grid files are comma-separated rows (agents) of numeric tokens (tasks), with
`x` marking a missing edge. Blank lines and lines starting with `#` are
ignored. JSON encodings use the string tokens "inf" and "-inf" so that
every value round-trips losslessly.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping

from . import _solver
from .core import Assignment, BipartiteInstance, Edge, assignment_cost
from .errors import (
    DegenerateOptimumError,
    InfeasibleError,
    ParseError,
    ShapeError,
    ShapeMismatchError,
)
from .perturb import (
    DEFAULT_MAX_ITERS,
    ErrorBounds,
    IntervalTable,
    Perturbation,
    SensitivityMatrix,
    critical_search,
    divided_bound,
    halfspace_intervals,
)
from .sim import Scenario, SimLog, summarize

MISSING_TOKEN = "x"


def encode_number(value: float):
    """JSON-safe value: floats pass through, infinities become tokens."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def decode_number(value) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def format_number(value: float) -> str:
    """Shortest decimal string that parses back to exactly `value`."""
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return repr(float(value))


def _parse_grid(text: str) -> tuple[list[list[float | None]], list[int]]:
    """Parse a comma-separated grid; returns rows and their 1-based line numbers."""
    rows: list[list[float | None]] = []
    line_numbers: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row: list[float | None] = []
        for col, token in enumerate(stripped.split(","), 1):
            token = token.strip()
            if token.lower() == MISSING_TOKEN:
                row.append(None)
                continue
            try:
                value = float(token)
            except ValueError:
                raise ParseError(f"expected a number or 'x', got {token!r}", lineno, col) from None
            if not math.isfinite(value):
                raise ParseError(f"value must be finite, got {token!r}", lineno, col)
            row.append(value)
        rows.append(row)
        line_numbers.append(lineno)
    if not rows:
        raise ParseError("no data rows found", 1, 1)
    width = len(rows[0])
    for row, lineno in zip(rows, line_numbers):
        if len(row) != width:
            raise ShapeError(
                f"row has {len(row)} entries, expected {width}", lineno, 1
            )
    return rows, line_numbers


def parse_matrix(text: str) -> BipartiteInstance:
    """Parse a weight grid into an instance.

    Every column (task) must have at least one candidate agent; otherwise
    the instance is rejected as infeasible right away.
    """
    rows, _ = _parse_grid(text)
    num_tasks = len(rows[0])
    for b in range(num_tasks):
        if all(row[b] is None for row in rows):
            raise InfeasibleError(f"task {b} has no candidate agents")
    return BipartiteInstance.from_matrix(rows)


def format_grid(instance: BipartiteInstance, values: Mapping[Edge, float]) -> str:
    """Render per-edge values as a grid aligned with the instance; `x` where none."""
    lines = []
    for a in range(instance.num_agents):
        tokens = [
            format_number(values[(a, b)]) if (a, b) in values else MISSING_TOKEN
            for b in range(instance.num_tasks)
        ]
        lines.append(",".join(tokens))
    return "\n".join(lines) + "\n"


def format_matrix(instance: BipartiteInstance) -> str:
    """Render an instance as a grid that parse_matrix reads back exactly."""
    return format_grid(instance, instance.weights)


def parse_perturbation(text: str, instance: BipartiteInstance) -> Perturbation:
    """Parse a delta grid; its shape and edge pattern must match the instance."""
    rows, _ = _parse_grid(text)
    if (len(rows), len(rows[0])) != (instance.num_agents, instance.num_tasks):
        raise ShapeMismatchError(
            f"grid is {len(rows)}x{len(rows[0])}, instance is "
            f"{instance.num_agents}x{instance.num_tasks}"
        )
    deltas: dict[Edge, float] = {}
    for a, row in enumerate(rows):
        for b, value in enumerate(row):
            is_edge = (a, b) in instance.weights
            if value is None:
                if is_edge:
                    raise ShapeMismatchError(f"({a}, {b}) is an edge but has no delta")
                continue
            if not is_edge:
                raise ShapeMismatchError(f"({a}, {b}) is not an edge but has a delta")
            deltas[(a, b)] = value
    return Perturbation(deltas)


def parse_error_bounds(text: str, instance: BipartiteInstance) -> ErrorBounds:
    """Parse a grid of per-edge error bounds aligned with the instance."""
    pert = parse_perturbation(text, instance)
    return ErrorBounds(pert.deltas)


def format_perturbation(instance: BipartiteInstance, pert: Perturbation) -> str:
    """Render a perturbation as a grid aligned with the instance."""
    if set(pert.deltas) != instance.edges:
        raise ShapeMismatchError("perturbation is not defined on exactly the edge set")
    return format_grid(instance, pert.deltas)


_SCENARIO_REQUIRED = ("agent_positions", "target_positions", "speed", "noise_bound")
_SCENARIO_OPTIONAL = {"seed": 0, "max_steps": 500}


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario from JSON.

    Required keys: agent_positions, target_positions (lists of [x, y]),
    speed, noise_bound. Optional: seed (default 0), max_steps (default 500).
    Unknown keys are rejected to catch typos.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(data, dict):
        raise ParseError("scenario must be a JSON object", 1, 1)
    unknown = set(data) - set(_SCENARIO_REQUIRED) - set(_SCENARIO_OPTIONAL)
    if unknown:
        raise ParseError(f"unknown scenario keys: {sorted(unknown)}", 1, 1)
    missing = [k for k in _SCENARIO_REQUIRED if k not in data]
    if missing:
        raise ParseError(f"missing scenario keys: {missing}", 1, 1)
    # type(), not isinstance: JSON's true and false decode to bools, which are ints.
    for key in ("agent_positions", "target_positions"):
        points = data[key]
        if not isinstance(points, list) or not all(
            isinstance(p, list) and len(p) == 2 and {type(c) for c in p} <= {int, float}
            for p in points
        ):
            raise ParseError(f"{key} must be a list of [x, y] number pairs", 1, 1)
    for key in ("speed", "noise_bound"):
        if type(data[key]) not in (int, float):
            raise ParseError(f"{key} must be a number", 1, 1)
    values = {**_SCENARIO_OPTIONAL, **data}
    for key in _SCENARIO_OPTIONAL:
        if type(values[key]) is not int:
            raise ParseError(f"{key} must be an integer", 1, 1)
    # Accepted values go in unconverted: the repr of a Scenario shows them.
    return Scenario(
        agent_positions=tuple((p[0], p[1]) for p in data["agent_positions"]),
        target_positions=tuple((p[0], p[1]) for p in data["target_positions"]),
        speed=data["speed"],
        noise_bound=data["noise_bound"],
        seed=values["seed"],
        max_steps=values["max_steps"],
    )


def format_scenario(scenario: Scenario) -> str:
    return json.dumps(
        {
            "agent_positions": [list(p) for p in scenario.agent_positions],
            "target_positions": [list(p) for p in scenario.target_positions],
            "speed": scenario.speed,
            "noise_bound": scenario.noise_bound,
            "seed": scenario.seed,
            "max_steps": scenario.max_steps,
        },
        separators=(",", ":"),
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Full robustness analysis of one instance."""

    num_agents: int
    num_tasks: int
    assignment: Assignment
    cost: float
    unique: bool
    sensitivities: SensitivityMatrix
    divided: Perturbation
    critical: Perturbation
    critical_iterations: int
    critical_residual: float
    critical_converged: bool
    intervals: IntervalTable


def analyze(
    instance: BipartiteInstance,
    *,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> AnalysisReport:
    """Solve an instance and run the whole perturbation analysis on it.

    Requires a unique optimum (DegenerateOptimumError otherwise). The
    critical search's first pass is also the uniqueness test, so the
    optimum's exchange graph is solved once; a unique optimum is the one
    `solve_lap` returns. The interval table extends the converged critical
    perturbation.
    """
    res = _solver.solve_dense(instance._dense)
    if res is None:
        raise InfeasibleError("no assignment covers every task")
    assignment = Assignment(tuple(enumerate(res[1].tolist())))
    try:
        crit = critical_search(instance, assignment, max_iters=max_iters)
    except DegenerateOptimumError:
        raise DegenerateOptimumError("instance has multiple optimal assignments") from None
    sens = crit.sensitivities
    divided = divided_bound(sens, instance.num_tasks)
    intervals = halfspace_intervals(crit.perturbation, assignment)
    return AnalysisReport(
        num_agents=instance.num_agents,
        num_tasks=instance.num_tasks,
        assignment=assignment,
        cost=assignment_cost(instance, assignment),
        unique=True,
        sensitivities=sens,
        divided=divided,
        critical=crit.perturbation,
        critical_iterations=crit.iterations,
        critical_residual=crit.residual,
        critical_converged=crit.converged,
        intervals=intervals,
    )


def edge_values(mapping: Mapping[Edge, float]) -> list[list]:
    """JSON `[agent, task, value]` triples in edge order."""
    return [[a, b, encode_number(v)] for (a, b), v in sorted(mapping.items())]


def interval_values(table: IntervalTable) -> list[list]:
    """JSON `[agent, task, lower, upper]` rows in edge order."""
    return [
        [a, b, encode_number(lo), encode_number(hi)]
        for (a, b), (lo, hi) in sorted(table.intervals.items())
    ]


def perturbation_dict(pert: Perturbation) -> dict:
    """JSON fields `deltas` and `saturated` of a perturbation."""
    return {
        "deltas": edge_values(pert.deltas),
        "saturated": [list(e) for e in sorted(pert.saturated)],
    }


def _pert_from_dict(data: dict) -> Perturbation:
    return Perturbation(
        {(a, b): decode_number(v) for a, b, v in data["deltas"]},
        frozenset((a, b) for a, b in data["saturated"]),
    )


def report_to_json(report: AnalysisReport) -> str:
    """Serialize an analysis report; report_from_json inverts this exactly."""
    payload = {
        "num_agents": report.num_agents,
        "num_tasks": report.num_tasks,
        "assignment": [[t, a] for t, a in report.assignment.pairs],
        "cost": report.cost,
        "unique": report.unique,
        "sensitivities": edge_values(report.sensitivities.values),
        "divided": perturbation_dict(report.divided),
        "critical": perturbation_dict(report.critical),
        "critical_iterations": report.critical_iterations,
        "critical_residual": encode_number(report.critical_residual),
        "critical_converged": report.critical_converged,
        "intervals": interval_values(report.intervals),
    }
    return json.dumps(payload, separators=(",", ":"))


def report_from_json(text: str) -> AnalysisReport:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    return AnalysisReport(
        num_agents=data["num_agents"],
        num_tasks=data["num_tasks"],
        assignment=Assignment(tuple((t, a) for t, a in data["assignment"])),
        cost=float(data["cost"]),
        unique=data["unique"],
        sensitivities=SensitivityMatrix(
            {(a, b): decode_number(v) for a, b, v in data["sensitivities"]}
        ),
        divided=_pert_from_dict(data["divided"]),
        critical=_pert_from_dict(data["critical"]),
        critical_iterations=data["critical_iterations"],
        critical_residual=decode_number(data["critical_residual"]),
        critical_converged=data["critical_converged"],
        intervals=IntervalTable(
            {
                (a, b): (decode_number(lo), decode_number(hi))
                for a, b, lo, hi in data["intervals"]
            }
        ),
    )


def simlog_records(log: SimLog) -> list[dict]:
    """One dict per step plus a trailing summary record (JSON-lines friendly)."""
    seed = log.scenario.seed
    records = []
    for step in log.steps:
        records.append(
            {
                "seed": seed,
                "step": step.index,
                "positions": [list(p) for p in step.positions],
                "assignment": [[t, a] for t, a in step.assignment.pairs],
                "weights": [list(row) for row in step.weights],
                "certified": step.certified,
                "reassigned": step.reassigned,
            }
        )
    records.append({"seed": seed, "summary": asdict(summarize(log))})
    return records
