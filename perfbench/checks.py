"""Output checkers that do not use the program under test.

Every function here works on plain data (NumPy arrays, lists, dicts decoded
from the program's JSON or read off its result objects) and solves every
assignment problem it needs on its own: by itertools enumeration when the
number of matchings is small, otherwise as a linear program with
`scipy.optimize.linprog`. The assignment polytope is integral, so the LP
optimum equals the integer optimum.

Weight matrices have agents as rows and tasks as columns, with `np.inf`
marking a missing edge. Each checker raises `CheckError` on the first
violation it finds and returns None otherwise.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.optimize import linprog

# Enumerate matchings up to this many (7 agents x 7 tasks is 5040); solve
# an LP beyond it.
ENUMERATION_LIMIT = 5040
REL_TOL = 1e-7


class CheckError(AssertionError):
    """A program output failed an independent check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def tolerance(weights: np.ndarray) -> float:
    """Absolute tolerance for comparing assignment costs on these weights."""
    finite = np.abs(weights[np.isfinite(weights)])
    scale = float(finite.max()) if finite.size else 1.0
    return REL_TOL * max(1.0, scale) * max(1, weights.shape[1])


_PERMUTATIONS: dict[tuple[int, int], np.ndarray] = {}


def _permutations(num_agents: int, num_tasks: int) -> np.ndarray:
    key = (num_agents, num_tasks)
    if key not in _PERMUTATIONS:
        perms = list(itertools.permutations(range(num_agents), num_tasks))
        _PERMUTATIONS[key] = np.array(perms, dtype=np.intp).reshape(len(perms), num_tasks)
    return _PERMUTATIONS[key]


def _lp_optimum(weights: np.ndarray) -> float:
    num_agents, num_tasks = weights.shape
    edges = np.argwhere(np.isfinite(weights))
    if num_tasks and not len(edges):
        return math.inf
    cost = weights[edges[:, 0], edges[:, 1]]
    rows = np.arange(len(edges))
    a_eq = np.zeros((num_tasks, len(edges)))
    a_eq[edges[:, 1], rows] = 1.0
    a_ub = np.zeros((num_agents, len(edges)))
    a_ub[edges[:, 0], rows] = 1.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.ones(num_agents),
        A_eq=a_eq,
        b_eq=np.ones(num_tasks),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if res.status == 2:
        return math.inf
    _require(res.status == 0, f"independent LP failed: {res.message}")
    return float(res.fun)


def optimum(weights: np.ndarray) -> float:
    """Minimum cost of a matching covering every task; inf when none exists."""
    weights = np.asarray(weights, dtype=float)
    num_agents, num_tasks = weights.shape
    if num_tasks == 0:
        return 0.0
    if num_agents < num_tasks:
        return math.inf
    if math.perm(num_agents, num_tasks) <= ENUMERATION_LIMIT:
        perms = _permutations(num_agents, num_tasks)
        costs = weights[perms, np.arange(num_tasks)].sum(axis=1)
        return float(costs.min())
    return _lp_optimum(weights)


def matching_cost(weights: np.ndarray, task_to_agent) -> float:
    """Cost of a task->agent map, after checking that it is a valid matching."""
    agents = [int(a) for a in task_to_agent]
    num_agents, num_tasks = weights.shape
    _require(len(agents) == num_tasks, f"assignment covers {len(agents)} of {num_tasks} tasks")
    _require(len(set(agents)) == len(agents), f"an agent is used twice in {agents}")
    _require(all(0 <= a < num_agents for a in agents), f"agent index out of range in {agents}")
    cost = float(sum(weights[a, t] for t, a in enumerate(agents)))
    _require(math.isfinite(cost), f"assignment {agents} uses a missing edge")
    return cost


def check_optimal(weights: np.ndarray, task_to_agent, what: str) -> float:
    """The map must be a matching of minimum cost on `weights`; returns that cost."""
    cost = matching_cost(weights, task_to_agent)
    best = optimum(weights)
    _require(
        cost <= best + tolerance(weights),
        f"{what}: assignment costs {cost!r}, an independent solve finds {best!r}",
    )
    return cost


def flip_sensitivity(weights: np.ndarray, task_to_agent, edge, base: float) -> float:
    """Independent sensitivity of one edge, by a constrained solve.

    Assigned edge: optimum with the edge blocked, minus the optimum `base`.
    Unassigned edge: `base` minus the optimum with the edge forced in.
    """
    a, b = edge
    if task_to_agent[b] == a:
        blocked = weights.copy()
        blocked[a, b] = np.inf
        return optimum(blocked) - base
    reduced = np.delete(np.delete(weights, a, axis=0), b, axis=1)
    return base - (weights[a, b] + optimum(reduced))


def _same_value(got: float, want: float, tol: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= tol


def decode_number(value) -> float:
    """Inverse of the program's JSON number encoding ("inf"/"-inf" tokens)."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def _edge_map(triples) -> dict[tuple[int, int], float]:
    return {(int(a), int(b)): decode_number(v) for a, b, v in triples}


def check_analysis(weights: np.ndarray, report: dict, sample_edges) -> None:
    """Check one decoded `report_to_json` payload against its instance.

    `sample_edges` is a fixed list of (agent, task) pairs whose sensitivities
    are re-derived by independent constrained solves, both at the instance
    and at the critical perturbation.
    """
    weights = np.asarray(weights, dtype=float)
    num_agents, num_tasks = weights.shape
    tol = tolerance(weights)
    _require(
        (report["num_agents"], report["num_tasks"]) == (num_agents, num_tasks),
        "report shape differs from the instance",
    )
    pairs = report["assignment"]
    _require([t for t, _ in pairs] == list(range(num_tasks)), "assignment is not in task order")
    pi = [a for _, a in pairs]
    cost = check_optimal(weights, pi, "optimum")
    _require(abs(cost - report["cost"]) <= tol, f"reported cost {report['cost']!r} != {cost!r}")
    _require(report["unique"] is True, "analysis reported a non-unique optimum")

    edges = {(int(a), int(b)) for a, b in np.argwhere(np.isfinite(weights))}
    assigned = {(a, t) for t, a in enumerate(pi)}
    sens = _edge_map(report["sensitivities"])
    _require(set(sens) == edges, "sensitivities are not defined on exactly the edge set")
    for edge, value in sens.items():
        if edge in assigned:
            _require(value > 0, f"assigned edge {edge} has sensitivity {value!r} <= 0")
        else:
            _require(value < 0, f"unassigned edge {edge} has sensitivity {value!r} >= 0")
    for edge in sample_edges:
        want = flip_sensitivity(weights, pi, edge, cost)
        _require(
            _same_value(sens[edge], want, tol),
            f"sensitivity of {edge} is {sens[edge]!r}, a constrained solve gives {want!r}",
        )

    divided = _edge_map(report["divided"]["deltas"])
    critical = _edge_map(report["critical"]["deltas"])
    for name, deltas in (("divided", divided), ("critical", critical)):
        _require(set(deltas) == edges, f"{name} perturbation is not on the edge set")
        shifted = weights.copy()
        for (a, b), d in deltas.items():
            shifted[a, b] += d
        check_optimal(shifted, pi, f"{name} perturbation")
    for edge, value in sens.items():
        if math.isfinite(value):
            want = value / (2.0 * num_tasks)
            _require(
                abs(divided[edge] - want) <= tol,
                f"divided delta of {edge} is {divided[edge]!r}, expected {want!r}",
            )

    _require(report["critical_converged"] is True, "critical search did not converge")
    scale = max(abs(v) for v in sens.values() if math.isfinite(v))
    stop = 1e-6 * scale + tol
    residual = decode_number(report["critical_residual"])
    _require(residual <= stop, f"critical residual {residual!r} exceeds {stop!r}")
    at_critical = weights.copy()
    for (a, b), d in critical.items():
        at_critical[a, b] += d
    critical_cost = matching_cost(at_critical, pi)
    for edge in sample_edges:
        left = flip_sensitivity(at_critical, pi, edge, critical_cost)
        _require(
            abs(left) <= stop,
            f"edge {edge} keeps sensitivity {left!r} at the critical perturbation",
        )

    intervals = {(int(a), int(b)): (decode_number(lo), decode_number(hi))
                 for a, b, lo, hi in report["intervals"]}
    _require(set(intervals) == edges, "intervals are not defined on exactly the edge set")
    saturated = {tuple(e) for e in report["critical"]["saturated"]}
    for edge, (lo, hi) in intervals.items():
        if edge in saturated:
            _require((lo, hi) == (-math.inf, math.inf), f"saturated {edge} is not the full line")
        elif edge in assigned:
            _require(
                lo == -math.inf and hi >= 0 and hi == critical[edge],
                f"assigned edge {edge} has interval [{lo!r}, {hi!r}]",
            )
        else:
            _require(
                hi == math.inf and lo <= 0 and lo == critical[edge],
                f"unassigned edge {edge} has interval [{lo!r}, {hi!r}]",
            )


def distances(positions, targets) -> np.ndarray:
    """Euclidean agent-to-target distances."""
    pos = np.asarray(positions, dtype=float)
    tgt = np.asarray(targets, dtype=float)
    return np.hypot(pos[:, None, 0] - tgt[None, :, 0], pos[:, None, 1] - tgt[None, :, 1])


def check_run(run: dict, scenario: dict, policy: str) -> None:
    """Check one simulation run given as plain data.

    `run` has `steps` (each with `step`, `weights`, `positions`,
    `assignment` as (task, agent) pairs, `certified`, `reassigned`),
    `summary` (the fields `summarize` reports) and optionally
    `final_positions`. `scenario` is the decoded scenario file with the
    run's seed.

    Both policies: each recorded step's weights are the true distances within
    the noise bound, agents move at most `speed` per step, and the summary
    matches the steps. Every unlocked assignment is an optimum of that
    step's weights. Certified runs: after the lock nothing changes, and the
    locked assignment is optimal for the noise-free distances at the lock
    step and for the worst case, `W + eps` on locked edges and `W - eps`
    elsewhere.
    """
    targets = scenario["target_positions"]
    eps = float(scenario["noise_bound"])
    speed = float(scenario["speed"])
    steps = run["steps"]
    summary = run["summary"]
    _require(len(steps) >= 1, "run has no steps")
    _require([s["step"] for s in steps] == list(range(len(steps))), "step indices are not 0..n-1")
    _require(
        [tuple(p) for p in steps[0]["positions"]]
        == [tuple(map(float, p)) for p in scenario["agent_positions"]],
        "run does not start at the scenario's agent positions",
    )
    lock = summary["certification_step"]
    if policy == "naive":
        _require(lock is None, "naive run reports a certification step")
    previous = None
    reassignments = 0
    for index, step in enumerate(steps):
        weights = np.asarray(step["weights"], dtype=float)
        pi = [a for _, a in sorted(step["assignment"])]
        true = distances(step["positions"], targets)
        _require(
            np.all(np.abs(weights - true) <= eps * (1 + 1e-12) + 1e-12),
            f"step {index}: weights are not within {eps} of the true distances",
        )
        locked = lock is not None and index >= lock
        _require(step["certified"] == locked, f"step {index}: certified flag is {step['certified']}")
        if locked and index > lock:
            _require(pi == locked_pi, f"step {index}: assignment changed after the lock")
            _require(not step["reassigned"], f"step {index}: reassigned after the lock")
        else:
            check_optimal(weights, pi, f"step {index}")
        if index == lock:
            locked_pi = pi
            check_optimal(true, pi, f"lock at step {index}, noise-free distances")
            worst = weights - eps
            for t, a in enumerate(pi):
                worst[a, t] = weights[a, t] + eps
            check_optimal(worst, pi, f"lock at step {index}, worst-case weights")
        changed = previous is not None and pi != previous
        _require(step["reassigned"] == changed, f"step {index}: reassigned flag is wrong")
        reassignments += changed
        previous = pi

    positions = [s["positions"] for s in steps]
    if "final_positions" in run:
        positions.append(run["final_positions"])
    travelled = 0.0
    for before, after in zip(positions, positions[1:]):
        moves = np.hypot(*(np.asarray(after, float) - np.asarray(before, float)).T)
        _require(np.all(moves <= speed * (1 + 1e-12)), "an agent moved faster than its speed")
        travelled += float(moves.sum())
    _require(summary["policy"] == policy, f"summary policy is {summary['policy']!r}")
    _require(summary["steps"] == len(steps), "summary step count differs from the steps")
    _require(
        summary["reassignments"] == reassignments,
        f"summary reassignments {summary['reassignments']} != {reassignments} reassigned flags",
    )
    total = summary["total_distance"]
    slack = 1e-9 * max(1.0, travelled)
    if "final_positions" in run:
        _require(abs(total - travelled) <= slack, "total distance differs from the recorded moves")
        arrived = all(
            tuple(run["final_positions"][a]) == tuple(map(float, targets[t]))
            for t, a in steps[-1]["assignment"]
        )
        _require(summary["reached_all"] == arrived, "reached_all disagrees with the final positions")
    else:
        # The move after the last recorded step is not printed; in it each
        # agent moves at most `speed`, and an agent that arrives was within
        # `speed` of its target.
        last = steps[-1]
        _require(
            travelled - slack <= total <= travelled + speed * len(last["positions"]) + slack,
            "total distance is not the recorded moves plus at most one more step",
        )
        if summary["reached_all"]:
            gaps = distances(last["positions"], targets)
            _require(
                all(gaps[a, t] <= speed * (1 + 1e-12) for t, a in last["assignment"]),
                "reached_all, but an agent was more than one step from its target",
            )
    # A run only stops before `max_steps` when every agent has arrived.
    _require(
        summary["reached_all"] or len(steps) == scenario.get("max_steps", len(steps)),
        "the run stopped before max_steps without reaching all targets",
    )
    ideal = optimum(distances(scenario["agent_positions"], targets))
    _require(
        abs(summary["optimality_gap"] - (summary["total_distance"] - ideal)) <= 1e-9 * max(1.0, ideal),
        "optimality gap differs from total distance minus the ideal cost",
    )


def parse_simulate_json(text: str) -> dict[int, dict]:
    """Runs keyed by seed from `simulate --format json` output, in print order."""
    runs: dict[int, dict] = {}
    order = []
    for line in text.splitlines():
        record = json.loads(line)
        seed = record["seed"]
        if seed not in runs:
            runs[seed] = {"steps": [], "summary": None}
            order.append(seed)
        _require(runs[seed]["summary"] is None, f"seed {seed}: record after its summary")
        _require(order[-1] == seed, f"seed {seed}: records are interleaved with another seed")
        if "summary" in record:
            runs[seed]["summary"] = record["summary"]
        else:
            runs[seed]["steps"].append(record)
    for seed, run in runs.items():
        _require(run["summary"] is not None, f"seed {seed}: no summary record")
    return runs


def parse_simulate_table(text: str) -> dict[int, dict]:
    """Runs keyed by seed from `simulate --format table` output."""
    runs: dict[int, dict] = {}
    current = None
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key == "seed":
            current = {"steps": [], "summary": {}}
            runs[int(rest)] = current
        elif key == "step":
            index, _, body = rest.partition(": ")
            assignment, certified, reassigned = body.split(", ")
            pairs = [tuple(int(x) for x in p.split("->")) for p in assignment.split()[1:]]
            current["steps"].append(
                {
                    "step": int(index),
                    "assignment": pairs,
                    "certified": certified == "certified true",
                    "reassigned": reassigned == "reassigned true",
                }
            )
        else:
            _require(current is not None, f"table line before any seed: {line!r}")
            current["summary"][key] = rest
    return runs


def _table_value(token: str):
    if token in ("true", "false"):
        return token == "true"
    if token == "none":
        return None
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            pass
    return token


def check_table_matches_json(table: dict[int, dict], runs: dict[int, dict]) -> None:
    """The table rendering of a seed range must agree with its JSON rendering."""
    _require(list(table) == list(runs), f"table seeds {list(table)} != json seeds {list(runs)}")
    for seed, run in runs.items():
        rows = table[seed]
        _require(len(rows["steps"]) == len(run["steps"]), f"seed {seed}: step counts differ")
        for row, step in zip(rows["steps"], run["steps"]):
            _require(row["step"] == step["step"], f"seed {seed}: step indices differ")
            _require(
                [list(p) for p in row["assignment"]] == [list(p) for p in step["assignment"]],
                f"seed {seed} step {step['step']}: table and json assignments differ",
            )
            for flag in ("certified", "reassigned"):
                _require(row[flag] == step[flag], f"seed {seed} step {step['step']}: {flag} differs")
        flags = sum(row["reassigned"] for row in rows["steps"])
        summary = {k: _table_value(v) for k, v in rows["summary"].items()}
        _require(summary.get("reassignments") == flags,
                 f"seed {seed}: table reassignments {summary.get('reassignments')} != {flags} flags")
        _require(summary == run["summary"], f"seed {seed}: table and json summaries differ")
