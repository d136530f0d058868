"""Each output checker accepts a right answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py

Right answers come from the program itself on small inputs; wrong answers
are the same outputs with one deliberate fault put in.
"""
from __future__ import annotations

import copy
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import lapsens  # noqa: E402
import workloads  # noqa: E402

RNG_SEED = 12345


def random_weights(rng, num_agents, num_tasks, missing=0):
    weights = rng.uniform(1.0, 100.0, size=(num_agents, num_tasks))
    weights.flat[rng.choice(weights.size, size=missing, replace=False)] = np.inf
    return weights


@pytest.mark.parametrize("shape", [(3, 3), (5, 4), (6, 6), (8, 8), (10, 9)])
def test_enumeration_and_lp_agree(shape):
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(5):
        weights = random_weights(rng, *shape, missing=2)
        perms = checks._permutations(*shape) if math.perm(*shape) <= 50_000 else None
        lp = checks._lp_optimum(weights)
        if perms is not None:
            enum = float(weights[perms, np.arange(shape[1])].sum(axis=1).min())
            assert abs(enum - lp) <= checks.tolerance(weights)
        assert checks.optimum(weights) == pytest.approx(lp, abs=checks.tolerance(weights))


def test_optimum_of_infeasible_instance_is_inf():
    weights = np.full((3, 3), np.inf)
    weights[0, :] = 1.0
    assert checks.optimum(weights) == math.inf
    assert checks._lp_optimum(weights) == math.inf


def test_check_optimal_rejects_bad_matchings():
    weights = np.array([[1.0, 5.0], [5.0, 1.0], [np.inf, 9.0]])
    assert checks.check_optimal(weights, [0, 1], "ok") == 2.0
    for bad in ([1, 0], [0, 0], [0], [2, 1]):
        with pytest.raises(checks.CheckError):
            checks.check_optimal(weights, bad, "bad")


@pytest.fixture(scope="module")
def analysis():
    workload = workloads.AnalyzeMixed(seed=7)
    op = next(op for op in workload.round(0) if op.inputs.num_tasks == 5)
    output = workload.run(op)
    return workload, op, output


def test_analysis_checker_accepts_program_output(analysis):
    workload, op, output = analysis
    workload.check(op, output, {})


def _mutated_reports(report):
    """(description, report with one fault)."""
    pi = [a for _, a in report["assignment"]]
    first_edge = report["sensitivities"][0]
    faults = []

    r = copy.deepcopy(report)
    r["cost"] += 1.0
    faults.append(("cost", r))

    r = copy.deepcopy(report)
    swapped = pi[1], pi[0]
    r["assignment"][0][1], r["assignment"][1][1] = swapped
    faults.append(("assignment", r))

    r = copy.deepcopy(report)
    r["sensitivities"][0][2] = -first_edge[2]
    faults.append(("sensitivity sign", r))

    r = copy.deepcopy(report)
    r["divided"]["deltas"] = [[a, b, v * 10] for a, b, v in r["divided"]["deltas"]]
    faults.append(("divided not allowable", r))

    r = copy.deepcopy(report)
    r["critical_converged"] = False
    faults.append(("not converged", r))

    r = copy.deepcopy(report)
    r["critical"] = r["divided"]
    faults.append(("critical is only the divided bound", r))

    r = copy.deepcopy(report)
    a, b, lo, hi = r["intervals"][0]
    r["intervals"][0] = [a, b, "-inf", -1.0] if lo == "-inf" else [a, b, 1.0, "inf"]
    faults.append(("interval sign", r))
    return faults


def test_analysis_checker_rejects_each_fault(analysis):
    workload, op, (report, text) = analysis
    weights, sample = op.expect
    for what, bad in _mutated_reports(json.loads(text)):
        with pytest.raises(checks.CheckError):
            checks.check_analysis(weights, bad, sample)
            pytest.fail(f"fault not caught: {what}")


def test_analysis_checker_rejects_wrong_sampled_sensitivity(analysis):
    workload, op, (report, text) = analysis
    weights, sample = op.expect
    bad = json.loads(text)
    for triple in bad["sensitivities"]:
        if tuple(triple[:2]) == sample[0]:
            triple[2] *= 1.5
    with pytest.raises(checks.CheckError, match="constrained solve"):
        checks.check_analysis(weights, bad, sample)


def test_json_round_trip_property_is_checked(analysis):
    workload, op, (report, text) = analysis
    other = workload.run(workload.round(1)[0])
    with pytest.raises(checks.CheckError, match="report_from_json"):
        workload.check(op, (report, other[1]), {})


@pytest.fixture(scope="module")
def certified():
    workload = workloads.PursuitCertified(seed=3)
    op = workload.round(0)[0]
    output = workload.run(op)
    return workload, op, output


def test_certified_run_passes(certified):
    workload, op, output = certified
    log, metrics = output
    assert metrics.certification_step is not None
    workload.check(op, output, {})


def _with_log(log, **changes):
    return lapsens.SimLog(**{**{f: getattr(log, f) for f in log.__dataclass_fields__}, **changes})


def test_certified_checker_rejects_reassignment_after_lock(certified):
    workload, op, (log, metrics) = certified
    lock = metrics.certification_step
    assert lock + 1 < len(log.steps)
    steps = list(log.steps)
    later = steps[lock + 1]
    swapped = lapsens.Assignment(tuple((t, a) for t, a in zip(
        [t for t, _ in later.assignment.pairs], reversed([a for _, a in later.assignment.pairs]))))
    steps[lock + 1] = lapsens.SimStep(later.index, later.weights, swapped, later.positions,
                                      later.certified, True)
    bad = _with_log(log, steps=tuple(steps))
    with pytest.raises(checks.CheckError):
        workload.check(op, (bad, lapsens.summarize(bad)), {})


def test_certified_checker_rejects_wrong_summary(certified):
    workload, op, (log, metrics) = certified
    bad = lapsens.RunMetrics(**{**metrics.__dict__, "reassignments": metrics.reassignments + 1})
    with pytest.raises(checks.CheckError, match="reassignments"):
        workload.check(op, (log, bad), {})


def _one_step_run(targets, lock):
    agents = [[0.0, 0.0], [1.0, 0.0]]
    true = checks.distances(agents, targets)
    ideal = checks.optimum(true)
    run = {
        "steps": [{"step": 0, "weights": true.tolist(), "positions": agents,
                   "assignment": [[0, 0], [1, 1]], "certified": lock, "reassigned": False}],
        "summary": {"policy": "certified", "steps": 1, "total_distance": 0.5,
                    "reassignments": 0, "certification_step": 0 if lock else None,
                    "reached_all": False, "optimality_gap": 0.5 - ideal},
    }
    scenario = {"agent_positions": agents, "target_positions": targets,
                "speed": 0.5, "noise_bound": 0.05}
    return run, scenario


def test_lock_checker_uses_worst_case_weights():
    # Rivals 0.1 apart: optimal for the true distances, but not for W + eps
    # on the locked edges and W - eps elsewhere, so this lock is unsound.
    run, scenario = _one_step_run([[0.0, 10.0], [1.0, 10.0]], lock=True)
    with pytest.raises(checks.CheckError, match="worst-case"):
        checks.check_run(run, scenario, "certified")
    run, scenario = _one_step_run([[0.0, 1.0], [5.0, 1.0]], lock=True)
    checks.check_run(run, scenario, "certified")


def test_run_checker_rejects_weights_outside_noise_bound():
    run, scenario = _one_step_run([[0.0, 1.0], [5.0, 1.0]], lock=False)
    run["steps"][0]["weights"][0][0] += 0.2
    with pytest.raises(checks.CheckError, match="true distances"):
        checks.check_run(run, scenario, "certified")


@pytest.fixture(scope="module")
def cli_pair():
    workload = workloads.PursuitNaiveCli(seed=5)
    json_op, table_op = workload.round(0)[:2]
    return workload, json_op, workload.run(json_op), table_op, workload.run(table_op)


def test_cli_outputs_pass(cli_pair):
    workload, json_op, json_out, table_op, table_out = cli_pair
    context = {}
    workload.check(json_op, json_out, context)
    workload.check(table_op, table_out, context)


def _edit_json_line(text, index, edit):
    lines = text.splitlines(keepends=True)
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record, separators=(",", ":")) + "\n"
    return "".join(lines)


def test_cli_checker_rejects_suboptimal_step(cli_pair):
    workload, json_op, json_out, *_ = cli_pair
    runs = checks.parse_simulate_json(json_out)
    seed, run = next(iter(runs.items()))

    def swap(record):
        pairs = record["assignment"]
        pairs[0][1], pairs[1][1] = pairs[1][1], pairs[0][1]

    bad = checks.parse_simulate_json(_edit_json_line(json_out, 0, swap))
    with pytest.raises(checks.CheckError, match="step 0"):
        checks.check_run(bad[seed], dict(workload.scenario_data, seed=seed), "naive")


def test_cli_checker_rejects_wrong_reassignment_count(cli_pair):
    workload, json_op, json_out, *_ = cli_pair
    runs = checks.parse_simulate_json(json_out)
    seed, run = next(iter(runs.items()))
    run["summary"]["reassignments"] += 1
    with pytest.raises(checks.CheckError, match="reassignments"):
        checks.check_run(run, dict(workload.scenario_data, seed=seed), "naive")


def test_cli_checker_rejects_wrong_total_distance(cli_pair):
    workload, json_op, json_out, *_ = cli_pair
    runs = checks.parse_simulate_json(json_out)
    seed, run = next(iter(runs.items()))
    scenario = dict(workload.scenario_data, seed=seed)
    # At most `speed` per agent may follow the last printed step.
    run["summary"]["total_distance"] += scenario["speed"] * len(scenario["agent_positions"]) + 0.01
    with pytest.raises(checks.CheckError, match="total distance"):
        checks.check_run(run, scenario, "naive")


def test_cli_checker_rejects_wrong_reached_all(cli_pair):
    workload, json_op, json_out, *_ = cli_pair
    runs = checks.parse_simulate_json(json_out)
    seed, run = next(iter(runs.items()))
    scenario = dict(workload.scenario_data, seed=seed)
    assert run["summary"]["reached_all"] and len(run["steps"]) < scenario["max_steps"]
    run["summary"]["reached_all"] = False
    with pytest.raises(checks.CheckError, match="stopped before max_steps"):
        checks.check_run(run, scenario, "naive")


def test_cli_checker_rejects_table_json_disagreement(cli_pair):
    workload, json_op, json_out, table_op, table_out = cli_pair
    runs = checks.parse_simulate_json(json_out)
    bad = re.sub(r"^steps (\d+)$", lambda m: f"steps {int(m.group(1)) + 1}", table_out,
                 count=1, flags=re.M)
    assert bad != table_out
    with pytest.raises(checks.CheckError, match="summaries differ"):
        checks.check_table_matches_json(checks.parse_simulate_table(bad), runs)


def test_cli_checker_rejects_multi_seed_output_unlike_single_seed(cli_pair):
    workload, json_op, json_out, *_ = cli_pair
    lines = json_out.splitlines(keepends=True)
    summary = next(i for i, line in enumerate(lines) if '"summary"' in line)
    reordered = "".join(lines[summary + 1:] + lines[:summary + 1])
    with pytest.raises(checks.CheckError, match="single-seed"):
        workload.check(json_op, reordered, {})
