"""The benchmark's workloads: seeded inputs, one operation each, and checks.

A workload yields its operations in rounds. Round `r` of a run with seed `s`
is made from `(s, r)` alone, so every run with the same seed replays the same
sequence, and rounds hold the same mix of operation kinds for every seed.
Operations call the program through module attributes (`lapsens.analyze`,
`lapsens.cli.main`) looked up at call time, so that a traced run sees them
through the tracer's wrappers.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import numpy as np

import checks
import lapsens
import lapsens.cli

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"

# The README's 3x3 reference instance, used only to warm up.
REFERENCE_GRID = [[91, 33, 15], [5, 86, 92], [85, 9, 42]]


@dataclasses.dataclass
class Op:
    """One operation: what it runs on, plus what its checker needs."""

    index: int
    inputs: object
    expect: object = None


class AnalyzeMixed:
    """`analyze(instance)` then `report_to_json`, on float-weight instances.

    One round holds one instance per entry of SHAPES (agents, tasks), in a
    seeded order: square and rectangular shapes with 4 to 9 tasks. Cost
    grows with the number of tasks, and the counts put the median in the
    middle of the 6-task block (35% to 65% of a round) and the 90th
    percentile inside the 8-task block (80% to 95%), not on the edge between
    two blocks. Each instance has 0 to 2
    missing edges. K_{n,m} (n >= m) minus fewer than m edges still has a
    matching covering every task, so with m >= 4 tasks every flip (one more
    edge blocked, or one row and column removed) stays feasible and every
    sensitivity is finite.
    """

    name = "analyze_mixed"
    SHAPES = (
        [(4, 4)] * 2 + [(5, 4)] + [(5, 5)] * 2 + [(6, 5)] * 2 + [(6, 6)] * 3
        + [(7, 6)] * 3 + [(7, 7)] * 2 + [(8, 7)] + [(8, 8)] * 3 + [(10, 9)]
    )
    MISSING_MAX = 2
    SAMPLED_EDGES = 4
    seeds_per_op = 0
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng((self.seed, r))
        ops = []
        for i in rng.permutation(len(self.SHAPES)):
            num_agents, num_tasks = self.SHAPES[i]
            weights = rng.uniform(1.0, 100.0, size=(num_agents, num_tasks))
            missing = rng.choice(weights.size, size=rng.integers(0, self.MISSING_MAX + 1),
                                 replace=False)
            weights.flat[missing] = np.inf
            edges = np.argwhere(np.isfinite(weights))
            sample = edges[rng.choice(len(edges), size=self.SAMPLED_EDGES, replace=False)]
            grid = np.where(np.isfinite(weights), weights, np.nan)
            instance = lapsens.BipartiteInstance.from_matrix(grid.tolist())
            ops.append(Op(len(ops), instance, (weights, [tuple(map(int, e)) for e in sample])))
        return ops

    def warmup(self) -> None:
        instance = lapsens.BipartiteInstance.from_matrix(REFERENCE_GRID)
        lapsens.report_to_json(lapsens.analyze(instance))

    @staticmethod
    def run(op: Op):
        report = lapsens.analyze(op.inputs)
        return report, lapsens.report_to_json(report)

    @staticmethod
    def bytes_out(output) -> int:
        return len(output[1].encode())

    def check(self, op: Op, output, context: dict) -> None:
        report, text = output
        if lapsens.report_from_json(text) != report:
            raise checks.CheckError("report_from_json(report_to_json(r)) != r")
        weights, sample = op.expect
        checks.check_analysis(weights, json.loads(text), sample)


def _load_scenario(filename: str):
    text = (SCENARIOS / filename).read_text()
    return text, json.loads(text)


class PursuitCertified:
    """`run_simulation(scenario, "certified")` then `summarize`, one seed per op.

    The scenario is fixed (scenarios/contested3.json): three agents and three
    targets on two parallel lines ten units apart, one unit between
    neighbours. Rival assignments then differ by about 0.1 in total
    distance, against a noise bound of 0.05 per measured distance, so the
    certified policy runs critical search at every step until it locks.
    """

    name = "pursuit_certified"
    SCENARIO = "contested3.json"
    OPS_PER_ROUND = 10
    seeds_per_op = 1
    trace_rounds = 2

    def __init__(self, seed: int):
        self.seed = seed
        text, self.scenario_data = _load_scenario(self.SCENARIO)
        self.scenario = lapsens.parse_scenario(text)

    def _sim_seed(self, r: int, i: int) -> int:
        return self.seed * 1_000_000 + r * self.OPS_PER_ROUND + i

    def round(self, r: int) -> list[Op]:
        return [
            Op(i, dataclasses.replace(self.scenario, seed=self._sim_seed(r, i)))
            for i in range(self.OPS_PER_ROUND)
        ]

    def warmup(self) -> None:
        lapsens.summarize(
            lapsens.run_simulation(dataclasses.replace(self.scenario, max_steps=2), "certified")
        )

    @staticmethod
    def run(op: Op):
        log = lapsens.run_simulation(op.inputs, "certified")
        return log, lapsens.summarize(log)

    @staticmethod
    def bytes_out(output) -> int:
        return 0

    def check(self, op: Op, output, context: dict) -> None:
        log, metrics = output
        run = {
            "steps": [
                {
                    "step": s.index,
                    "weights": s.weights,
                    "positions": s.positions,
                    "assignment": s.assignment.pairs,
                    "certified": s.certified,
                    "reassigned": s.reassigned,
                }
                for s in log.steps
            ],
            "summary": dataclasses.asdict(metrics),
            "final_positions": log.final_positions,
        }
        scenario = dict(self.scenario_data, seed=op.inputs.seed)
        checks.check_run(run, scenario, "certified")


class PursuitNaiveCli:
    """In-process `lapsens simulate --policy naive --seeds A..B`, stdout captured.

    The scenario (scenarios/contested4.json) has four agents and four targets
    on the same two-line geometry. Each round has OPS_PER_ROUND calls; calls
    alternate between `--format json` and `--format table` over the same
    seed range, so the two renderings of one range can be compared.
    """

    name = "pursuit_naive_cli"
    SCENARIO = "contested4.json"
    seeds_per_op = 4
    OPS_PER_ROUND = 8
    FORMATS = ("json", "table")
    trace_rounds = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.path = str(SCENARIOS / self.SCENARIO)
        _, self.scenario_data = _load_scenario(self.SCENARIO)

    def _args(self, first: int, last: int, fmt: str) -> list[str]:
        seeds = f"--seeds={first}..{last}" if last > first else f"--seed={first}"
        return ["simulate", "--input", self.path, "--policy", "naive", seeds, "--format", fmt]

    def round(self, r: int) -> list[Op]:
        ops = []
        for i in range(self.OPS_PER_ROUND):
            pair = r * self.OPS_PER_ROUND // 2 + i // 2
            first = self.seed * 1_000_000 + pair * self.seeds_per_op
            last = first + self.seeds_per_op - 1
            fmt = self.FORMATS[i % 2]
            ops.append(Op(i, self._args(first, last, fmt), (first, last, fmt)))
        return ops

    def warmup(self) -> None:
        self.run(Op(0, self._args(0, 1, "json")))

    @staticmethod
    def run(op: Op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lapsens.cli.main(op.inputs)
        if code != 0:
            raise RuntimeError(f"lapsens {' '.join(op.inputs)} exited with {code}")
        return out.getvalue()

    @staticmethod
    def bytes_out(output) -> int:
        return len(output.encode())

    def check(self, op: Op, output, context: dict) -> None:
        first, last, fmt = op.expect
        if op.index < len(self.FORMATS):
            # The first pair of each round is also compared with single-seed calls.
            single = "".join(self.run(Op(0, self._args(s, s, fmt))) for s in range(first, last + 1))
            if single != output:
                raise checks.CheckError(
                    f"seeds {first}..{last} ({fmt}): output differs from single-seed calls"
                )
        if fmt == "json":
            runs = checks.parse_simulate_json(output)
            if list(runs) != list(range(first, last + 1)):
                raise checks.CheckError(f"json output holds seeds {list(runs)}")
            for seed, run in runs.items():
                checks.check_run(run, dict(self.scenario_data, seed=seed), "naive")
            context[(first, last)] = runs
        else:
            checks.check_table_matches_json(checks.parse_simulate_table(output), context[(first, last)])


WORKLOADS = {w.name: w for w in (AnalyzeMixed, PursuitCertified, PursuitNaiveCli)}
