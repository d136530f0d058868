"""Golden answers: sha256 digests of the package's outputs on fixed inputs.

`tests/test_golden.py` recomputes every digest and compares it with the ones
stored in `tests/golden.json`, so an answer that moves between two versions
of the code shows up even when a fast path and its slow reference move
together. Three groups of outputs are pinned:

- `repr(run_simulation(scenario, policy))` for both policies over 500
  scenarios: the two-agent swap of acceptance criterion 12 (seeds 0-99,
  noise 0.08), then `perfbench/scenarios/contested3.json` (seeds 0-299) and
  `contested4.json` (seeds 0-99);
- `report_to_json(analyze(instance))` on the float instances that the
  `analyze_mixed` benchmark workload draws for seed 7, rounds 0-2;
- the stdout of `lapsens certify` on the README grid and of
  `lapsens simulate` on the two scenario files.

Each group also stores one combined digest: sha256 over the concatenated raw
32-byte digests of its items, in order.

A change that means to move an answer regenerates the file and says which
items moved and why:

    PYTHONPATH=src python tests/golden.py
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import lapsens.cli
from lapsens import (
    BipartiteInstance, Scenario, analyze, parse_scenario, report_to_json, run_simulation,
)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SCENARIOS = HERE.parent / "perfbench" / "scenarios"
README_GRID = [[91, 33, 15], [5, 86, 92], [85, 9, 42]]

# The shapes (agents, tasks) of one `analyze_mixed` round, and its draws.
ANALYZE_SHAPES = (
    [(4, 4)] * 2 + [(5, 4)] + [(5, 5)] * 2 + [(6, 5)] * 2 + [(6, 6)] * 3
    + [(7, 6)] * 3 + [(7, 7)] * 2 + [(8, 7)] + [(8, 8)] * 3 + [(10, 9)]
)
ANALYZE_SEED, ANALYZE_ROUNDS, MISSING_MAX, SAMPLED_EDGES = 7, 3, 2, 4


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _swap_scenario(seed: int) -> Scenario:
    return Scenario(
        agent_positions=((0.0, 0.0), (1.0, 0.0)),
        target_positions=((1.0, 10.0), (0.0, 10.0)),
        speed=0.25,
        noise_bound=0.08,
        seed=seed,
        max_steps=200,
    )


def simulation_cases() -> list[tuple[str, Scenario]]:
    cases = [(f"swap seed {seed}", _swap_scenario(seed)) for seed in range(100)]
    for name, count in [("contested3", 300), ("contested4", 100)]:
        scenario = parse_scenario((SCENARIOS / f"{name}.json").read_text())
        cases += [
            (f"{name} seed {seed}", dataclasses.replace(scenario, seed=seed))
            for seed in range(count)
        ]
    return cases


def analyze_cases() -> list[tuple[str, BipartiteInstance]]:
    """The instances `analyze_mixed` runs for seed 7, drawn the way it draws them."""
    cases = []
    for r in range(ANALYZE_ROUNDS):
        rng = np.random.default_rng((ANALYZE_SEED, r))
        for i, shape in enumerate(rng.permutation(len(ANALYZE_SHAPES))):
            num_agents, num_tasks = ANALYZE_SHAPES[shape]
            weights = rng.uniform(1.0, 100.0, size=(num_agents, num_tasks))
            missing = rng.choice(
                weights.size, size=rng.integers(0, MISSING_MAX + 1), replace=False
            )
            weights.flat[missing] = np.inf
            edges = np.argwhere(np.isfinite(weights))
            rng.choice(len(edges), size=SAMPLED_EDGES, replace=False)  # the checker's sample
            grid = np.where(np.isfinite(weights), weights, np.nan)
            label = f"round {r} op {i} ({num_agents}x{num_tasks})"
            cases.append((label, BipartiteInstance.from_matrix(grid.tolist())))
    return cases


def cli_cases(workdir: Path) -> list[tuple[str, list[str]]]:
    """CLI argument lists, labelled without the machine's paths."""
    grid = workdir / "readme.csv"
    grid.write_text("\n".join(",".join(map(str, row)) for row in README_GRID) + "\n")
    cases = []
    for eps in ("8.5", "20"):
        for extra in ([], ["--exact"], ["--format", "json"]):
            argv = ["certify", "--input", str(grid), "--eps", eps, *extra]
            cases.append((" ".join(["certify readme.csv --eps", eps, *extra]), argv))
    for name in ("contested3.json", "contested4.json"):
        for policy in ("naive", "certified"):
            for fmt in ("table", "json"):
                argv = ["simulate", "--input", str(SCENARIOS / name), "--seeds", "0..3",
                        "--policy", policy, "--format", fmt]
                label = f"simulate {name} --seeds 0..3 --policy {policy} --format {fmt}"
                cases.append((label, argv))
    return cases


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lapsens.cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def group_digests(group: str) -> dict[str, bytes]:
    """Label -> raw sha256 digest of each item of one group, in order."""
    if group in ("simulate certified", "simulate naive"):
        policy = group.split()[1]
        return {
            label: _digest(repr(run_simulation(scenario, policy)))
            for label, scenario in simulation_cases()
        }
    if group == "analyze":
        return {
            label: _digest(report_to_json(analyze(instance)))
            for label, instance in analyze_cases()
        }
    if group == "cli":
        with tempfile.TemporaryDirectory() as tmp:
            return {label: _digest(_cli_stdout(argv)) for label, argv in cli_cases(Path(tmp))}
    raise ValueError(f"unknown group {group!r}")


GROUPS = ("simulate certified", "simulate naive", "analyze", "cli")


def combined(digests: dict[str, bytes]) -> str:
    return hashlib.sha256(b"".join(digests.values())).hexdigest()


def main() -> None:
    payload = {"versions": versions(), "groups": {}}
    for group in GROUPS:
        digests = group_digests(group)
        payload["groups"][group] = {
            "combined": combined(digests),
            "items": {label: d.hex() for label, d in digests.items()},
        }
        print(f"{group}: {payload['groups'][group]['combined']}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
