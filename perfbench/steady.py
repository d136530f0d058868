"""Check that one workload's end-to-end metrics repeat within their bounds.

    python3 perfbench/steady.py --workload NAME

Runs two sets of RUNS untraced runs of the workload one after the other,
every run with its own seed (set A: seeds 1..10, set B: seeds 11..20), for
BENCHMARK.json's `run_seconds` each. For every end-to-end metric it prints
each set's median and quartiles and the quartile spread as a share of the
median, then says whether

- each set's spread stays within the metric's bound,
- set B's median differs from set A's, either way, by at most the bound, and
- both sets fail the same share of their operations.

To repeat a check, run the same command again; the seeds are fixed.

The per-run results and the verdict are also written to
.perfbench_out/steady-NAME.json. Exits 1 when the sets do not agree.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
OUT_DIR = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 900
RUNS = 10
SEEDS = (range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"error: seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"error: seed {seed} produced wrong outputs:\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    sets = []
    for k, seeds in enumerate(SEEDS):
        runs = []
        for seed in seeds:
            start = time.monotonic()
            result = run_once(args.workload, seed, seconds)
            result["seed"] = seed
            result["wall_s"] = time.monotonic() - start
            runs.append(result)
            values = ", ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            print(f"set {'AB'[k]} seed {seed}: {result['attempted']} ops in "
                  f"{result['wall_s']:.1f} s, {values}", flush=True)
        sets.append(runs)

    agree = True
    report = {"workload": args.workload, "run_seconds": seconds, "sets": sets, "metrics": {}}
    for spec in bench["end_to_end"]:
        name, bound, lower = spec["name"], spec["bound"], spec["better"] == "lower"
        stats = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        a, b = stats
        worse = (b["median"] - a["median"]) / a["median"] * (1 if lower else -1)
        ok = all(s["spread"] <= bound for s in stats) and abs(worse) <= bound
        agree &= ok
        report["metrics"][name] = {"bound": bound, "A": a, "B": b, "B_worse_by": worse, "ok": ok}
        for label, s in zip("AB", stats):
            print(f"{name:18s} set {label}: median {s['median']:.6g} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] spread {s['spread']:.2%}")
        print(f"{name:18s} bound {bound:.0%}: B worse than A by {worse:+.2%} -> "
              f"{'ok' if ok else 'NOT STEADY'}")
    shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
    same_failures = len(shares[0]) == 1 and shares[0] == shares[1]
    agree &= same_failures
    print(f"failed share per run: set A {shares[0]}, set B {shares[1]} -> "
          f"{'ok' if same_failures else 'DIFFERS'}")
    report["agree"] = agree
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"steady-{args.workload}.json").write_text(json.dumps(report, indent=1))
    print(f"{args.workload}: the two sets {'agree' if agree else 'do NOT agree'} within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
