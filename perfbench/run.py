"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. One single-threaded caller runs the workload's operations
as a closed loop (the next operation starts when the previous one returns)
in whole rounds, until at least S seconds of rounds have run and at least
MIN_OPS operations. After each round, outside its timing, every output of
the round is checked by `checks.py` and the workload's own properties.

--trace 0 prints the end-to-end metrics. Set-up time is the median over
SETUP_PROBES fresh processes, run between rounds, of the time from process
start to the point where the first timed operation would start.

--trace 1 runs the workload's first `trace_rounds` rounds twice, untraced
and then traced (see spans.py), and prints the per-layer metrics. It writes
the spans, and the metrics with calls, time and self time per span name, to
.perfbench_out/. Its counts depend only on the seed.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# Every run has at least MIN_OPS operations, so at least ten samples lie
# beyond the TAIL_PERCENTILE.
MIN_OPS = 100
TAIL_PERCENTILE = 90


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Import the program from the checkout's src/ and the workload module."""
    if not (SRC / "lapsens" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'lapsens'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup_probe(args) -> float:
    """Time from starting a fresh process to its first timed operation."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    start = time.monotonic()
    probe = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if probe.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{probe.stderr}")
    return float(probe.stdout.split()[-1]) - start


def run_round(run, ops, tracer=None):
    """Closed loop over one round.

    Returns the outputs (the exception, for an operation that raised), the
    latencies, and the round's wall and CPU seconds.
    """
    outputs, latencies = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        start = time.perf_counter()
        try:
            output = run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            output = exc
        latencies.append(time.perf_counter() - start)
        outputs.append(output)
    return outputs, latencies, time.perf_counter() - wall0, time.process_time() - cpu0


def failures(outputs) -> int:
    return sum(isinstance(output, Exception) for output in outputs)


def check_outputs(workload, ops, outputs) -> bool:
    """Check one round's outputs; the context is shared within the round only."""
    context: dict = {}
    correct = True
    for op, output in zip(ops, outputs):
        if isinstance(output, Exception):
            print(f"operation {op.index} failed: {output!r}", file=sys.stderr)
            continue
        try:
            workload.check(op, output, context)
        except Exception as exc:  # report every wrong output, keep checking
            print(f"operation {op.index}: check failed: {exc}", file=sys.stderr)
            correct = False
    return correct


def _same_output(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def percentile_ms(latencies, q) -> float:
    return float(np.percentile(latencies, q)) * 1000.0


def end_to_end(workload, args) -> dict:
    """End-to-end metrics of one untraced run.

    Rounds run until at least `--seconds` of them and MIN_OPS operations are
    done. After each round, outside its timing, its outputs are checked and
    dropped, so memory holds one round's outputs whatever the speed, and
    one set-up probe runs, so the probes sample the whole run; probes left
    over run after the last round. Throughput, CPU time per operation and
    the median latency are medians over the rounds, which all hold the same
    mix of operations, so interference from outside the process that lasts
    less than half the run moves them less than a run total. The tail is
    taken over all operations.
    """
    latencies, per_round, probes = [], [], []
    failed = 0
    correct = True
    r = 0
    while sum(wall for _, wall, _ in per_round) < args.seconds or len(latencies) < MIN_OPS:
        ops = workload.round(r)
        outputs, round_latencies, wall, cpu = run_round(workload.run, ops)
        latencies += round_latencies
        per_round.append((round_latencies, wall, cpu))
        failed += failures(outputs)
        correct &= check_outputs(workload, ops, outputs)
        del outputs
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args))
        r += 1
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(statistics.median(probes), "s"),
        "throughput_ops_s": metric(
            statistics.median(len(lat) / wall for lat, wall, _ in per_round), "1/s"),
        "latency_p50_ms": metric(
            statistics.median(percentile_ms(lat, 50) for lat, _, _ in per_round), "ms"),
        "latency_tail_ms": metric(percentile_ms(latencies, TAIL_PERCENTILE), "ms"),
        "cpu_s_per_op": metric(statistics.median(cpu / len(lat) for lat, _, cpu in per_round), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    print(
        f"{workload.name}: {len(latencies)} ops in {len(per_round)} rounds, "
        f"{sum(w for _, w, _ in per_round):.2f} s; tail = p{TAIL_PERCENTILE} "
        f"of {len(latencies)} samples",
        file=sys.stderr,
    )
    return {"correct": correct, "attempted": len(latencies), "failed": failed, "metrics": metrics}


def per_layer(workload, args) -> dict:
    """Per-layer metrics of one traced run of the first `trace_rounds` rounds."""
    # Each round runs untraced and then traced, so that interference from
    # outside the process falls on both sides of the overhead alike.
    tracer = spans.Tracer()
    n = failed = bytes_out = 0
    untraced_s = traced_s = 0.0
    correct = True
    for r in range(workload.trace_rounds):
        ops = workload.round(r)
        outputs, _, wall, _ = run_round(workload.run, ops)
        untraced_s += wall
        tracer.install()
        try:
            traced_outputs, _, wall, _ = run_round(
                tracer.wrap("bench.op", workload.run), ops, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_s += wall
        n += len(ops)
        failed += failures(outputs)
        bytes_out += sum(workload.bytes_out(o) for o in outputs if not isinstance(o, Exception))
        # The untraced outputs are checked; tracing must not change any of them.
        correct &= check_outputs(workload, ops, outputs) and all(
            _same_output(a, b) for a, b in zip(outputs, traced_outputs)
        )

    recorded = tracer.spans()
    names = np.array(tracer.names)[recorded["name"]]
    duration_ms = (recorded["end"] - recorded["start"]) * 1000.0
    self_ms = spans.self_times(recorded) * 1000.0
    layers = np.array([name.split(".", 1)[0] for name in names])
    counters = tracer.counters()

    def calls(name):
        return int(np.count_nonzero(names == name))

    def total_ms(name):
        return float(duration_ms[names == name].sum())

    def layer_self_ms(layer):
        return float(self_ms[layers == layer].sum()) / n

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "solver.lap_solves_per_op": (calls("solver.lap") / n, "count"),
        "solver.lap_cells_per_op": (counters["solver.lap_cells"] / n, "count"),
        "solver.lap_ms_per_op": (total_ms("solver.lap") / n, "ms"),
        "solver.self_ms_per_op": (layer_self_ms("solver"), "ms"),
        "core.solve_lap_calls_per_op": (calls("core.solve_lap") / n, "count"),
        "core.solve_lap_ms_per_call": (ratio(total_ms("core.solve_lap"), calls("core.solve_lap")), "ms"),
        "core.uniqueness_check_ms_per_op": (total_ms("core.uniqueness_check") / n, "ms"),
        "core.self_ms_per_op": (layer_self_ms("core"), "ms"),
        "perturb.sensitivities_ms_per_op": (total_ms("perturb.elementwise_sensitivities") / n, "ms"),
        "perturb.critical_search_ms_per_op": (total_ms("perturb.critical_search") / n, "ms"),
        "perturb.critical_iterations_per_op": (counters["perturb.critical_iterations"] / n, "count"),
        "perturb.critical_searches_per_op": (calls("perturb.critical_search") / n, "count"),
        "perturb.certify_accept_ratio": (
            ratio(counters["perturb.certified"], calls("perturb.certify_optimal")), "ratio"),
        "perturb.self_ms_per_op": (layer_self_ms("perturb"), "ms"),
        "sim.steps_per_op": (counters["sim.steps"] / n, "count"),
        "sim.run_simulation_ms_per_call": (
            ratio(total_ms("sim.run_simulation"), calls("sim.run_simulation")), "ms"),
        "sim.summarize_ms_per_op": (total_ms("sim.summarize") / n, "ms"),
        "sim.self_ms_per_op": (layer_self_ms("sim"), "ms"),
        "io.encode_ms_per_op": (
            float(self_ms[np.isin(names, ["io.report_to_json", "io.simlog_records"])].sum()) / n,
            "ms"),
        "io.bytes_out_per_op": (bytes_out / n, "bytes"),
        "io.self_ms_per_op": (layer_self_ms("io"), "ms"),
        "cli.ms_per_seed": (ratio(total_ms("cli.main"), n * workload.seeds_per_op), "ms"),
        "cli.self_ms_per_op": (layer_self_ms("cli"), "ms"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1.0) * 100.0, "%"),
        "trace.spans_per_op": (len(names) / n, "count"),
    }
    by_span = {
        name: {
            "calls_per_op": calls(name) / n,
            "ms_per_op": total_ms(name) / n,
            "self_ms_per_op": float(self_ms[names == name].sum()) / n,
        }
        for name in tracer.names
    }
    stem = workload.name
    tracer.write(OUT_DIR / f"spans-{stem}.npz")
    (OUT_DIR / f"layers-{stem}.json").write_text(
        json.dumps({"operations": n, "metrics": values, "spans": by_span}, indent=1)
    )
    return {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: metric(v, unit) for k, (v, unit) in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warmup()
    if args.setup_probe:
        print(time.monotonic())
        return 0
    result = per_layer(workload, args) if args.trace else end_to_end(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
