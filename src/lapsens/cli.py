"""Command-line interface.

Exit codes: 0 success, 1 infeasible instance or degenerate optimum,
2 usage or parse errors, 3 a verify/certify check that evaluates to false.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
# Unused by the CLI itself; perfbench/spans.py patches this name when tracing.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from pathlib import Path

from .core import BipartiteInstance, solve_lap
from .errors import DegenerateOptimumError, InfeasibleError, LapsensError
from .io import (
    edge_values,
    encode_number,
    format_grid,
    format_number,
    interval_values,
    parse_error_bounds,
    parse_matrix,
    parse_perturbation,
    parse_scenario,
    perturbation_dict,
    simlog_records,
)
from .perturb import (
    DEFAULT_MAX_ITERS,
    ErrorBounds,
    Perturbation,
    certify_exact,
    certify_optimal,
    critical_search,
    divided_bound,
    elementwise_sensitivities,
    halfspace_intervals,
    verify_allowable,
)
from .sim import run_sweep, summarize

_JSON_SEP = (",", ":")


def _bool_token(value: bool) -> str:
    return "true" if value else "false"


def _print_json(payload) -> None:
    print(json.dumps(payload, separators=_JSON_SEP))


def _print_instance_json(instance: BipartiteInstance, **fields) -> None:
    _print_json({"num_agents": instance.num_agents, "num_tasks": instance.num_tasks, **fields})


def _load_instance(path: str) -> BipartiteInstance:
    return parse_matrix(Path(path).read_text())


def _print_perturbation(instance: BipartiteInstance, pert: Perturbation) -> None:
    print(format_grid(instance, pert.deltas), end="")
    for edge in sorted(pert.saturated):
        print(f"saturated {edge[0]},{edge[1]}")


def _resolve_perturbation(args, instance: BipartiteInstance, assignment) -> Perturbation:
    choice = getattr(args, "perturbation", None)
    if choice is None or choice == "critical":
        return critical_search(instance, assignment, max_iters=args.max_iters).perturbation
    if choice == "zero":
        return Perturbation.zeros(instance.edges)
    return parse_perturbation(Path(choice).read_text(), instance)


def _resolve_eps(arg: str, instance: BipartiteInstance) -> ErrorBounds:
    try:
        value = float(arg)
    except ValueError:
        return parse_error_bounds(Path(arg).read_text(), instance)
    return ErrorBounds.uniform(instance.edges, value)


def _cmd_solve(args) -> int:
    instance = _load_instance(args.input)
    report = solve_lap(instance)
    if args.format == "json":
        _print_instance_json(
            instance,
            assignment=[[t, a] for t, a in report.assignment.pairs],
            cost=report.cost,
            unique=report.unique,
        )
    else:
        for t, a in report.assignment.pairs:
            print(f"task {t} -> agent {a}")
        print(f"cost {format_number(report.cost)}")
        print(f"unique {_bool_token(report.unique)}")
    return 0


def _cmd_sensitivity(args) -> int:
    instance = _load_instance(args.input)
    assignment = solve_lap(instance).assignment
    sens = elementwise_sensitivities(instance, assignment)
    if args.format == "json":
        _print_instance_json(instance, sensitivities=edge_values(sens.values))
    else:
        print(format_grid(instance, sens.values), end="")
    return 0


def _cmd_bound(args) -> int:
    instance = _load_instance(args.input)
    assignment = solve_lap(instance).assignment
    sens = elementwise_sensitivities(instance, assignment)
    pert = divided_bound(sens, instance.num_tasks)
    if args.format == "json":
        _print_instance_json(instance, **perturbation_dict(pert))
    else:
        _print_perturbation(instance, pert)
    return 0


def _cmd_critical(args) -> int:
    instance = _load_instance(args.input)
    assignment = solve_lap(instance).assignment
    report = critical_search(instance, assignment, max_iters=args.max_iters)
    if args.format == "json":
        _print_instance_json(
            instance,
            **perturbation_dict(report.perturbation),
            iterations=report.iterations,
            residual=encode_number(report.residual),
            converged=report.converged,
        )
    else:
        _print_perturbation(instance, report.perturbation)
        print(f"iterations {report.iterations}")
        print(f"residual {format_number(report.residual)}")
        print(f"converged {_bool_token(report.converged)}")
    return 0


def _cmd_intervals(args) -> int:
    instance = _load_instance(args.input)
    assignment = solve_lap(instance).assignment
    pert = _resolve_perturbation(args, instance, assignment)
    table = halfspace_intervals(pert, assignment)
    if args.format == "json":
        _print_instance_json(instance, intervals=interval_values(table))
    else:
        print("agent,task,lower,upper")
        for (a, b), (lo, hi) in sorted(table.intervals.items()):
            print(f"{a},{b},{format_number(lo)},{format_number(hi)}")
    return 0


def _cmd_verify(args) -> int:
    instance = _load_instance(args.input)
    assignment = solve_lap(instance).assignment
    pert = _resolve_perturbation(args, instance, assignment)
    ok = verify_allowable(instance, assignment, pert)
    if args.format == "json":
        _print_json({"allowable": ok})
    else:
        print(f"allowable {_bool_token(ok)}")
    return 0 if ok else 3


def _cmd_certify(args) -> int:
    instance = _load_instance(args.input)
    assignment = solve_lap(instance).assignment
    if args.exact:
        if args.max_iters != DEFAULT_MAX_ITERS:
            raise ValueError("--exact runs no critical search: drop --max-iters")
        ok = certify_exact(instance, assignment, _resolve_eps(args.eps, instance))
    else:
        pert = _resolve_perturbation(args, instance, assignment)
        ok = certify_optimal(pert, assignment, _resolve_eps(args.eps, instance))
    if args.format == "json":
        _print_json({"certified": ok})
    else:
        print(f"certified {_bool_token(ok)}")
    return 0 if ok else 3


def _parse_seed_range(arg: str) -> list[int]:
    parts = arg.split("..")
    if len(parts) != 2:
        raise ValueError(f"--seeds expects A..B, got {arg!r}")
    first, last = int(parts[0]), int(parts[1])
    if last < first:
        raise ValueError(f"--seeds range is empty: {arg!r}")
    return list(range(first, last + 1))


def _render_simlog_table(log) -> list[str]:
    lines = [f"seed {log.scenario.seed}"]
    for step in log.steps:
        pairs = " ".join(f"{t}->{a}" for t, a in step.assignment.pairs)
        lines.append(
            f"step {step.index}: assignment {pairs}, certified "
            f"{_bool_token(step.certified)}, reassigned {_bool_token(step.reassigned)}"
        )
    for key, value in dataclasses.asdict(summarize(log)).items():
        if isinstance(value, bool):
            value = _bool_token(value)
        elif value is None:
            value = "none"
        elif isinstance(value, float):
            value = format_number(value)
        lines.append(f"{key} {value}")
    return lines


def _cmd_simulate(args) -> int:
    scenario = parse_scenario(Path(args.input).read_text())
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    seeds = _parse_seed_range(args.seeds) if args.seeds else [scenario.seed]
    for log in run_sweep(scenario, seeds, args.policy):
        if args.format == "json":
            for record in simlog_records(log):
                print(json.dumps(record, separators=_JSON_SEP))
        else:
            print("\n".join(_render_simlog_table(log)))
    return 0


def _add_common(sub, *, max_iters=False, perturbation=False):
    sub.add_argument("--input", required=True, help="input file path")
    sub.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    if max_iters:
        sub.add_argument(
            "--max-iters", type=int, default=DEFAULT_MAX_ITERS, dest="max_iters",
            help="iteration cap for the critical search",
        )
    if perturbation:
        _add_perturbation(sub)


def _add_perturbation(target) -> None:
    target.add_argument(
        "--perturbation",
        default=None,
        help="perturbation grid file, or 'zero'; defaults to the critical perturbation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapsens",
        description="Assignment solving with perturbation robustness analysis",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve", help="solve the assignment problem")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_solve)

    sub = commands.add_parser("sensitivity", help="per-edge sensitivities")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_sensitivity)

    sub = commands.add_parser("bound", help="jointly-allowable divided bound")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_bound)

    sub = commands.add_parser("critical", help="iterative critical-perturbation search")
    _add_common(sub, max_iters=True)
    sub.set_defaults(handler=_cmd_critical)

    sub = commands.add_parser("intervals", help="per-edge invariance intervals")
    _add_common(sub, max_iters=True, perturbation=True)
    sub.set_defaults(handler=_cmd_intervals)

    sub = commands.add_parser("verify", help="check a perturbation is allowable")
    _add_common(sub, max_iters=True, perturbation=True)
    sub.set_defaults(handler=_cmd_verify)

    sub = commands.add_parser("certify", help="certify the optimum under bounded error")
    _add_common(sub, max_iters=True)
    decision = sub.add_mutually_exclusive_group()
    _add_perturbation(decision)
    decision.add_argument(
        "--exact", action="store_true",
        help="decide with the exact worst-case test (one solve, no critical search)",
    )
    sub.add_argument(
        "--eps",
        required=True,
        help="error bound: a number for a uniform bound, or a grid file path",
    )
    sub.set_defaults(handler=_cmd_certify)

    sub = commands.add_parser("simulate", help="run a guidance simulation")
    _add_common(sub)
    sub.add_argument(
        "--policy", choices=("naive", "certified"), default="certified",
        help="re-assignment policy",
    )
    seeds = sub.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    seeds.add_argument(
        "--seeds", default=None,
        help="inclusive seed range A..B; runs one simulation per seed",
    )
    sub.set_defaults(handler=_cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (InfeasibleError, DegenerateOptimumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LapsensError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
