"""Names that perfbench's tracer resolves in `lapsens` must keep existing.

`perfbench/spans.py` wraps each `(module, attribute)` pair of its `TARGETS`
with `getattr` and patches `lapsens.cli.ThreadPoolExecutor`; a renamed or
deleted name stops `perfbench/run.py --trace 1` with `AttributeError`. The
list is read from the file's source, so nothing of the benchmark is run. The
tracer also relies on the program calling the solver through those module
attributes, which the last test checks for a seed sweep.
"""
import ast
import importlib
from pathlib import Path

import lapsens._solver
from lapsens import Scenario, run_sweep

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_targets() -> list[tuple[str, str, str]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no TARGETS list")


def test_every_traced_name_resolves():
    targets = _traced_targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"perfbench traces names lapsens no longer has: {missing}"


def test_patched_executor_name_exists():
    assert hasattr(importlib.import_module("lapsens.cli"), "ThreadPoolExecutor")


def test_naive_step_calls_solver_through_module_attributes(monkeypatch):
    # The tracer sees a sweep's solves only if the sweep looks these names up
    # on `lapsens._solver` at call time: one `solve_dense` per seed and step,
    # and one `unique_optima` pass per lockstep step over every live seed.
    calls = {"solve_dense": 0, "unique_optima": 0}
    for name in calls:
        original = getattr(lapsens._solver, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(lapsens._solver, name, counted)
    scenario = Scenario(
        agent_positions=tuple((float(i), 0.0) for i in range(4)),
        target_positions=tuple((float(i), 10.0) for i in range(4)),
        speed=0.25,
        noise_bound=0.05,
        max_steps=200,
    )
    lengths = [len(log.steps) for log in run_sweep(scenario, range(4, 8), "naive")]
    assert len(set(lengths)) > 1
    assert calls == {"solve_dense": sum(lengths), "unique_optima": max(lengths)}
