"""Names that perfbench's tracer resolves in `lapsens` must keep existing.

`perfbench/spans.py` wraps each `(module, attribute)` pair of its `TARGETS`
with `getattr` and patches `lapsens.cli.ThreadPoolExecutor`; a renamed or
deleted name stops `perfbench/run.py --trace 1` with `AttributeError`. The
list is read from the file's source, so nothing of the benchmark is run.
"""
import ast
import importlib
from pathlib import Path

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
