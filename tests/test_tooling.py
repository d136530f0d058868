"""Names that perfbench's tracer resolves in `lapsens` must keep existing.

`perfbench/spans.py` wraps each `(module, attribute)` pair of its `TARGETS`
with `getattr` and patches `lapsens.cli.ThreadPoolExecutor`; a renamed or
deleted name stops `perfbench/run.py --trace 1` with `AttributeError`. The
list is read from the file's source, so nothing of the benchmark is run. The
tracer also relies on the program calling the solver through those module
attributes, which the naive sweep's test checks. The certified sweep's test
pins that certification stays on arrays.

The tie rule has one home: `_solver.TIE_RTOL` and `_solver.tie_tol`. Two
checks on the source of `src/` keep a second, absolute tolerance from coming
back.
"""
import ast
import importlib
from pathlib import Path

import lapsens._solver
import lapsens.sim
from lapsens import BipartiteInstance, Scenario, run_sweep

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SOURCES = sorted((ROOT / "src" / "lapsens").glob("*.py"))
# The only small float literals `src/` may hold: the tie rule's relative
# tolerance and the critical search's relative stop tolerance.
SMALL_CONSTANTS = {
    ("_solver", "TIE_RTOL"),
    ("perturb", "RELATIVE_STOP_TOL"),
}


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


def test_certified_step_builds_no_instance_and_one_fixed_mask_per_sweep(monkeypatch):
    # An unlocked certified step certifies on arrays: no `BipartiteInstance`.
    # The fixed edges come from one `sens_dense` mask per sweep, and each
    # `_certify_critical` call builds one one-map exchange kernel of its own.
    # The batched uniqueness kernel is still rebuilt only when the stack of
    # maps changes.
    calls = {
        "instances": 0,
        "sens_dense": 0,
        "_certify_critical": 0,
        "one_map_kernels": 0,
        "stacked_kernels": 0,
    }
    post_init = BipartiteInstance.__post_init__
    kernel_init = lapsens._solver.ExchangeKernel.__init__

    def counted_post_init(self):
        calls["instances"] += 1
        post_init(self)

    def counted_kernel_init(self, edge, task_to_agent):
        calls["one_map_kernels" if task_to_agent.ndim == 1 else "stacked_kernels"] += 1
        kernel_init(self, edge, task_to_agent)

    for module, name in [(lapsens._solver, "sens_dense"), (lapsens.sim, "_certify_critical")]:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(BipartiteInstance, "__post_init__", counted_post_init)
    monkeypatch.setattr(lapsens._solver.ExchangeKernel, "__init__", counted_kernel_init)
    scenario = Scenario(
        agent_positions=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
        target_positions=((0.0, 10.0), (1.0, 10.0), (2.0, 10.0)),
        speed=0.5,
        noise_bound=0.05,
        max_steps=200,
    )
    logs = list(run_sweep(scenario, range(4), "certified"))
    # Every optimum here is unique, so the solver's maps are the assignments.
    stacks = [
        [log.steps[k].assignment for log in logs if k <= log.certification_step]
        for k in range(max(log.certification_step for log in logs) + 1)
    ]
    changes = sum(a != b for a, b in zip([None] + stacks, stacks))
    # Every seed locks, on a search; the exact test spares the other steps some.
    searches = calls["_certify_critical"]
    assert len(logs) <= searches < sum(map(len, stacks))
    assert calls == {
        "instances": 0,
        "sens_dense": 1,
        "_certify_critical": searches,
        "one_map_kernels": searches + 1,
        "stacked_kernels": changes,
    }


def _names(node: ast.AST) -> set[str]:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def test_no_absolute_cost_tolerance_name_is_left():
    found = sorted({
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if "COST_TOL" in _names(node)
    })
    assert not found, f"COST_TOL is still named in {found}"


def test_small_float_literals_are_only_the_named_tolerances():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        allowed = {
            id(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and (path.stem, target.id) in SMALL_CONSTANTS
        }
        found += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-6
            and id(node) not in allowed
        ]
    assert not found, f"tolerances outside the tie rule and the stop rule: {found}"
