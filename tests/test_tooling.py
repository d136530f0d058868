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
back. So has the canonical solve, `_solver.solve_canonical`: a third keeps a
second copy of it out of `sim`. A fourth keeps tolerance parameters out of
the public functions and the commands, since every tolerance comes from the
weights.
"""
import argparse
import ast
import importlib
from pathlib import Path

import lapsens._solver
import lapsens.sim
from lapsens import BipartiteInstance, Scenario, run_sweep
from lapsens.cli import build_parser

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
    # on `lapsens._solver` at call time. Each lockstep step after the first
    # runs one `unique_optima` pass over every live seed's previous map, and
    # keeps the maps it accepts. `solve_canonical` runs on each seed's first
    # step and wherever the previous map was not kept: one `solve_dense` and
    # one `unique_optima` pass each. The noise ties no optimum here, so a map
    # is kept exactly where the seed does not reassign.
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
    logs = list(run_sweep(scenario, range(4, 8), "naive"))
    lengths = [len(log.steps) for log in logs]
    assert len(set(lengths)) > 1
    solves = sum(1 + log.reassignments for log in logs)
    assert calls == {"solve_dense": solves, "unique_optima": max(lengths) - 1 + solves}


def _count_kernel_builds(monkeypatch, calls: dict) -> None:
    """Count `ExchangeKernel` builds in `calls`, one-matrix and stacked apart."""
    kernel_init = lapsens._solver.ExchangeKernel.__init__

    def counted_kernel_init(self, shape):
        calls["one_matrix_kernels" if len(shape) == 2 else "stacked_kernels"] += 1
        kernel_init(self, shape)

    monkeypatch.setattr(lapsens._solver.ExchangeKernel, "__init__", counted_kernel_init)


def _count_calls(monkeypatch, calls: dict, module, name: str) -> None:
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_certified_step_builds_no_instance_and_kernels_only_to_test_maps(monkeypatch):
    # An unlocked certified step certifies on arrays: no `BipartiteInstance`,
    # and no sensitivity pass for the fixed edges. A kernel is built per
    # shape, not per matching. Each `_certify_critical` call builds one
    # one-matrix kernel for all of its passes, and so does each solve, for
    # its uniqueness test. The sweep keeps one stacked kernel for the
    # previous maps of the seeds that still solve, whatever those maps are,
    # and rebuilds it only when their number changes.
    calls = {
        "instances": 0,
        "sens_dense": 0,
        "_certify_critical": 0,
        "one_matrix_kernels": 0,
        "stacked_kernels": 0,
    }
    post_init = BipartiteInstance.__post_init__

    def counted_post_init(self):
        calls["instances"] += 1
        post_init(self)

    _count_calls(monkeypatch, calls, lapsens._solver, "sens_dense")
    _count_calls(monkeypatch, calls, lapsens.sim, "_certify_critical")
    monkeypatch.setattr(BipartiteInstance, "__post_init__", counted_post_init)
    _count_kernel_builds(monkeypatch, calls)
    scenario = Scenario(
        agent_positions=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
        target_positions=((0.0, 10.0), (1.0, 10.0), (2.0, 10.0)),
        speed=0.5,
        noise_bound=0.05,
        max_steps=200,
    )
    logs = list(run_sweep(scenario, range(4), "certified"))
    # Every optimum here is unique, so a map is kept exactly where the seed
    # does not reassign. Step k solves the seeds that lock at k or later.
    last = max(log.certification_step for log in logs)
    solving = [[log for log in logs if k <= log.certification_step] for k in range(last + 1)]
    solves = sum(not k or log.steps[k].reassigned for k in range(last + 1) for log in solving[k])
    sizes = [len(solving[k]) for k in range(1, last + 1)]
    stacked_builds = sum(size != before for size, before in zip(sizes, [None] + sizes))
    # Every seed locks, on a search; the exact test spares the other steps some.
    searches = calls["_certify_critical"]
    assert len(logs) <= searches < sum(map(len, solving))
    # Seeds only ever stop solving, so the stack shrinks at most once per seed.
    assert 1 < stacked_builds <= len(logs)
    assert calls == {
        "instances": 0,
        "sens_dense": 0,
        "_certify_critical": searches,
        "one_matrix_kernels": searches + solves,
        "stacked_kernels": stacked_builds,
    }


def test_critical_search_builds_one_kernel_for_every_pass(monkeypatch):
    # `critical_search` and `analyze` build one kernel for all of their
    # passes, and `is_critical` one for both of its; none of them calls
    # `sens_dense`, so no pass builds a kernel of its own.
    instance = BipartiteInstance.from_matrix([[4, 1, 3], [2, 0, 5], [3, 2, 2], [9, 9, None]])
    optimum = lapsens.solve_lap(instance).assignment
    calls = {"one_matrix_kernels": 0, "stacked_kernels": 0, "sens_dense": 0}
    _count_kernel_builds(monkeypatch, calls)
    _count_calls(monkeypatch, calls, lapsens._solver, "sens_dense")
    report = lapsens.critical_search(instance, optimum)
    assert report.iterations > 10
    assert calls == {"one_matrix_kernels": 1, "stacked_kernels": 0, "sens_dense": 0}
    assert lapsens.analyze(instance).critical_iterations == report.iterations
    assert lapsens.is_critical(instance, optimum, report.perturbation)
    assert calls == {"one_matrix_kernels": 3, "stacked_kernels": 0, "sens_dense": 0}


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


def _public_functions(body: list[ast.stmt]):
    """The public functions and methods of public classes among `body`'s definitions."""
    for node in body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from _public_functions(node.body)


def test_no_tolerance_is_settable():
    found = [
        f"{path.stem}.{node.name}({arg.arg})"
        for path in SOURCES
        if path.stem == "__init__" or not path.stem.startswith("_")
        for node in _public_functions(ast.parse(path.read_text()).body)
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg in ("tol", "stop_tol")
    ]
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    # argparse takes `--tol` for any option it abbreviates.
    found += [
        f"lapsens {name} {option}"
        for name, sub in commands.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--tol")
    ]
    assert not found, f"tolerances that do not come from the weights: {found}"


def _references(name: str) -> list[tuple[str, str | None]]:
    """(module, enclosing top-level definition) of every node of `src/` that names `name`."""
    return [
        (path.stem, getattr(top, "name", None))
        for path in SOURCES
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if name in _names(node)
    ]


def test_only_the_canonical_solve_runs_the_tie_break():
    assert _references("canonical_assignment") == [("_solver", "solve_canonical")]
    in_sim = [
        name
        for name in ("solve_dense", "canonical_assignment", "sens_dense")
        if any(module == "sim" for module, _ in _references(name))
    ]
    assert not in_sim, f"sim.py solves outside `_solver.solve_canonical`: {in_sim}"


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
