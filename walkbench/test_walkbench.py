"""Tests of the benchmark itself (not of walklab).

    python3 -m pytest walkbench -q
"""

import dataclasses
import importlib
import inspect
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def tracer():
    t = tracing.Tracer()
    t.install()
    return t


def test_plans_repeat_for_a_seed_and_change_with_it():
    for workload in inputs.PLANNERS:
        a, b = inputs.make_plan(workload, 7), inputs.make_plan(workload, 7)
        assert a.ops == b.ops
        c = inputs.make_plan(workload, 8)
        assert a.ops != c.ops


def test_laws_are_valid_and_cover_every_class():
    from walklab import build_law
    seen = set()
    for seed in range(20):
        for workload in inputs.PLANNERS:
            for law in (op.law for op in inputs.make_plan(workload, seed).ops):
                built = build_law(law.pairs, law.name)
                assert sum(w for _, w in law.pairs) == 1
                assert law.span == built.zmax - built.zmin
                seen.add(law.cls)
                seen.add(law.name)
                assert 0.0 <= law.subnormal_share < 1.0
    assert set(inputs.CLASSES) <= seen
    assert {"srw", "l1", "span3"} <= seen


def test_known_failures_stay_in_the_plans():
    cells = {(s, th) for s, th, _, _ in inputs.VERIFY_SLOTS}
    assert ("span3", "C11") in cells and ("span3", "T11i") in cells
    for seed in range(10):
        plan = inputs.make_plan("verify-sweep", seed)
        cells = {(op.law.name, op.theorem, op.xi, op.eta) for op in plan.ops}
        # x = 96 at n = 16384 lies outside the default a(x) window of 80
        assert ("l1", "T11i", (0.65,), (0.2,)) in cells
        assert ("span3", "T11i", (0.2,), (0.2,)) in cells
        for op in inputs.make_plan("potential-routes", seed).ops:
            assert set(op.xs) == {-50, 50}


def _bindings():
    """(module, attribute, object) for every function-valued attribute of
    walklab and its layer modules, and every method of their classes."""
    mods = [importlib.import_module("walklab")] + [
        importlib.import_module(f"walklab.{m}") for m in tracing.LAYERS]
    for mod in mods:
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                yield mod, attr, obj
            elif inspect.isclass(obj) and obj.__module__.startswith("walklab"):
                for mname, meth in vars(obj).items():
                    if inspect.isfunction(meth):
                        yield obj, mname, meth


def _public_walklab(obj) -> bool:
    fn = inspect.unwrap(obj)
    return (fn.__module__.startswith("walklab.")
            and not fn.__name__.startswith("_"))


def test_every_binding_of_a_public_function_is_wrapped(tracer):
    missed = [f"{getattr(owner, '__name__', owner)}.{attr}"
              for owner, attr, obj in _bindings()
              if _public_walklab(obj)
              and not getattr(obj, "__wrapped_by_walkbench__", False)]
    assert missed == []
    from walklab import cli, kernels, ladder
    for fn in (ladder.absorbed_on_halfline, cli.build_kernels,
               kernels.WalkKernels.p_n):
        assert fn.__wrapped_by_walkbench__
    # nothing holds an unwrapped original in a module-level container
    for mod in (importlib.import_module(f"walklab.{m}")
                for m in tracing.LAYERS):
        for value in vars(mod).values():
            if isinstance(value, (dict, list, tuple, set)):
                items = value.values() if isinstance(value, dict) else value
                assert not any(inspect.isfunction(v) and _public_walklab(v)
                               and not hasattr(v, "__wrapped_by_walkbench__")
                               for v in items)


def test_no_call_bypasses_its_span(tracer):
    """Count every call of every wrapped function's code with a profiler
    and compare with the spans."""
    codes = {}
    for owner, attr, obj in _bindings():
        if getattr(obj, "__wrapped_by_walkbench__", False):
            codes[inspect.unwrap(obj).__code__] = None
    counts = dict.fromkeys(codes, 0)

    def prof(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    law = inputs.fixture("srw")
    op = inputs.Op("verify", law, theorem="T13", xi=(0.3,), eta=(0.3,),
                   ns=(16, 64))
    workdir = os.path.join(run.RUN_DIR, f"test-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        from ops import verify_op
        tracer.begin_op()
        sys.setprofile(prof)
        try:
            verify_op(op, workdir)
        finally:
            sys.setprofile(None)
        spans = tracer.end_op()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    by_name = {}
    for node in spans["nodes"][1:]:
        by_name[node[0]] = by_name.get(node[0], 0) + node[2]
    by_code = {}
    for owner, attr, obj in _bindings():
        if getattr(obj, "__wrapped_by_walkbench__", False):
            by_code[inspect.unwrap(obj).__code__] = obj.__qualname__
    called = {by_code[c]: n for c, n in counts.items() if n}
    assert called, "the op called no wrapped function"
    traced = {}
    for name, n in by_name.items():
        qual = name.split(".", 1)[1]
        traced[qual] = traced.get(qual, 0) + n
    assert called == traced


def _tiny(op):
    if op.kind == "potential":
        return dataclasses.replace(op, K=2 ** 10)
    if op.kind == "verify":
        return dataclasses.replace(op, ns=(16, 64))
    return op


@pytest.mark.parametrize("workload", sorted(inputs.PLANNERS))
def test_smoke_each_workload(workload, tracer):
    plan = inputs.make_plan(workload, 3)
    keep = plan.ops[:1] if workload != "kernels-report" else [
        op for op in plan.ops if op.law.name == "srw"]
    plan.ops = [_tiny(op) for op in keep]
    workroot = os.path.join(run.RUN_DIR, f"test-{os.getpid()}")
    deadline = time.monotonic() + 120
    try:
        plain = run.run_rounds(plan, 0.0, None, workroot, deadline)
        traced = run.run_rounds(plan, 0.0, tracer, workroot, deadline,
                                rounds=1)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    results = plain[0]
    assert all(r["outcome"] in metrics.COMPLETED for r in results)
    assert not [p for r in results for p in r["problems"]]
    e2e, facts = metrics.end_to_end(results, 1, [0.5])
    assert set(e2e) == set(metrics.END_TO_END)
    spans = [r["spans"] for r in traced[0]]
    work = sum(r["time_s"] for r in results)
    layer = metrics.layer_metrics(
        spans, 1, sum(r["time_s"] for r in traced[0]), work)
    assert set(layer) == set(metrics.PER_LAYER)
    for s in spans:
        st = metrics.self_times(s)
        assert sum(st.values()) == pytest.approx(s["nodes"][0][3], rel=1e-9)
    rows = " ".join(metrics.baseline_rows(spans, 1))
    if workload == "potential-routes":
        assert layer["potential.partial.calls"] == 2
        assert layer["dp.calls"] == 0
        assert "a_partial_sums first" in rows and "a_fourier" in rows
    else:
        assert layer["dp.calls"] > 0 and layer["kernels.build.s"] > 0
        assert "dp " in rows and "build_potential_table" in rows


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "walkbench",
                    ignore=shutil.ignore_patterns(".run", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "walkbench/run.py", "--workload", "verify-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
