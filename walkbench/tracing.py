"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces every binding of every public function and
public method of walklab's layer modules with a wrapper that records a span
per call.  A binding is any module attribute that refers to the function,
so names bound by ``from``-imports (``ladder.absorbed_on_halfline``,
``cli.build_kernels``) are wrapped too, and one wrapper serves them all.

Spans are kept per calling context: calls of one function from the same
parent span are folded into one record holding their count, first start,
last end and summed duration.  A kernels-report op makes about 700k wrapped
calls, mostly ``laws`` helpers evaluated inside quadrature integrands, so
one record per call would not fit in memory or in the span file; folding
keeps self times exact, since a span's self time is its duration minus the
summed durations of its children.  A few functions whose single calls
matter (the DP, the partial-sum route, the ladder, the comparison grid,
file writes) also keep one *probe* record per call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("laws", "dp", "engine", "potential", "ladder", "kernels",
          "asymptotics", "verify", "report", "cli")

ROOT = "op"


def _bind(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _probe_run_dp(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    return {"n": a["n"], "mode": a["mode"], "w0": len(a["init_weights"]),
            "pmf": len(a["pmf"])}


def _probe_partial(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    return {"law": a["law"].name, "x": a["x"]}


def _probe_ladder(fn, args, kwargs, result):
    return {"exact": bool(result.exact)}


def _probe_compare(fn, args, kwargs, result):
    return {"rows": len(result.rows), "skipped": len(result.skipped)}


def _probe_write(fn, args, kwargs, result):
    return {"bytes": len(_bind(fn, args, kwargs)["data"].encode())}


PROBES = {
    "dp.run_dp": _probe_run_dp,
    "potential.a_partial_sums": _probe_partial,
    "ladder.ladder_height_law": _probe_ladder,
    "verify.compare_grid": _probe_compare,
    "report.atomic_write": _probe_write,
}


class Tracer:
    """Records spans while ``begin_op`` .. ``end_op`` brackets an op."""

    def __init__(self):
        self.active = False
        self.wrapped: dict[object, object] = {}   # original -> wrapper
        self._reset()

    def _reset(self):
        # node: [name, parent, calls, total_s, child_s, first_start, last_end]
        self.nodes: list[list] = [[ROOT, None, 0, 0.0, 0.0, None, None]]
        self.index: dict[tuple[int, str], int] = {}
        self.stack = [0]
        self.probes: list[dict] = []

    # -- recording -------------------------------------------------------

    def begin_op(self):
        self._reset()
        self.active = True
        self.nodes[0][5] = time.perf_counter()

    def end_op(self) -> dict:
        """Stop recording; the op's spans as JSON-able data."""
        end = time.perf_counter()
        self.active = False
        root = self.nodes[0]
        root[2], root[3], root[6] = 1, end - root[5], end
        return {"nodes": self.nodes, "probes": self.probes}

    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            nodes, index, stack = self.nodes, self.index, self.stack
            parent = stack[-1]
            key = (parent, name)
            nid = index.get(key)
            if nid is None:
                nid = index[key] = len(nodes)
                nodes.append([name, parent, 0, 0.0, 0.0, None, None])
            stack.append(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                node = nodes[nid]
                dur = t1 - t0
                node[2] += 1
                node[3] += dur
                if node[5] is None:
                    node[5] = t0
                node[6] = t1
                nodes[parent][4] += dur
            if probe is not None:
                rec = probe(fn, args, kwargs, result)
                rec.update(name=name, node=nid, start=t0, end=t1)
                self.probes.append(rec)
            return result

        traced.__wrapped_by_walkbench__ = True
        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every public function and method of the layer modules and
        rebind every module attribute that refers to one of them."""
        modules = {layer: importlib.import_module(f"walklab.{layer}")
                   for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self.wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and mname[0] != "_":
                            setattr(obj, mname, self._wrap(
                                meth, f"{layer}.{attr}.{mname}"))
        package = importlib.import_module("walklab")
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self.wrapped:
                    setattr(mod, attr, self.wrapped[obj])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
