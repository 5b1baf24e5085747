"""End-to-end metrics from op results, per-layer metrics from spans."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import layer_of

# name -> unit, in the order printed.
END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "op_p50_s": "s",
    "op_hi_s": "s",
    "fail_rate": "ratio",
    "check_margin": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dp.calls": "count", "dp.unit_calls": "count", "dp.s": "s",
    "dp.free.s": "s", "dp.point.s": "s", "dp.halfline.s": "s",
    "dp.steps": "count", "dp.site_steps": "count",
    "potential.partial.calls": "count", "potential.partial.first_s": "s",
    "potential.partial.rest_s": "s",
    "potential.fourier.calls": "count", "potential.fourier.s": "s",
    "potential.table.s": "s", "potential.constants.s": "s",
    "ladder.height.calls": "count", "ladder.height.dp_share": "ratio",
    "ladder.pair.s": "s", "ladder.self_s": "s",
    "engine.calls": "count", "engine.self_s": "s", "engine.strip.s": "s",
    "engine.exact.s": "s", "verify.invariant.s": "s",
    "kernels.build.s": "s", "kernels.p_n.calls": "count",
    "kernels.p_n.misses": "count",
    "asymptotics.rhs.calls": "count", "asymptotics.self_s": "s",
    "verify.compare.s": "s", "verify.self_s": "s", "verify.rows": "count",
    "verify.skipped": "count",
    "report.s": "s", "report.bytes": "bytes", "cli.self_s": "s",
    "laws.s": "s",
    "trace.overhead": "ratio",
}

DP_MODES = {0: "free", 1: "point", 2: "halfline"}

COMPLETED = ("pass", "check-fail", "abort")


def high_percentile(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.  Below 20 samples no percentile above the median has
    ten beyond it, and the 90th percentile (nearest rank) is reported: the
    maximum up to 10 samples, the second largest from 11 to 19."""
    t = sorted(times)
    n = len(t)
    if n < 20:
        return t[math.ceil(0.9 * n) - 1], 90.0
    return t[n - 11], 100.0 * (n - 10) / n


def end_to_end(results: list[dict], rounds: int,
               setups: list[float]) -> tuple[dict, dict]:
    """(metric values, side facts printed with them)."""
    done = [r for r in results if r["outcome"] in COMPLETED]
    times = [r["time_s"] for r in done] or [0.0]
    hi, pct = high_percentile(times)
    margins = [c[1] / c[2] for r in results for c in r.get("checks", ())
               if c[3] and c[2] > 0]
    failed = sum(r["outcome"] != "pass" for r in results)
    values = {
        "setup_s": statistics.median(setups),
        "work_s": sum(times) / rounds,
        "op_p50_s": statistics.median(times),
        "op_hi_s": hi,
        "fail_rate": failed / len(results),
        "check_margin": max(margins, default=0.0),
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024.0,
    }
    facts = {"ops": len(results), "completed": len(done), "rounds": rounds,
             "op_hi_percentile": pct, "setups_s": setups}
    for outcome in ("pass", "check-fail", "abort", "timeout", "harness-error"):
        facts[outcome] = sum(r["outcome"] == outcome for r in results)
    return values, facts


# ---------------------------------------------------------------------------

def _walk(spans: list[dict]):
    """(op spans, node, outermost of its layer, outermost of its name)."""
    for s in spans:
        nodes = s["nodes"]
        for node in nodes[1:]:
            name, layer = node[0], layer_of(node[0])
            outer_layer = outer_name = True
            p = node[1]
            while p:
                pname = nodes[p][0]
                outer_layer &= layer_of(pname) != layer
                outer_name &= pname != name
                p = nodes[p][1]
            yield s, node, outer_layer, outer_name


def _dur(probe: dict) -> float:
    return probe["end"] - probe["start"]


def _partial_sum_calls(spans: list[dict]) -> tuple[list, list]:
    """Durations of a_partial_sums calls: the first per law in each op
    (which builds the table), and the later ones."""
    first, rest = [], []
    for s in spans:
        seen = set()
        for p in s["probes"]:
            if p["name"] == "potential.a_partial_sums":
                (rest if p["law"] in seen else first).append(_dur(p))
                seen.add(p["law"])
    return first, rest


def layer_metrics(spans: list[dict], rounds: int,
                  traced_work: float, plain_work: float) -> dict:
    """Per-layer metrics per round of the op plan, from traced ops."""
    calls = defaultdict(int)        # function -> calls
    incl = defaultdict(float)       # function -> outermost inclusive time
    self_s = defaultdict(float)     # layer -> self time
    layer_calls = defaultdict(int)
    layer_incl = defaultdict(float)
    misses = 0
    for s, node, outer_layer, outer_name in _walk(spans):
        name, parent = node[0], node[1]
        layer = layer_of(name)
        calls[name] += node[2]
        layer_calls[layer] += node[2]
        self_s[layer] += node[3] - node[4]
        if outer_name:
            incl[name] += node[3]
        if outer_layer:
            layer_incl[layer] += node[3]
        if (name == "engine.evolve_free"
                and s["nodes"][parent][0] == "kernels.WalkKernels.p_n"):
            misses += node[2]

    probes = [p for s in spans for p in s["probes"]]
    dp = [p for p in probes if p["name"] == "dp.run_dp"]
    ladder = [p for p in probes if p["name"] == "ladder.ladder_height_law"]
    grids = [p for p in probes if p["name"] == "verify.compare_grid"]
    first, rest = _partial_sum_calls(spans)

    def dp_time(mode):
        return sum(_dur(p) for p in dp if p["mode"] == mode)

    m = {
        "dp.calls": len(dp),
        "dp.unit_calls": sum(p["n"] == 1 for p in dp),
        "dp.s": incl["dp.run_dp"],
        "dp.free.s": dp_time(0), "dp.point.s": dp_time(1),
        "dp.halfline.s": dp_time(2),
        "dp.steps": sum(p["n"] for p in dp),
        "dp.site_steps": sum(p["n"] * p["w0"]
                             + (p["pmf"] - 1) * p["n"] * (p["n"] + 1) // 2
                             for p in dp),
        "potential.partial.calls": calls["potential.a_partial_sums"],
        "potential.partial.first_s": sum(first),
        "potential.partial.rest_s": sum(rest),
        "potential.fourier.calls": calls["potential.a_fourier"],
        "potential.fourier.s": incl["potential.a_fourier"],
        "potential.table.s": incl["potential.build_potential_table"],
        "potential.constants.s": incl["potential.constants"],
        "ladder.height.calls": len(ladder),
        "ladder.pair.s": incl["ladder.build_harmonic_pair"],
        "ladder.self_s": self_s["ladder"],
        "engine.calls": layer_calls["engine"],
        "engine.self_s": self_s["engine"],
        "engine.strip.s": incl["engine.strip_exit"],
        "engine.exact.s": (incl["engine.evolve_free_exact"]
                           + incl["engine.absorbed_at_origin_exact"]),
        "verify.invariant.s": incl["verify.invariant_suite"],
        "kernels.build.s": incl["kernels.build_kernels"],
        "kernels.p_n.calls": calls["kernels.WalkKernels.p_n"],
        "kernels.p_n.misses": misses,
        "asymptotics.rhs.calls": calls["asymptotics.rhs"],
        "asymptotics.self_s": self_s["asymptotics"],
        "verify.compare.s": incl["verify.compare_grid"],
        "verify.self_s": self_s["verify"],
        "verify.rows": sum(p["rows"] for p in grids),
        "verify.skipped": sum(p["skipped"] for p in grids),
        "report.s": layer_incl["report"],
        "report.bytes": sum(p["bytes"] for p in probes
                            if p["name"] == "report.atomic_write"),
        "cli.self_s": self_s["cli"],
        "laws.s": layer_incl["laws"],
    }
    m = {k: v / rounds for k, v in m.items()}
    m["ladder.height.dp_share"] = (
        sum(not p["exact"] for p in ladder) / len(ladder) if ladder else 0.0)
    m["trace.overhead"] = traced_work / plain_work - 1.0
    return {k: m[k] for k in PER_LAYER}


def self_times(op_spans: dict) -> dict:
    """Self time per layer of one op, plus the op's unattributed remainder;
    they sum to the op's traced wall time."""
    out = defaultdict(float)
    for node in op_spans["nodes"][1:]:
        out[layer_of(node[0])] += node[3] - node[4]
    root = op_spans["nodes"][0]
    out["unattributed"] = root[3] - root[4]
    return dict(out)


def baseline_rows(spans: list[dict], rounds: int) -> list[str]:
    """The layer rows of the ROADMAP baseline table, per round."""
    lines = []
    groups = defaultdict(list)
    for s in spans:
        for p in s["probes"]:
            if p["name"] == "dp.run_dp":
                groups[(DP_MODES[p["mode"]], p["n"])].append(_dur(p))
    for (mode, n), ts in sorted(groups.items()):
        lines.append(f"dp {mode:8s} n={n:<6d} calls {len(ts) / rounds:9.1f}"
                     f"  total {sum(ts) / rounds:9.4f} s"
                     f"  mean {1e3 * sum(ts) / len(ts):10.4f} ms")
    first, rest = _partial_sum_calls(spans)
    for label, ts in (("first", first), ("rest", rest)):
        if ts:
            lines.append(f"a_partial_sums {label:5s} calls {len(ts):4d}"
                         f"  mean {statistics.mean(ts):9.4f} s")
    for name, unit, scale in (("potential.build_potential_table", "s", 1),
                              ("potential.a_fourier", "ms", 1e3)):
        nodes = [n for s in spans for n in s["nodes"] if n[0] == name]
        calls = sum(n[2] for n in nodes)
        if calls:
            lines.append(f"{name.split('.')[1]} calls {calls}  mean "
                         f"{scale * sum(n[3] for n in nodes) / calls:9.4f} "
                         f"{unit}")
    return lines


def property_shares(laws) -> dict:
    """Share of ops per value of each recorded law property."""
    out = {}
    for prop in ("class", "span", "period", "ladder_path"):
        counts = defaultdict(int)
        for law in laws:
            counts[str(law.properties()[prop])] += 1
        out[prop] = {k: v / len(laws) for k, v in sorted(counts.items())}
    shares = sorted(law.subnormal_share for law in laws)
    out["subnormal_share"] = {"min": shares[0],
                              "median": statistics.median(shares),
                              "max": shares[-1]}
    return out
