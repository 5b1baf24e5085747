"""walklab benchmark: one workload, one seed, one JSON result line.

    python3 walkbench/run.py --workload verify-sweep --seed 1 --seconds 5 \
        --trace 0

Run from the root of a walklab checkout; the library is imported from its
``src/`` directory.  Load is a closed loop with one client: this process
imports walklab, draws the workload's round of ops from the seed (see
``inputs.py``) and runs the ops one at a time, each in a forked child, so
every op starts with walklab's caches empty, as a fresh ``walklab`` command
does.  Rounds repeat until ``--seconds`` have passed; a round is never cut.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
rounds untraced, then one round traced, prints the per-layer metrics and the
layer rows of the ROADMAP baseline table, and writes every span to
``walkbench/.run/``.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback

# One BLAS thread: the loop runs one op at a time and the parent sleeps
# meanwhile, so at most one core computes and timings do not depend on how
# many cores the machine has.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(BENCH, ".run")

SETUPS = 3                 # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170.0        # every run ends within 180 s


def _fail(msg: str) -> None:
    print(f"walkbench: {msg}", file=sys.stderr)
    sys.exit(2)


def setup(workload: str, seed: int):
    """Import walklab.cli from the checkout and draw the inputs; returns
    (seconds, plan)."""
    t0 = time.perf_counter()
    if not os.path.isdir(os.path.join(SRC, "walklab")):
        _fail(f"no walklab sources under {SRC}")
    sys.path.insert(0, SRC)
    import walklab
    import walklab.cli  # noqa: F401 - the import is what is timed
    from inputs import make_plan
    if not os.path.abspath(walklab.__file__).startswith(SRC + os.sep):
        _fail(f"walklab imported from {walklab.__file__}, not {SRC}")
    plan = make_plan(workload, seed)
    return time.perf_counter() - t0, plan


def setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Ops in forked children.

def _child(op, workdir: str, tracer, deadline_s: int, wfd: int) -> None:
    """Body of the forked child; never returns."""
    payload = {}
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        signal.alarm(deadline_s)
        from ops import OPS
        os.makedirs(workdir)
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        payload = OPS[op.kind](op, workdir)
        payload["time_s"] = time.perf_counter() - t0
        if tracer is not None:
            payload["spans"] = tracer.end_op()
        data = json.dumps(payload).encode()
    except BaseException:  # noqa: BLE001 - reported to the parent
        data = json.dumps({"outcome": "harness-error",
                           "problems": [traceback.format_exc()]}).encode()
    try:
        with os.fdopen(wfd, "wb") as f:
            f.write(data)
    finally:
        os._exit(0)


def run_op(op, workdir: str, tracer, deadline: float) -> dict:
    remaining = math.floor(deadline - time.monotonic())
    if remaining < 1:
        return {"outcome": "timeout", "problems": ["run time limit"],
                "maxrss_kb": 0}
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(op, workdir, tracer, remaining, wfd)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as f:
        data = f.read()
    _, status, usage = os.wait4(pid, 0)
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        res = {"outcome": "timeout" if sig == signal.SIGALRM
               else "harness-error",
               "problems": [f"op killed by signal {sig}"]}
    else:
        try:
            res = json.loads(data)
        except ValueError:
            res = {"outcome": "harness-error",
                   "problems": [f"unreadable op result {data[:200]!r}"]}
    res["maxrss_kb"] = usage.ru_maxrss
    shutil.rmtree(workdir, ignore_errors=True)
    return res


def run_rounds(plan, seconds: float, tracer, workroot: str, deadline: float,
               rounds: int | None = None):
    """Run whole rounds until ``seconds`` have passed (or ``rounds``
    rounds); returns the list of rounds, each a list of op results."""
    start = time.monotonic()
    out = []
    while True:
        t0 = time.monotonic()
        results = []
        for i, op in enumerate(plan.ops):
            res = run_op(op, os.path.join(workroot, f"r{len(out)}-op{i}"),
                         tracer, deadline)
            res["op"] = i
            results.append(res)
        out.append(results)
        now = time.monotonic()
        if rounds is not None and len(out) >= rounds:
            break
        if rounds is None and now - start >= seconds:
            break
        if now + (now - t0) > deadline:
            break
    return out


# ---------------------------------------------------------------------------

def machine_info() -> dict:
    import numpy
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(f"{base}/{index}/level") as f:
                level = f.read().strip()
            with open(f"{base}/{index}/type") as f:
                kind = f.read().strip()
            with open(f"{base}/{index}/size") as f:
                caches[f"L{level} {kind}"] = f.read().strip()
        except OSError:
            continue
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _summarise(values: dict, units: dict, facts: dict | None = None):
    for name, unit in units.items():
        line = f"{name:28s} {values[name]:.6g} {unit}"
        if facts is not None:
            line += f"  (ops {facts['ops']}, rounds {facts['rounds']})"
            if name == "op_hi_s":
                line += f"  percentile p{facts['op_hi_percentile']:.1f}"
        print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    setup_s, plan = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    from metrics import (END_TO_END, PER_LAYER, baseline_rows, end_to_end,
                         layer_metrics, property_shares, self_times)
    setups = [setup_s] + [setup_in_fresh_process(args.workload, args.seed)
                          for _ in range(SETUPS - 1)]

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    workroot = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(workroot, exist_ok=True)
    try:
        plain = run_rounds(plan, args.seconds, None, workroot, deadline)
        traced = []
        if args.trace:
            traced = run_rounds(plan, 0.0, tracer, workroot, deadline,
                                rounds=1)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    results = [r for rnd in plain for r in rnd]
    e2e, facts = end_to_end(results, len(plain), setups)
    problems = [f"op {r['op']}: {p}" for r in results
                for p in r.get("problems", ())]
    for r in (r for rnd in traced for r in rnd):
        if r["outcome"] == "harness-error":
            problems += r["problems"]
    # Outputs must not depend on the round or on tracing.
    digests = [[r.get("digest", "") for r in rnd] for rnd in plain + traced]
    problems += [f"op {i}: output differs between rounds or when traced"
                 for i, d in enumerate(zip(*digests)) if len(set(d)) > 1]
    outputs = hashlib.sha256("".join(digests[0]).encode()).hexdigest()

    info = machine_info()
    print(f"workload {args.workload} seed {args.seed}: {facts['ops']} ops in "
          f"{facts['rounds']} round(s); pass {facts['pass']}, check-fail "
          f"{facts['check-fail']}, abort {facts['abort']}, timeout "
          f"{facts['timeout']}, harness-error {facts['harness-error']}")
    print(f"outputs sha256 {outputs} (digest of the op digests, in op "
          "order; a change between commits is reported, not failed)")
    print("machine " + json.dumps(info, sort_keys=True))
    print("law properties, share of ops " + json.dumps(
        property_shares([op.law for op in plan.ops])))
    for i, op in enumerate(plan.ops):
        r = plain[0][i]
        print(f"op {i} {op.kind} {op.law.name} {op.theorem} "
              f"{r['outcome']} {r.get('time_s', float('nan')):.3f} s "
              f"digest {r.get('digest', '')[:16]} {r.get('detail', '')}"[:200])
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "machine": info,
              "laws": [dict(name=op.law.name, **op.law.properties(),
                            pairs=op.law.json_doc()["pairs"])
                       for op in plan.ops],
              "end_to_end": e2e, "facts": facts, "outputs_sha256": outputs,
              "results": plain, "problems": problems}
    if args.trace:
        spans = [r["spans"] for rnd in traced for r in rnd if "spans" in r]
        plain_work = e2e["work_s"]
        traced_done = [r for rnd in traced for r in rnd if "time_s" in r]
        traced_work = sum(r["time_s"] for r in traced_done) / len(traced)
        metrics = layer_metrics(spans, len(traced), traced_work, plain_work)
        units = PER_LAYER
        record["per_layer"] = metrics
        record["spans"] = [
            {"op": r["op"], "round": k, "self_s": self_times(r["spans"]),
             **r["spans"]}
            for k, rnd in enumerate(traced) for r in rnd if "spans" in r]
        print("baseline rows (per round):")
        for line in baseline_rows(spans, len(traced)):
            print("  " + line)
        print(f"  import walklab.cli + inputs: median {e2e['setup_s']:.4f} s"
              f" of {', '.join(f'{s:.4f}' for s in setups)}")
    else:
        metrics = e2e
        units = END_TO_END
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(
        RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)
    print(f"record written to {os.path.relpath(path, ROOT)}")
    _summarise(metrics, units, None if args.trace else facts)

    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(r["outcome"] != "pass" for r in results),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
