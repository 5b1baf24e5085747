"""Command-line front end.

Subcommands: validate, compute, kernels, verify, report.  Exit codes:
0 success, 1 computation or verification failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import engine, report, verify
from .asymptotics import TheoremId
from .errors import WalklabError
from .kernels import build_kernels
from .laws import lattice_structure, load_law, moments


def _distinct(parse, s: str):
    v = tuple(parse(v) for v in s.split(","))
    if len(set(v)) < len(v):    # a repeated value would repeat its rows
        raise argparse.ArgumentTypeError(f"{s!r}: need distinct values")
    return v


def _ints(s: str):
    return _distinct(int, s)


def _floats(s: str):
    return _distinct(float, s)


# argparse takes a value such as "-0.2,0.2" for an option string and exits
# 2; main joins a value that starts with "-" to one of these flags, as
# "--eta=-0.2,0.2", which argparse reads as the value
SIGNED_FLAGS = ("--xi", "--eta", "--ys", "--n")


def _join_signed(argv: list[str]) -> list[str]:
    out: list[str] = []
    for a in argv:
        if (out and out[-1] in SIGNED_FLAGS and a.startswith("-")
                and not a.startswith("--")):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def _where(parse, ok, need: str):
    """An argparse type: parse the text, then require ok of every value."""
    def convert(s: str):
        v = parse(s)
        if not all(map(ok, v if isinstance(v, tuple) else (v,))):
            raise argparse.ArgumentTypeError(f"{s!r}: need {need}")
        return v
    return convert


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="walklab",
        description="Exact kernels and asymptotic laws for mean-zero "
                    "lattice walks with absorption.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a step-law config")
    v.add_argument("--law", required=True)

    c = sub.add_parser("compute", help="emit an n-step kernel slice as CSV")
    c.add_argument("--law", required=True)
    c.add_argument("--mode", required=True,
                   choices=["free", "point", "halfline", "partial"])
    c.add_argument("--x", type=int, required=True)
    c.add_argument("--n", type=_where(int, lambda n: n >= 0, "n >= 0"),
                   required=True)
    c.add_argument("--alpha", default=0.5, type=_where(
        float, lambda a: 0.0 <= a <= 1.0, "0 <= alpha <= 1"))
    c.add_argument("--out", required=True)

    k = sub.add_parser("kernels", help="build and dump potential/ladder "
                                       "tables and constants")
    k.add_argument("--law", required=True)
    k.add_argument("--out-dir", required=True)
    k.add_argument("--table-window", default=80,
                   type=_where(int, lambda x: x >= 1, "table window >= 1"))
    k.add_argument("--pair-window", default=400,
                   type=_where(int, lambda x: x >= 1, "pair window >= 1"))

    # a grid flag not given keeps GridSpec's default: each sets the field
    # it names as dest
    w = sub.add_parser("verify", help="compare a limit theorem against "
                                      "the exact engine on a scaled grid",
                       argument_default=argparse.SUPPRESS)
    w.add_argument("--law", required=True)
    w.add_argument("--theorem", required=True,
                   choices=[t.value for t in TheoremId])
    w.add_argument("--xi", dest="xis",
                   type=_where(_floats, math.isfinite, "finite xi"))
    w.add_argument("--eta", dest="etas",
                   type=_where(_floats, math.isfinite, "finite eta"))
    w.add_argument("--n", dest="ns",
                   type=_where(_ints, lambda n: n >= 1, "n >= 1"))
    w.add_argument("--alpha", type=_where(
        float, lambda a: 0.0 < a <= 1.0, "0 < alpha <= 1"))
    w.add_argument("--ell", type=_where(
        _where(float, math.isfinite, "finite ell"), lambda e: e > 0.0,
        "ell > 0"))
    w.add_argument("--a-circ", dest="a_circ", type=_where(
        float, lambda a: math.isfinite(a) and a > 0.0, "finite a_circ > 0"))
    w.add_argument("--ys", dest="ys_literal", type=_ints,
                   help="literal y values (entrance-law theorems)")
    w.add_argument("--tol", default=0.15, type=_where(
        float, lambda t: math.isfinite(t) and t >= 0.0, "finite tol >= 0"),
        help="max relative error at the largest n (engineering calibration)")
    w.add_argument("--out", required=True)
    w.add_argument("--summary", default=None)

    r = sub.add_parser("report", help="run the invariant suite and emit "
                                      "a summary")
    r.add_argument("--law", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--n-big", default=4096,
                   type=_where(int, lambda n: n >= 1, "n_big >= 1"))
    return p


def cmd_validate(args) -> int:
    law = load_law(args.law)
    m = moments(law)
    s = lattice_structure(law)
    print(f"law {law.name}: valid")
    print(f"  sigma2 = {m.sigma2}, E[Y^3] = {m.m3}, lambda3 = {m.lambda3}")
    print(f"  period = {s.period}, congruence class = {s.shift}")
    print(f"  left_continuous = {m.left_continuous}, "
          f"right_continuous = {m.right_continuous}")
    return 0


def cmd_compute(args) -> int:
    law = load_law(args.law)
    run = {"free": engine.evolve_free, "point": engine.absorbed_at_origin,
           "halfline": engine.absorbed_on_halfline,
           "partial": lambda law, x, n: engine.partial_absorption(
               law, args.alpha, x, n)}[args.mode]
    res = run(law, args.x, args.n)
    report.emit_slice(args.mode, args.x, args.n, res, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_kernels(args) -> int:
    law = load_law(args.law)
    k = build_kernels(law, table_X=args.table_window, pair_X=args.pair_window)
    os.makedirs(args.out_dir, exist_ok=True)
    report.emit_potential_table(k, os.path.join(args.out_dir, "potential.csv"))
    report.emit_harmonic_tables(k, os.path.join(args.out_dir, "harmonic.csv"))
    report.emit_entrance_laws(k, os.path.join(args.out_dir, "entrance.csv"))
    text = report.constants_block(k)
    report.atomic_write(os.path.join(args.out_dir, "constants.txt"), text)
    print(text, end="")
    return 0


# the flag of each GridSpec field a theorem may not read
GRID_FLAGS = {"xis": "--xi", "etas": "--eta", "ys_literal": "--ys",
              "alpha": "--alpha", "ell": "--ell", "a_circ": "--a-circ"}


def _grid_spec(args, parser: argparse.ArgumentParser) -> verify.GridSpec:
    """The verify grid of the flags given; a flag whose value the theorem
    would drop (verify.unread_fields) is a usage error."""
    spec = verify.GridSpec(TheoremId(args.theorem), **{
        f: getattr(args, f) for f in ("ns", *GRID_FLAGS) if hasattr(args, f)})
    for f in verify.unread_fields(spec):
        parser.error(f"argument {GRID_FLAGS[f]}: {args.theorem} does not "
                     f"read it")
    return spec


def cmd_verify(args) -> int:
    law = load_law(args.law)
    k = build_kernels(law)
    spec = args.spec
    rep = verify.compare_grid(spec, k)
    slopes = verify.convergence_report(rep)
    report.emit_comparison(rep, args.out)
    text = report.summary_text(rep, slopes, k)
    if args.summary:
        report.atomic_write(args.summary, text)
    print(text, end="")
    n = max(spec.ns)
    final_err = rep.max_rel_err(n)
    if final_err is None:
        print(f"FAIL: no comparable cells at n={n} "
              f"({len(rep.skipped)} skipped)")
        return 1
    if final_err > args.tol:
        print(f"FAIL: max rel_err {final_err:.3g} at n={n} "
              f"exceeds tol {args.tol}")
        return 1
    print(f"PASS: max rel_err {final_err:.3g} at n={n}")
    return 0


def cmd_report(args) -> int:
    law = load_law(args.law)
    k = build_kernels(law)
    results = verify.invariant_suite(law, k, n_big=args.n_big)
    text = report.constants_block(k) + report.invariants_text(results)
    report.atomic_write(args.out, text)
    print(text, end="")
    return 1 if any(r.status == "fail" for r in results) else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _join_signed(sys.argv[1:] if argv is None else list(argv)))
    if args.command == "verify":
        args.spec = _grid_spec(args, parser)
    handlers = {"validate": cmd_validate, "compute": cmd_compute,
                "kernels": cmd_kernels, "verify": cmd_verify,
                "report": cmd_report}
    try:
        return handlers[args.command](args)
    except WalklabError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
