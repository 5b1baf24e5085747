"""Deterministic file emission: CSV slices, comparison reports, summaries.

All writes go to a temp file in the target directory and are renamed
into place on success, so failures never leave partial artifacts.
"""

from __future__ import annotations

import io
import os
import tempfile

from .dp import Window
from .kernels import WalkKernels
from .potential import expansion_check
from .verify import ComparisonReport, InvariantResult, SlopeSummary


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def atomic_write(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".walklab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: tuple[str, ...], rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def emit_slice(mode: str, x: int, n: int, window: Window, path: str):
    """(mode, x, n, y, value) rows, one per site of the window, y ascending."""
    rows = ((mode, x, n, y, float(w))
            for y, w in zip(window.sites().tolist(), window.weights))
    atomic_write(path, csv_text(("mode", "x", "n", "y", "value"), rows))


def emit_comparison(report: ComparisonReport, path: str):
    rows = [(r.theorem, r.law, r.n, r.x, r.y, r.exact, r.rhs, r.rel_err)
            for r in report.rows]
    atomic_write(path, csv_text(
        ("theorem", "law", "n", "x", "y", "exact", "rhs", "rel_err"), rows))


def emit_potential_table(k: WalkKernels, path: str):
    rows = [(x, k.table.a(x), k.table.a_star(x), r) for x, r in
            zip(range(-k.table.X, k.table.X + 1),
                expansion_check(k.law, k.table, k.constants)[:, 1])]
    atomic_write(path, csv_text(("x", "a", "a_star", "expansion_residual"),
                                rows))


def emit_harmonic_tables(k: WalkKernels, path: str):
    rows = [(x, k.pair.fp(x), k.pair.fm(x),
             k.pair.u_plus[x], k.pair.u_minus[x])
            for x in range(1, k.pair.X + 1)]
    atomic_write(path, csv_text(("x", "f_plus", "f_minus", "u_plus",
                                 "u_minus"), rows))


def emit_entrance_laws(k: WalkKernels, path: str):
    rows = [("H_inf_plus", int(y), k.h_inf_plus.prob(y))
            for y in k.h_inf_plus.sites()]
    rows += [("H_minus_inf", int(y), k.h_minus_inf.prob(y))
             for y in k.h_minus_inf.sites()]
    atomic_write(path, csv_text(("kind", "y", "value"), rows))


def constants_block(k: WalkKernels) -> str:
    c = k.constants
    lines = [
        "constants:",
        f"  sigma2   = {_fmt(k.sigma2())} (exact {k.moments.sigma2})",
        f"  lambda3  = {_fmt(c.lambda3)} (exact {k.moments.lambda3})",
        f"  C_star   = {_fmt(c.c_star)} +- {_fmt(c.errors['c_star'])}",
        f"  C_plus   = {_fmt(c.c_plus)} +- {_fmt(c.errors['c_plus'])}"
        f" (entrance route {_fmt(k.c_plus_entrance)})",
        f"  C_minus  = {_fmt(c.c_minus)} +- {_fmt(c.errors['c_minus'])}"
        f" (entrance route {_fmt(k.c_minus_entrance)})",
        f"  period   = {k.structure.period}, class = {k.structure.shift}",
    ]
    return "\n".join(lines) + "\n"


def invariants_text(results: list[InvariantResult]) -> str:
    lines = ["invariant suite:"]
    for r in results:
        lines.append(f"  [{r.status:4s}] {r.name}: residual {_fmt(r.residual)}"
                     f" (tol {_fmt(r.tolerance)})"
                     + (f" -- {r.detail}" if r.detail else ""))
    return "\n".join(lines) + "\n"


def summary_text(rep: ComparisonReport, slopes: list[SlopeSummary],
                 k: WalkKernels | None = None) -> str:
    parts = []
    if k is not None:
        parts.append(constants_block(k))
    parts.append(f"theorem {rep.spec.theorem.value} on {rep.law_name}:")
    for n in rep.spec.ns:
        err = rep.max_rel_err(n)
        line = (f"  n={n}: no rows compared" if err is None
                else f"  n={n}: max rel_err {_fmt(err)}")
        if n in rep.tail_bounds:
            line += f", tail bound {_fmt(rep.tail_bounds[n])}"
        parts.append(line)
    for s in rep.skipped:
        parts.append(f"  skipped: {s}")
    if slopes:
        parts.append("convergence slopes (log rel_err vs log n; "
                     "tolerances are engineering calibrations, not paper "
                     "values):")
        for s in slopes:
            flag = "  ** non-decreasing" if s.flagged else ""
            parts.append(f"  {s.theorem} xi={s.xi} eta={s.eta}: "
                         f"slope {s.slope:.3f}, final rel_err "
                         f"{_fmt(s.final_rel_err)}{flag}")
    return "\n".join(parts) + "\n"
