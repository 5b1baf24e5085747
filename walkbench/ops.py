"""The benchmark's operations.  Each runs in a forked child of the run's
parent process (see ``run.py``), so it starts with walklab's caches empty,
as a fresh ``walklab`` command does.

An op returns a JSON-able dict:

* ``outcome``: "pass", "check-fail" (a library check or a benchmark check
  on the result failed) or "abort" (walklab raised, or a command exited 1
  with an error);
* ``checks``: ``[name, residual, tolerance, passed]`` rows, taken from the
  library's own checks;
* ``problems``: outputs that contradict themselves (a verdict that does
  not match the table it was computed from, an unparsable file).  These
  make the run incorrect, unlike a failed check;
* ``digest``: sha256 of the op's output bytes, so a change in output
  between commits shows.  A changed digest is not a failure.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re

from inputs import POTENTIAL_GAP_TOL, Op

VERIFY_TOL = 0.15              # the CLI's default --tol
REL_ERR_FLOOR = 1e-16          # verify.REL_ERR_FLOOR


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _digest(parts) -> str:
    h = hashlib.sha256()
    for name, data in parts:
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _dir_digest(paths) -> str:
    parts = []
    for p in paths:
        with open(p, "rb") as f:
            parts.append((os.path.basename(p), f.read()))
    return _digest(parts)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one walklab command in-process; (exit code, stdout, stderr).

    An exception that escapes ``cli.main`` would end a real ``walklab``
    process with exit code 1 and a traceback, so it is reported that way.
    """
    from walklab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as e:  # noqa: BLE001 - the CLI's own boundary
            rc = 1
            print(f"error: {type(e).__name__}: {e}", file=err)
    return rc, out.getvalue(), err.getvalue()


def _write_law(op: Op, workdir: str) -> str:
    path = os.path.join(workdir, "law.json")
    with open(path, "w") as f:
        json.dump(op.law.json_doc(), f)
    return path


def _result(outcome, checks, problems, digest, detail="") -> dict:
    return {"outcome": outcome, "checks": checks, "problems": problems,
            "digest": digest, "detail": detail}


# ---------------------------------------------------------------------------

def potential_op(op: Op, workdir: str) -> dict:
    """a(x) by both routes over the op's x set; fails if a gap exceeds the
    criterion-04 tolerance."""
    from walklab import build_law
    from walklab.errors import WalklabError
    from walklab.potential import a_fourier, a_partial_sums

    checks, lines = [], []
    try:
        law = build_law(op.law.pairs, op.law.name)
        for x in op.xs:
            ps, bound = a_partial_sums(law, x, K=op.K)
            fo = float(a_fourier(law, x))
            gap = abs(ps - fo)
            checks.append([f"a({x}) route gap", gap, POTENTIAL_GAP_TOL,
                           gap <= POTENTIAL_GAP_TOL])
            lines.append(f"{x},{_fmt(ps)},{_fmt(bound)},{_fmt(fo)}\n")
    except WalklabError as e:
        return _result("abort", checks, [], "", f"{type(e).__name__}: {e}")
    problems = [f"a({x}) is not finite" for x, c in zip(op.xs, checks)
                if not math.isfinite(c[1])]
    digest = _digest([("a.csv", "".join(lines).encode())])
    outcome = "pass" if all(c[3] for c in checks) else "check-fail"
    return _result(outcome, checks, problems, digest)


# ---------------------------------------------------------------------------

def _verify_problems(rows, rc: int, stdout: str, n_max: int) -> list[str]:
    """The comparison table must agree with itself and with the verdict."""
    problems = []
    final = 0.0
    for r in rows:
        exact, rel = float(r["exact"]), float(r["rel_err"])
        want = abs(exact - float(r["rhs"])) / max(abs(exact), REL_ERR_FLOOR)
        if not math.isclose(rel, want, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"row n={r['n']} x={r['x']} y={r['y']}: rel_err "
                            f"{rel!r} != |exact-rhs|/|exact| {want!r}")
        if int(r["n"]) == n_max:
            final = max(final, rel)
    says_fail = "FAIL:" in stdout
    if says_fail != (rc == 1) or (rows and says_fail != (final > VERIFY_TOL)):
        problems.append(f"verdict (exit {rc}) does not match the table's "
                        f"max rel_err {final!r} at n={n_max}")
    return problems


def verify_op(op: Op, workdir: str) -> dict:
    """One ``walklab verify`` call."""
    law_path = _write_law(op, workdir)
    out = os.path.join(workdir, "cmp.csv")
    argv = ["verify", "--law", law_path, "--theorem", op.theorem,
            "--xi", ",".join(map(str, op.xi)),
            "--eta", ",".join(map(str, op.eta)),
            "--n", ",".join(map(str, op.ns)), "--out", out]
    rc, stdout, stderr = _cli(argv)
    if rc != 0 and stderr.startswith("error:"):
        return _result("abort", [], [], "", stderr.strip())
    if rc not in (0, 1):
        return _result("abort", [], [f"exit code {rc}: {stderr.strip()}"], "")
    try:
        with open(out, "rb") as f:
            table = f.read()
        rows = list(csv.DictReader(io.StringIO(table.decode())))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        return _result("check-fail", [], [f"cmp.csv: {e}"], "")
    n_max = max(op.ns)
    final = max((float(r["rel_err"]) for r in rows if int(r["n"]) == n_max),
                default=0.0)
    problems = _verify_problems(rows, rc, stdout, n_max)
    digest = _digest([("cmp.csv", table), ("stdout", stdout.encode())])
    if not rows:
        return _result("check-fail", [], problems, digest,
                       "compared zero rows")
    checks = [[f"{op.theorem} max rel_err at n={n_max}", final, VERIFY_TOL,
               rc == 0]]
    return _result("pass" if rc == 0 else "check-fail", checks, problems,
                   digest)


# ---------------------------------------------------------------------------

_INVARIANT = re.compile(r"^\s+\[(pass|fail|skip)\s*\] (.*): residual (\S+) "
                        r"\(tol (\S+)\)")


def kernels_report_op(op: Op, workdir: str) -> dict:
    """``walklab kernels`` then ``walklab report`` on one law."""
    law_path = _write_law(op, workdir)
    tables = os.path.join(workdir, "tables")
    report_path = os.path.join(workdir, "report.txt")
    rc, stdout, stderr = _cli(["kernels", "--law", law_path,
                               "--out-dir", tables])
    if rc != 0:
        return _result("abort", [], [], "", "kernels: " + stderr.strip())
    rc, stdout, stderr = _cli(["report", "--law", law_path,
                               "--out", report_path])
    if rc != 0 and stderr.startswith("error:"):
        return _result("abort", [], [], "", "report: " + stderr.strip())
    checks, problems = [], []
    with open(report_path) as f:
        text = f.read()
    for line in text.splitlines():
        m = _INVARIANT.match(line)
        if m and m.group(1) != "skip":
            checks.append([m.group(2), float(m.group(3)), float(m.group(4)),
                           m.group(1) == "pass"])
    if not checks:
        problems.append("report.txt lists no invariant results")
    if (rc == 1) != any(not c[3] for c in checks):
        problems.append(f"exit code {rc} does not match the invariant list")
    files = sorted(os.path.join(tables, n) for n in os.listdir(tables))
    digest = _dir_digest(files + [report_path])
    failed = [c[0] for c in checks if not c[3]]
    return _result("check-fail" if failed else "pass", checks, problems,
                   digest, "; ".join(failed))


OPS = {"potential": potential_op, "verify": verify_op,
       "kernels-report": kernels_report_op}
