"""Checks of zetakit's outputs against the mpmath oracles and against
properties each method must have.  Every value-versus-bound comparison is
made in mpmath at oracles.DPS digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import mpmath as mp

import oracles
import workloads

PRINTED_FAIL_MIN = 0.1  # each published variant misses by more than this


def within(value: float, ref, allowance) -> bool:
    """|value - ref| <= allowance, at high precision."""
    with mp.workdps(oracles.DPS):
        return abs(mp.mpf(value) - ref) <= allowance


# --- library calls ------------------------------------------------------------------


def eval_ok(out: list, ref) -> bool:
    """An EvalResult [value, terms_used, error_bound] lies within its own bound."""
    value, terms, bound = out
    return terms >= 0 and within(value, ref, mp.mpf(bound))


def report_ok(rep: dict, variant: str, closed) -> str | None:
    """None when one verify report is right, else why not.

    A corrected-variant lhs must lie within tolerance plus its tail of the
    reference.  The verifier picks the depth whose tail bound is at most
    tolerance/2, so the allowance is 1.5 x tolerance.  A printed variant must
    fail, by more than PRINTED_FAIL_MIN against the reference too.
    """
    label = f"{rep['key']['id']}({rep['key']['param']}) {variant}"
    if rep["inconclusive"]:
        return f"{label}: inconclusive"
    if rep["variant"] != variant:
        return f"{label}: variant {rep['variant']}"
    if variant == "corrected":
        if not rep["pass"]:
            return f"{label}: failed"
        if rep["n_terms"] < 1 or not within(rep["lhs"], closed, mp.mpf(1.5) * mp.mpf(rep["tolerance"])):
            return f"{label}: lhs {rep['lhs']!r} not within 1.5 tol of {mp.nstr(closed, 20)}"
        return None
    if rep["pass"] or rep["abs_err"] <= PRINTED_FAIL_MIN or within(rep["lhs"], closed, PRINTED_FAIL_MIN):
        return f"{label}: published variant did not fail by > {PRINTED_FAIL_MIN}"
    return None


def verify_reports_ok(reports: list, ident: str, param, include_printed: bool) -> str | None:
    """The reports of one verify(key) call: the corrected variant, then the
    published variant for corrected entries when include_printed is set."""
    want = ["corrected"]
    if include_printed and ident in oracles.CORRECTED_IDS:
        want.append("printed")
    if [r["variant"] for r in reports] != want:
        return f"{ident}({param}): variants {[r['variant'] for r in reports]}"
    for rep, variant in zip(reports, want):
        if rep["key"] != {"id": ident, "param": param}:
            return f"{ident}({param}): report key {rep['key']}"
        why = report_ok(rep, variant, oracles.closed_form(ident, param, variant))
        if why:
            return why
    return None


def integral_ok(rep: dict, ident: str) -> str | None:
    """The worst grid point's quadrature value and closed form, against
    mpmath.quad and the mpmath closed form at some point of the grid."""
    if not rep["pass"] or rep["key"]["id"] != ident:
        return f"{ident}: failed"
    tol = mp.mpf(rep["tolerance"])
    for theta in oracles.THETA_GRID:
        lhs, rhs = oracles.integral_identity(ident, theta)
        if not within(float(lhs), rhs, mp.mpf(1e-14)):
            return f"{ident}: mpmath integral and closed form disagree at {theta}"
        if within(rep["lhs"], lhs, tol) and within(rep["rhs"], rhs, tol):
            return None
    return f"{ident}: lhs/rhs match no grid point"


def cross_check_ok(rep: dict) -> str | None:
    """The reported worst pair is two Cl2 values at one grid angle."""
    if not rep["pass"] or rep["abs_err"] > rep["tolerance"]:
        return "CL2_CROSS_CHECK: failed"
    n = rep["n_terms"]
    lo, hi = 0.05, 2.0 * math.pi - 0.05
    tol = mp.mpf(rep["tolerance"])
    for i in range(n):
        ref = oracles.cl2(lo + i * ((hi - lo) / (n - 1)))
        if within(rep["lhs"], ref, tol) and within(rep["rhs"], ref, tol):
            return None
    return "CL2_CROSS_CHECK: worst pair matches no grid angle"


def check_op(op: list, out) -> str | None:
    kind = op[0]
    if kind == "verify":
        return verify_reports_ok(out, op[1], op[2], op[3])
    if kind == "integral":
        return integral_ok(out, op[1])
    if kind == "cross_check":
        return cross_check_ok(out)
    ref = oracles.specfun_value(op)
    if not eval_ok(out, ref):
        value, _terms, bound = out
        with mp.workdps(oracles.DPS):
            err = abs(mp.mpf(value) - ref)
        return f"{op}: error {mp.nstr(err, 3)} > bound {bound:.3g}"
    return None


# --- cli-cold ---------------------------------------------------------------------

EXIT_OK = 0  # the documented success code; printed-variant failures keep it
CLI_TOL = 1e-10  # the CLI's default --tol
CLI_PARAM_LIMIT = 12  # the CLI's default --param-limit

_EVAL_LINE = re.compile(r"^value=(\S+) terms_used=(\d+) error_bound=(\S+)$")


def _printed_ok(text: str, ref) -> str | None:
    """One `compute` line: the printed value lies within the printed bound.

    Printing rounds the value to 16 significant digits and the bound to 4,
    so the allowance adds half a unit in the value's 16th digit and widens
    the bound by 5e-4 of itself.
    """
    m = _EVAL_LINE.match(text.strip())
    if not m:
        return f"unparsed output {text!r}"
    with mp.workdps(oracles.DPS):
        value = mp.mpf(m.group(1))
        digit = mp.mpf(10) ** (mp.floor(mp.log10(abs(value))) - 15) if value else mp.mpf(0)
        allowance = mp.mpf(m.group(3)) * (1 + mp.mpf(5e-4)) + digit / 2
        if abs(value - ref) > allowance:
            return f"value {m.group(1)} off {mp.nstr(ref, 20)} by more than {m.group(3)}"
    return None


def _verify_all_ok(reports: list, param_limit: int) -> str | None:
    keys = [(r["key"]["id"], r["key"]["param"], r["variant"]) for r in reports]
    want = []
    for ident, param, printed in workloads.verify_keys(param_limit):
        want.append((ident, param, "corrected"))
        if printed and ident in oracles.CORRECTED_IDS:
            want.append((ident, param, "printed"))
    if keys != want:
        return "verify --all: reports are not the catalogue in citation order"
    for rep, (ident, param, variant) in zip(reports, want):
        why = report_ok(rep, variant, oracles.closed_form(ident, param, variant))
        if why:
            return why
    return None


CONVERGE_ERR_SLACK = 1e-14  # float rounding of zetakit's partial sum and closed form


def _converge_ok(text: str) -> str | None:
    """Each row's terms_needed is the least depth at which the series, summed
    in mpmath, lies within the tolerance of zeta(3); its achieved_error is
    the mpmath error at that depth, up to float rounding."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if sorted(r["id"] for r in rows) != sorted(workloads.ZETA3_IDS):
        return "converge: rows are not the nine zeta(3) representations"
    terms = [int(r["terms_needed"]) for r in rows]
    if terms != sorted(terms):
        return "converge: rows not ranked by terms_needed"
    for r in rows:
        depth, err = oracles.zeta3_depth(r["id"], float(r["tolerance"]))
        if int(r["terms_needed"]) != depth:
            return f"converge: {r['id']} needs {depth} terms, not {r['terms_needed']}"
        if not within(float(r["achieved_error"]), err, mp.mpf(CONVERGE_ERR_SLACK)):
            return f"converge: {r['id']} error {r['achieved_error']}, mpmath {mp.nstr(err, 6)}"
    return None


def _list_ok(text: str) -> str | None:
    entries = json.loads(text)
    if [e["id"] for e in entries] != list(workloads.CATALOGUE_IDS):
        return "list: ids are not the catalogue in citation order"
    corrected = tuple(e["id"] for e in entries if e["status"] == "corrected")
    if corrected != oracles.CORRECTED_IDS:
        return f"list: corrected entries {corrected}"
    reps = tuple(e["id"] for e in entries if e["status"] == "representation")
    if reps != workloads.REPRESENTATIONS:
        return f"list: representations {reps}"
    return None


def cli_ok(argv: list[str], code: int, stdout: str) -> str | None:
    """One CLI command: documented exit code and output checked against mpmath."""
    label = " ".join(argv)
    if code != EXIT_OK:
        return f"{label}: exit {code}"
    try:
        why = _cli_output_ok(argv, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        why = f"unreadable output ({exc})"
    return f"{label}: {why}" if why else None


def _cli_output_ok(argv: list[str], stdout: str) -> str | None:
    cmd = argv[0]
    if cmd == "compute":
        what = argv[1]
        if what == "zeta3":
            ref = oracles.zeta3()
            m = _EVAL_LINE.match(stdout.strip())
            tol = float(argv[argv.index("--tol") + 1])
            if m and float(m.group(3)) > tol:
                return f"bound {m.group(3)} above --tol {tol}"
        elif what == "cl2":
            ref = oracles.cl2(float(argv[argv.index("--theta") + 1]))
        elif what == "catalan":
            ref = oracles.catalan()
        elif what == "beta":
            ref = oracles.beta(float(argv[2]))
        else:  # zetaE k
            ref = oracles.zeta_e_weighted(int(argv[2]))
        return _printed_ok(stdout, ref)
    if cmd == "verify":
        if "--all" in argv:
            return _verify_all_ok(json.loads(stdout), CLI_PARAM_LIMIT)
        if "--format" in argv:
            ident = argv[argv.index("--id") + 1]
            return verify_reports_ok(json.loads(stdout), ident, None, True)
        return _verify_text_ok(argv, stdout)
    if cmd == "converge":
        return _converge_ok(stdout)
    return _list_ok(stdout)


def _verify_text_ok(argv: list[str], stdout: str) -> str | None:
    """`verify --id X --m P` text: one passing line whose lhs, printed to 16
    digits, lies within 1.5 x the default tolerance of the reference."""
    ident = argv[argv.index("--id") + 1]
    param = int(argv[argv.index("--m") + 1])
    lines = stdout.strip().splitlines()
    m = re.search(r"lhs=\s*(\S+)", lines[0]) if len(lines) == 1 else None
    if not m or not lines[0].rstrip().endswith(" pass"):
        return "expected one passing line"
    closed = oracles.closed_form(ident, param)
    with mp.workdps(oracles.DPS):
        if abs(mp.mpf(m.group(1)) - closed) > 1.5 * mp.mpf(CLI_TOL) + abs(closed) * mp.mpf(1e-15):
            return f"lhs {m.group(1)} off {mp.nstr(closed, 20)}"
    return None
