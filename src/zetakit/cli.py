"""Command-line surface: compute | verify | converge | list.

Exit codes: 0 success, 1 verification failure (other than the documented
published-variant discrepancies), 2 usage error, 3 inconclusive checks.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .specfun import EvalResult

__all__ = ["main", "build_parser"]

# Each subcommand imports the layers it runs, so that a one-shot command
# loads (and compiles) only those; building the parser imports none.

CONSTANTS = ("zeta", "zeta3", "catalan", "gamma", "beta", "cl2", "zetaE")

ZETA3_METHOD_ALIASES = {
    "apery": "ZETA3_APERY_14",
    "ewell": "ZETA3_EWELL_16",
    "cvijovic-klinowski": "ZETA3_CK_15",
}


def _bounded(kind: type, lo: float, hi: float, name: str):
    """An argparse type that parses with kind and accepts [lo, hi] only."""

    def parse(text: str):
        value = kind(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{name} must be in [{lo:g}, {hi:g}]")
        return value

    parse.__name__ = kind.__name__
    return parse


_tolerance = _bounded(float, 1e-13, 1e-2, "tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetakit",
        description="Exact/float toolkit for rational zeta series, Cl2, and zeta(3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one constant")
    p_compute.add_argument("constant", choices=CONSTANTS)
    p_compute.add_argument("value", nargs="?", default=None,
                           help="argument for zeta/beta (real) or zetaE (integer)")
    p_compute.add_argument("--theta", type=float, default=None, help="angle in radians for cl2")
    p_compute.add_argument("--method", default=None,
                           help="zeta3: catalog id, apery/ewell/cvijovic-klinowski, or direct; "
                                "cl2: direct/accel/peeled/wzl/auto")
    p_compute.add_argument("--tol", type=_tolerance, default=1e-10)
    # argparse takes a token that starts with '-' for an option unless this pattern
    # matches it; the stock one has no exponent and no -inf or -nan (spelt as float()
    # takes them), and refused --theta -1e6, -5e-324 and -inf
    p_compute._negative_number_matcher = re.compile(r"-\.?\d|-(inf|infinity|nan)$", re.IGNORECASE)

    p_verify = sub.add_parser("verify", help="verify catalogued identities")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", dest="all_ids")
    group.add_argument("--id", dest="id", default=None)
    p_verify.add_argument("--m", type=int, default=None, help="family parameter m")
    p_verify.add_argument("--k", type=int, default=None, help="family parameter k")
    p_verify.add_argument("--tol", type=_tolerance, default=1e-10)
    p_verify.add_argument("--param-limit", type=_bounded(int, 1, 64, "param-limit"), default=None,
                          help="largest family parameter, --all only (default 12)")
    p_verify.add_argument("--format", default="text", choices=("text", "json"))
    p_verify.add_argument("--out", default=None)

    p_conv = sub.add_parser("converge", help="rank identities by convergence speed")
    p_conv.add_argument("--target", default="zeta3",
                        help="zeta3, catalan-relations or all (default zeta3)")
    p_conv.add_argument("--tol", type=_tolerance, default=1e-10)
    p_conv.add_argument("--format", default="csv", choices=("csv", "json", "markdown"))
    p_conv.add_argument("--out", default=None)

    p_list = sub.add_parser("list", help="dump the identity registry")
    p_list.add_argument("--format", default="text", choices=("text", "json"))
    p_list.add_argument("--out", default=None)

    return parser


def _emit(text: str, out: str | None, parser: argparse.ArgumentParser) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write --out {out}: {exc.strerror or exc}")  # exits 2


def _compute_zeta3(method: str | None, tol: float) -> EvalResult | None:
    """zeta(3) directly, or by a catalogued series; None, with the reason on
    stderr, when the series reaches the term cap first."""
    from .specfun import riemann_zeta

    if method is None or method == "direct":
        return riemann_zeta(3.0)
    from .catalog import CatalogKey, InconclusiveError, evaluate, registry

    ident = ZETA3_METHOD_ALIASES.get(method.lower(), method.upper())
    if ident not in [e.id for e in registry().values() if "zeta3" in e.targets]:
        raise ValueError(f"unknown zeta3 method {method!r}")
    try:
        return evaluate(CatalogKey(ident), tol)
    except InconclusiveError as exc:
        print(str(exc), file=sys.stderr)
        return None


def _cmd_compute(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .specfun import (catalan, clausen_cl2, dirichlet_beta, euler_gamma, riemann_zeta,
                          zeta_e_weighted)

    # constant -> (the inputs besides --tol it reads, any other being a usage
    # error; the input it needs and how the error names it; how it runs)
    rows = {
        "zeta": (("value",), ("value", "an argument s"), lambda: riemann_zeta(float(args.value))),
        "zeta3": (("method",), None, lambda: _compute_zeta3(args.method, args.tol)),
        "catalan": ((), None, catalan),
        "gamma": ((), None, euler_gamma),
        "beta": (("value",), ("value", "an argument s"), lambda: dirichlet_beta(float(args.value))),
        "cl2": (("theta", "method"), ("theta", "--theta"),
                lambda: clausen_cl2(args.theta, args.method or "auto")),
        "zetaE": (("value",), ("value", "an integer k"), lambda: zeta_e_weighted(int(args.value))),
    }
    reads, needs, run = rows[args.constant]
    for name, flag in (("value", "argument"), ("theta", "--theta"), ("method", "--method")):
        if getattr(args, name) is not None and name not in reads:
            parser.error(f"compute {args.constant} takes no {flag}")
    if needs is not None and getattr(args, needs[0]) is None:
        parser.error(f"compute {args.constant} needs {needs[1]}")
    try:
        res = run()
    except (ValueError, KeyError) as exc:
        parser.error(str(exc.args[0] if exc.args else exc))  # exits 2; str(KeyError) is a repr
    if res is None:
        return 3
    print(f"value={res.value:.16g} terms_used={res.terms_used} error_bound={res.error_bound:.3e}")
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .catalog import CatalogKey, get
    from .verifier import reports_to_json, reports_to_text, verify, verify_all

    try:
        if args.all_ids:
            if args.m is not None or args.k is not None:
                raise ValueError(f"verify --all takes no --{'m' if args.m is not None else 'k'}")
            reports = verify_all(args.tol, args.param_limit or 12)
        else:
            if args.param_limit is not None:
                raise ValueError("verify --id takes no --param-limit")
            name = get(args.id).param_name  # a family takes its own flag only
            if name is not None and (args.k if name == "m" else args.m) is not None:
                raise ValueError(f"{args.id} takes --{name}, not --{'k' if name == 'm' else 'm'}")
            param = args.m if args.m is not None else args.k
            reports = verify(CatalogKey(args.id, param), args.tol)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc.args[0] if exc.args else exc))
    text = reports_to_json(reports) if args.format == "json" else reports_to_text(reports)
    _emit(text, args.out, parser)
    statuses = {r.status for r in reports}
    if "INCONCLUSIVE" in statuses:
        return 3
    return 1 if "FAIL" in statuses else 0  # a "FAIL (expected-discrepancy)" is documented


def _cmd_converge(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .catalog import InconclusiveError
    from .convergence import compare, export

    try:
        table = compare(args.target, args.tol)
    except InconclusiveError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))
    _emit(export(table, args.format), args.out, parser)
    return 0


def _cmd_list(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .catalog import list_identities

    summaries = list_identities()
    if args.format == "json":
        import json

        text = json.dumps([s._asdict() for s in summaries], indent=2)
    else:
        width = max(len(s.id) for s in summaries)
        text = "\n".join(
            f"{s.id:<{width}}  {s.paper_eq:<9}  {s.status:<14} {s.description}" for s in summaries
        )
    _emit(text, args.out, parser)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compute":
        return _cmd_compute(args, parser)
    if args.command == "verify":
        return _cmd_verify(args, parser)
    if args.command == "converge":
        return _cmd_converge(args, parser)
    return _cmd_list(args, parser)


if __name__ == "__main__":
    sys.exit(main())
