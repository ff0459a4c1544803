"""Convergence benchmarking: minimal terms (and wall time) each identity
needs to hit a target tolerance, with CSV/JSON/Markdown export.
"""

from __future__ import annotations

import time
from collections import namedtuple

from . import catalog
from .catalog import CatalogKey, InconclusiveError

__all__ = ["ConvergenceProfile", "profile", "compare", "export", "COMPARE_TARGETS"]

COMPARE_TARGETS = ("zeta3", "catalan-relations", "all")

ConvergenceProfile = namedtuple("ConvergenceProfile",
                                "key tolerance terms_needed achieved_error wall_time_ns")


def _scan_to_tolerance(key: CatalogKey, target: float, tolerance: float) -> int:
    """Least summation depth N with |assembled(N) - target| <= tolerance."""
    offset, scale = catalog.assembly(key)
    cap = catalog.MAX_TERMS
    for terms, (n, value, _) in enumerate(catalog.partial_sums(key), 1):
        if abs(offset + scale * value - target) <= tolerance:
            return n
        if terms >= cap:
            raise InconclusiveError(f"{key.label()}: tolerance {tolerance:g} not reached at the {cap}-term cap")


def profile(key: CatalogKey, tolerance: float) -> ConvergenceProfile:
    """Minimal-terms profile of one identity against its own closed form.

    The scan is incremental (series terms are cheap, depths are small) and
    stops at the first depth that meets the tolerance.  Wall time is taken
    from a second, warm evaluation at the found depth: the first scan in a
    process fills specfun.zeta_even_table (a few tenths of a millisecond,
    against tens of microseconds per row), which would otherwise land on one
    row's timing.
    """
    catalog.check_tolerance(tolerance)
    target = catalog.closed_form(key)  # validates the key
    n = _scan_to_tolerance(key, target, tolerance)
    start = catalog.get(key.id).start_index
    t0 = time.perf_counter_ns()
    value = catalog.assembled_sum(key, n).value
    wall = time.perf_counter_ns() - t0
    achieved = abs(value - target)
    return ConvergenceProfile(key, tolerance, n - start + 1, achieved, wall)


def compare(target: str, tolerance: float) -> list[ConvergenceProfile]:
    """Profile every scalar identity tied to the target constant.

    "zeta3" selects the nine zeta(3) representations; "catalan-relations"
    the identities whose closed form is built on G; "all" every scalar
    identity in the registry.  Rows are sorted by terms_needed; the sort is
    stable, so ties keep citation order.
    """
    if target not in COMPARE_TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {COMPARE_TARGETS}")
    rows = []
    for entry in catalog.registry().values():
        if not entry.verifiable or entry.is_family:
            continue
        if target != "all" and target not in entry.targets:
            continue
        rows.append(profile(CatalogKey(entry.id), tolerance))
    rows.sort(key=lambda r: r.terms_needed)
    return rows


# the exported columns, in order; csv, markdown and json all take them from here
_COLUMNS = ("id", "paper_eq", "tolerance", "terms_needed", "achieved_error", "wall_time_ns")


def export(table: list[ConvergenceProfile], format: str) -> str:
    """Render a profile table as csv, json, or markdown.

    Floats are written with 17 significant digits (json: their shortest
    repr) so they reparse to the identical bit pattern.
    """
    rows = [dict(zip(_COLUMNS, (p.key.label(), catalog.get(p.key.id).paper_eq, p.tolerance,
                                p.terms_needed, p.achieved_error, p.wall_time_ns)))
            for p in table]
    if format == "json":
        import json

        return json.dumps(rows, indent=2) + "\n"
    lines = [_COLUMNS, *([f"{v:.17g}" if isinstance(v, float) else str(v) for v in r.values()]
                         for r in rows)]
    if format == "csv":
        return "".join(",".join(cells) + "\n" for cells in lines)
    if format == "markdown":
        lines.insert(1, ("---",) * len(_COLUMNS))
        return "".join(f"| {' | '.join(cells)} |\n" for cells in lines)
    raise ValueError(f"unknown format {format!r}")
