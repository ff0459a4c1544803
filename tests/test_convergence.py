import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetakit import catalog
from zetakit.catalog import CatalogKey
from zetakit.convergence import compare, export, profile
from zetakit.specfun import riemann_zeta
from zetakit.verifier import InconclusiveError


def test_profile_examples():
    assert profile(CatalogKey("ZETA3_APERY_14"), 1e-10).terms_needed <= 20
    assert profile(CatalogKey("ZETA3_EWELL_16"), 1e-10).terms_needed <= 25
    assert profile(CatalogKey("SUM_23"), 1e-10).terms_needed <= 20


def test_profile_minimality():
    # every row's depth meets the tolerance and the depth one lower misses it
    for tol in (1e-8, 1e-10, 1e-12):
        for p in compare("all", tol):
            start = catalog.get(p.key.id).start_index
            n = start + p.terms_needed - 1
            closed = catalog.closed_form(p.key)
            assert abs(catalog.assembled_sum(p.key, n).value - closed) <= tol
            if n > start:
                assert abs(catalog.assembled_sum(p.key, n - 1).value - closed) > tol, (p.key, tol)


def test_profile_invariants():
    p = profile(CatalogKey("SUM_30"), 1e-10)
    assert p.achieved_error <= p.tolerance
    assert p.wall_time_ns >= 0
    assert p.terms_needed >= 1


def test_profile_monotone_in_tolerance():
    for id_ in ("SUM_23", "ZETA3_13", "RZS_LOG2"):
        loose = profile(CatalogKey(id_), 1e-6).terms_needed
        tight = profile(CatalogKey(id_), 1e-10).terms_needed
        assert loose <= tight


def test_profile_deterministic_apart_from_timing():
    a = profile(CatalogKey("ZETA3_17"), 1e-10)
    b = profile(CatalogKey("ZETA3_17"), 1e-10)
    assert (a.terms_needed, a.achieved_error) == (b.terms_needed, b.achieved_error)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 1e-14, -1.0])
def test_profile_and_compare_reject_bad_tolerance_before_scanning(tol, monkeypatch):
    # evaluate's check and message; NaN once ran all MAX_TERMS terms first
    def no_scan(*args):
        raise AssertionError("a scan started")

    monkeypatch.setattr(catalog, "partial_sums", no_scan)
    message = "tolerance must be finite and >= 1e-13"
    with pytest.raises(ValueError, match=message):
        profile(CatalogKey("SUM_23"), tol)
    with pytest.raises(ValueError, match=message):
        compare("all", tol)


def test_profile_inconclusive_under_cap(monkeypatch):
    monkeypatch.setattr(catalog, "MAX_TERMS", 3)
    with pytest.raises(InconclusiveError):
        profile(CatalogKey("RZS_ONE"), 1e-9)


@pytest.mark.parametrize("id_", ["ZETA3_EWELL_16", "ZETA3_17"])
def test_profile_term_cap_counts_terms(id_, monkeypatch):
    # the cap is on the number of terms, for start-0 and start-1 series alike
    key = CatalogKey(id_)
    needed = profile(key, 1e-10).terms_needed
    monkeypatch.setattr(catalog, "MAX_TERMS", needed - 1)
    with pytest.raises(InconclusiveError, match=f"{needed - 1}-term cap"):
        profile(key, 1e-10)
    monkeypatch.setattr(catalog, "MAX_TERMS", needed)
    assert profile(key, 1e-10).terms_needed == needed


def test_compare_zeta3():
    rows = compare("zeta3", 1e-10)
    assert len(rows) == 9
    z3 = riemann_zeta(3.0).value
    for p in rows:
        n = catalog.get(p.key.id).start_index + p.terms_needed - 1
        assert abs(catalog.assembled_sum(p.key, n).value - z3) <= 1e-10
    terms = {p.key.id: p.terms_needed for p in rows}
    # the 16^-n families beat the 4^-n families at equal tolerance
    for fast in ("ZETA3_17", "ZETA3_18", "ZETA3_19"):
        for slow in ("ZETA3_13", "ZETA3_CK_15", "ZETA3_EWELL_16"):
            assert terms[fast] < terms[slow]
    assert [p.terms_needed for p in rows] == sorted(p.terms_needed for p in rows)


def test_compare_row_order_is_deterministic():
    # ties in terms_needed keep citation order, whatever the timings
    rows = compare("zeta3", 1e-10)
    assert [p.key.id for p in compare("zeta3", 1e-10)] == [p.key.id for p in rows]
    cited = list(catalog.registry())
    for a, b in zip(rows, rows[1:]):
        if a.terms_needed == b.terms_needed:
            assert cited.index(a.key.id) < cited.index(b.key.id)
    assert [p.key.id for p in rows if p.terms_needed == 6] == ["ZETA3_12", "ZETA3_17", "ZETA3_18"]


def test_compare_other_targets():
    rows = compare("catalan-relations", 1e-10)
    assert [p.key.id for p in rows] == ["SUM_9"]
    everything = compare("all", 1e-9)
    assert len(everything) == sum(
        1 for e in catalog.registry().values() if e.verifiable and not e.is_family
    )
    with pytest.raises(ValueError):
        compare("pi", 1e-9)


def test_export_csv():
    rows = compare("zeta3", 1e-10)
    text = export(rows, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "id,paper_eq,tolerance,terms_needed,achieved_error,wall_time_ns"
    assert len(lines) == 10
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        # 17-significant-digit floats reparse to identical bit patterns
        assert float(fields[2]) == 1e-10
    by_id = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    for p in rows:
        assert float(by_id[p.key.label()][4]) == p.achieved_error


def test_export_json_and_markdown():
    rows = compare("zeta3", 1e-10)
    data = json.loads(export(rows, "json"))
    assert len(data) == len(rows)
    assert set(data[0]) == {"id", "paper_eq", "tolerance", "terms_needed",
                            "achieved_error", "wall_time_ns"}
    md = export(rows, "markdown")
    md_lines = md.strip().split("\n")
    assert md_lines[0].startswith("| id |")
    assert len(md_lines) == len(rows) + 2
    assert all(line.startswith("|") and line.endswith("|") for line in md_lines)
    with pytest.raises(ValueError):
        export(rows, "yaml")


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False))
def test_seventeen_digit_round_trip(x):
    assert float(format(x, ".17g")) == x
