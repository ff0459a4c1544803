"""catalog.depth_for: the least depth whose scaled tail bound clears tol/2."""

import math

import pytest

from zetakit import catalog
from zetakit.catalog import CatalogKey, InconclusiveError

TOLERANCES = (1e-13, 1e-9, 1e-4, 1e-2)

FAMILY_IDS = [e.id for e in catalog.registry().values() if e.verifiable and e.is_family]


def _keys():
    keys = []
    for e in catalog.registry().values():
        if not e.verifiable:
            continue
        if e.is_family:
            keys.extend(CatalogKey(e.id, p) for p in (*range(e.param_min, 13), 32))
        else:
            keys.append(CatalogKey(e.id))
    return keys


def _scale(key):
    entry = catalog.get(key.id)
    return abs(entry.scale_fn(key.param)) if entry.scale_fn is not None else 1.0


def _linear_scan(key, tolerance):
    scale = _scale(key)
    n = catalog.get(key.id).start_index
    while scale * catalog.tail_bound(key, n) > tolerance / 2:
        n += 1
    return n


def _closure_point(key):
    # the suffix table from start_index runs up to the geometric closure
    entry = catalog.get(key.id)
    return entry.start_index + len(entry.tails_fn(key.param, entry.start_index))


@pytest.mark.parametrize("key", _keys(), ids=CatalogKey.label)
def test_depth_for_matches_linear_scan(key):
    for tol in TOLERANCES:
        assert catalog.depth_for(key, tol) == _linear_scan(key, tol), tol


@pytest.mark.parametrize("id_", FAMILY_IDS)
def test_family_tail_bound_is_exactly_non_increasing(id_):
    entry = catalog.get(id_)
    for p in (entry.param_min, 5, 12, 32):
        key = CatalogKey(id_, p)
        closure = _closure_point(key)
        bounds = [catalog.tail_bound(key, n) for n in range(entry.start_index, closure + 2)]
        assert all(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])), key.label()


@pytest.mark.parametrize("id_", FAMILY_IDS)
def test_family_suffix_table_matches_tail_fn(id_):
    entry = catalog.get(id_)
    key = CatalogKey(id_, 12)
    start = entry.start_index
    table = entry.tails_fn(key.param, start)
    assert table == [entry.tail_fn(key.param, start + i) for i in range(len(table))]
    # past the closure point each table is the O(1) closure tail alone
    assert len(entry.tails_fn(key.param, start + len(table))) == 1


@pytest.mark.parametrize("key", [CatalogKey("RZS_ONE"), CatalogKey("ZETA3_EWELL_16"),
                                 CatalogKey("THM_21", 5), CatalogKey("SUM_37", 3)],
                         ids=CatalogKey.label)
def test_depth_for_term_cap(key, monkeypatch):
    depth = catalog.depth_for(key, 1e-10)
    monkeypatch.setenv("ZETAKIT_MAX_TERMS", str(depth))
    assert catalog.depth_for(key, 1e-10) == depth
    monkeypatch.setenv("ZETAKIT_MAX_TERMS", str(depth - 1))
    with pytest.raises(InconclusiveError):
        catalog.depth_for(key, 1e-10)


def test_depth_for_inconclusive_under_small_cap(monkeypatch):
    monkeypatch.setenv("ZETAKIT_MAX_TERMS", "4")
    for key in (CatalogKey("ZETA3_EWELL_16"), CatalogKey("SUM_28", 32)):
        with pytest.raises(InconclusiveError, match="4-term cap"):
            catalog.depth_for(key, 1e-10)


@pytest.mark.parametrize("tol", [1e-14, 1e-20, 0.0, -1.0, math.nan, math.inf, -math.inf])
def test_depth_for_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        catalog.depth_for(CatalogKey("ZETA3_APERY_14"), tol)
