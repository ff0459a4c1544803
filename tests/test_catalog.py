import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetakit import catalog, exact
from zetakit.catalog import CatalogKey
from zetakit.specfun import riemann_zeta

PI = math.pi

SCALAR_IDS = [e.id for e in catalog.registry().values() if e.verifiable and not e.is_family]
FAMILY_IDS = [e.id for e in catalog.registry().values() if e.verifiable and e.is_family]


def _keys_up_to(param_limit):
    keys = [CatalogKey(i) for i in SCALAR_IDS]
    for i in FAMILY_IDS:
        entry = catalog.get(i)
        keys.extend(CatalogKey(i, p) for p in range(entry.param_min, param_limit + 1))
    return keys


# --- registry shape -----------------------------------------------------------

def test_registry_size_and_content():
    summaries = catalog.list_identities()
    assert len(summaries) >= 33
    by_id = {s.id: s for s in summaries}
    assert by_id["SUM_23"].paper_eq == "Eq. (23)"
    assert by_id["THM_21"].params == "integer m >= 1"
    assert all(s.status in ("as-printed", "corrected", "representation") for s in summaries)
    assert all(s.paper_eq for s in summaries)
    assert {s.id for s in summaries if s.status == "corrected"} == {"SUM_28", "SUM_34"}
    assert {s.id for s in summaries if s.status == "representation"} == {
        "CL2_ACCEL_8", "CL2_PEELED_10", "CL2_WZL_11",
    }


def test_list_order_is_deterministic():
    assert [s.id for s in catalog.list_identities()] == [s.id for s in catalog.list_identities()]


# --- terms ---------------------------------------------------------------------

def test_term_examples():
    assert catalog.term(CatalogKey("SUM_23"), 1) == pytest.approx(PI ** 2 / 24, rel=1e-14)
    assert catalog.term(CatalogKey("ZETA3_EWELL_16"), 0) == -0.25
    assert catalog.term(CatalogKey("THM_21", 3), 1) == 0.0
    # SUM_23 summand at n = 2 is zeta(4)/16
    assert catalog.term(CatalogKey("SUM_23"), 2) == pytest.approx(PI ** 4 / 90 / 16, rel=1e-14)


def test_term_and_key_errors():
    with pytest.raises(KeyError):
        catalog.term(CatalogKey("SUM_999"), 1)
    with pytest.raises(ValueError):
        catalog.term(CatalogKey("THM_21"), 1)  # missing parameter
    with pytest.raises(ValueError):
        catalog.term(CatalogKey("THM_21", 0), 1)  # below domain
    with pytest.raises(ValueError):
        catalog.term(CatalogKey("SUM_23", 4), 1)  # parameter on a scalar
    with pytest.raises(ValueError):
        catalog.term(CatalogKey("SUM_23"), 0)  # below start index
    for below_start in (catalog.tail_bound, catalog.partial_sum):
        with pytest.raises(ValueError, match="start index"):
            below_start(CatalogKey("SUM_23"), 0)
    with pytest.raises(ValueError):
        catalog.partial_sum(CatalogKey("CL2_ACCEL_8"), 5)  # representation


NOT_INTS = [5.0, True, "5"]


@pytest.mark.parametrize("bad", NOT_INTS, ids=repr)
def test_family_param_must_be_an_int(bad):
    # a float or bool param used to run (closed_form of THM_21(5.0) gave 0.2,
    # THM_21(True) ran as m = 1) or fail inside math.comb
    key = CatalogKey("THM_21", bad)
    for call in (catalog.closed_form, catalog.assembly, lambda k: catalog.evaluate(k, 1e-10),
                 lambda k: catalog.term(k, 1), lambda k: catalog.tail_bound(k, 1)):
        with pytest.raises(ValueError, match=r"^THM_21 parameter m must be an int, not "):
            call(key)


@pytest.mark.parametrize("bad", NOT_INTS, ids=repr)
@pytest.mark.parametrize("call", [catalog.term, catalog.tail_bound, catalog.partial_sum, catalog.assembled_sum],
                         ids=lambda f: f.__name__)
def test_depth_argument_must_be_an_int(call, bad):
    for key in (CatalogKey("SUM_22"), CatalogKey("THM_21", 3)):
        with pytest.raises(ValueError, match="must be an int"):
            call(key, bad)


# --- closed forms -----------------------------------------------------------------

def test_closed_form_examples():
    assert catalog.closed_form(CatalogKey("SUM_23")) == 0.5
    assert catalog.closed_form(CatalogKey("SUM_30")) == pytest.approx(
        math.log(PI / (2 * math.sqrt(2))), rel=1e-15
    )
    assert catalog.closed_form(CatalogKey("THM_21", 2)) == pytest.approx(PI ** 2 / 8 - 0.5, rel=1e-15)
    assert catalog.closed_form(CatalogKey("THM_21", 5)) == pytest.approx(0.2, rel=1e-15)


def test_closed_form_internal_consistency_exact():
    # shared derivation chains must agree bit for bit
    assert catalog.closed_form(CatalogKey("THM_21", 2)) == catalog.closed_form(CatalogKey("SUM_25"))
    assert catalog.closed_form(CatalogKey("THM_21", 3)) == catalog.closed_form(CatalogKey("SUM_24")) / 3.0
    assert catalog.closed_form(CatalogKey("THM_29", 1)) == 2.0 * catalog.closed_form(CatalogKey("SUM_31"))
    assert catalog.closed_form(CatalogKey("THM_29", 2)) == catalog.closed_form(CatalogKey("SUM_33"))


# The closed forms as pi polynomials with Fraction coefficients, built from the
# textbook Bernoulli and Euler references and summed as float(coeff) * pi**power
# in ascending power order.  The catalogue builds the same coefficients from
# exact.pi_ratio as integer quotients; every float must agree bit for bit.

def _fraction_pi_poly(coeffs):
    acc = 0.0
    for power in sorted(coeffs):
        acc += float(coeffs[power]) * PI ** power
    return acc


def _fraction_closed_forms(lb):
    """{(id, param, printed): coefficient map} for every pi-polynomial closed form;
    lb[m] is lambda(m)/pi^m for even m and beta(m)/pi^m for odd m."""
    maps = {
        ("SUM_23", None, False): {0: Fraction(1, 2)},
        ("SUM_24", None, False): {0: Fraction(1)},
        ("SUM_25", None, False): {0: Fraction(-1, 2), 2: Fraction(1, 8)},
        ("SUM_26", None, False): {2: Fraction(1, 16)},
        ("SUM_27", None, False): {2: Fraction(3, 32)},
        ("SUM_31", None, False): {0: Fraction(1, 2), 1: Fraction(-1, 8)},
        ("SUM_33", None, False): {0: Fraction(-1, 2), 2: Fraction(1, 16)},
        ("SUM_34", None, False): {0: Fraction(1), 3: Fraction(-1, 32)},
        ("SUM_34", None, True): {0: Fraction(1), 3: Fraction(-1, 96)},
        ("SUM_35", None, False): {1: Fraction(-1, 16), 2: Fraction(1, 32)},
        ("SUM_36", None, False): {1: Fraction(-1, 32), 2: Fraction(3, 64), 3: Fraction(-1, 128)},
    }
    for p in range(1, catalog.PARAM_CAP + 1):
        sign = 1 if p % 2 == 0 else -1
        maps["THM_21", p, False] = ({0: Fraction(1, p)} if p % 2 else
                                    {0: -Fraction(1, p), p: 2 * lb[p] / p})
        maps["THM_29", p, False] = {0: -sign * Fraction(1, p), p: sign * lb[p] / p}
        tail = Fraction(1, 2 * p * (2 * p - 1))
        maps["SUM_28", p, False] = {0: tail, 2 * p: lb[2 * p] / p}
        maps["SUM_28", p, True] = {0: -tail, 2 * p: lb[2 * p] / p}
        maps["SUM_37", p, False] = {2 * p: lb[2 * p] / (2 * p)}
    for k in range(0, catalog.PARAM_CAP + 1):
        maps["SUM_38", k, False] = {2 * k + 1: lb[2 * k + 1] / (2 * k + 1)}
    return maps


def test_closed_forms_match_the_fraction_route_bit_for_bit(lambda_beta_ref):
    exact.pi_ratio.cache_clear()
    maps = _fraction_closed_forms(lambda_beta_ref)
    for (id_, param, printed), coeffs in maps.items():
        key = CatalogKey(id_, param)
        got = catalog.printed_closed_form(key) if printed else catalog.closed_form(key)
        assert got.hex() == _fraction_pi_poly(coeffs).hex(), (key, printed)
    # every family parameter up to the cap is covered
    for id_ in FAMILY_IDS:
        entry = catalog.get(id_)
        assert {p for i, p, _ in maps if i == id_} == set(range(entry.param_min, catalog.PARAM_CAP + 1))
    # the closed forms read exact.pi_ratio at exactly m = 1 .. 2 * PARAM_CAP + 1
    assert exact.pi_ratio.cache_info().currsize == 2 * catalog.PARAM_CAP + 1


def test_printed_variants():
    corr = catalog.closed_form(CatalogKey("SUM_34"))
    printed = catalog.printed_closed_form(CatalogKey("SUM_34"))
    assert corr == pytest.approx(1 - PI ** 3 / 32, rel=1e-15)
    assert printed == pytest.approx(1 - PI ** 3 / 96, rel=1e-15)
    k = 3
    delta = catalog.closed_form(CatalogKey("SUM_28", k)) - catalog.printed_closed_form(CatalogKey("SUM_28", k))
    assert delta == pytest.approx(2.0 / (2 * k * (2 * k - 1)), rel=1e-12)
    with pytest.raises(ValueError):
        catalog.printed_closed_form(CatalogKey("SUM_23"))


# --- partial sums and tail bounds ---------------------------------------------------

def test_partial_sum_examples():
    # at depth 30 the truncation bound (~5e-19) is below float resolution,
    # so a couple of ulps of accumulation noise ride on top
    res = catalog.partial_sum(CatalogKey("SUM_23"), 30)
    assert abs(res.value - 0.5) <= res.error_bound + 4e-16
    # bracketed Apery sum: partial at 20 sits within 1e-12 of zeta(3) * 2/5
    apery = catalog.partial_sum(CatalogKey("ZETA3_APERY_14"), 20)
    assert abs(apery.value - riemann_zeta(3.0).value * 0.4) <= 1e-12
    log2 = catalog.partial_sum(CatalogKey("RZS_LOG2"), 40)
    assert abs(log2.value - math.log(2.0)) <= 1e-11


@pytest.mark.parametrize("key", [CatalogKey("ZETA3_CK_15"), CatalogKey("ZETA3_APERY_14"),
                                 CatalogKey("RZS_GAMMA"), CatalogKey("SUM_28", 3),
                                 CatalogKey("SUM_38", 0)], ids=CatalogKey.label)
def test_partial_sums_stream(key):
    # one pass gives every depth's partial sum and tail bound
    start = catalog.get(key.id).start_index
    offset, scale = catalog.assembly(key)
    for i, (n, value, bound) in enumerate(islice(catalog.partial_sums(key), 12)):
        assert n == start + i
        res = catalog.partial_sum(key, n)
        assert (value, bound, i + 1) == (res.value, res.error_bound, res.terms_used)
        assert bound == catalog.tail_bound(key, n)
        assert catalog.assembled_sum(key, n).value == offset + scale * value


def test_assembly():
    assert catalog.assembly(CatalogKey("SUM_23")) == (0.0, 1.0)
    assert catalog.assembly(CatalogKey("THM_21", 4)) == (0.0, 1.0)
    assert catalog.assembly(CatalogKey("ZETA3_APERY_14")) == (0.0, 2.5)
    offset, scale = catalog.assembly(CatalogKey("ZETA3_17"))
    assert scale == 4.0 * PI ** 2 / 35.0 and offset != 0.0
    with pytest.raises(ValueError):
        catalog.assembly(CatalogKey("CL2_ACCEL_8"))


def test_assembled_sum_matches_closed_forms():
    # every scalar identity at the first depth whose bound clears 1e-11
    for id_ in SCALAR_IDS:
        key = CatalogKey(id_)
        entry = catalog.get(id_)
        n = entry.start_index
        while catalog.tail_bound(key, n) > 1e-11:
            n += 1
        res = catalog.assembled_sum(key, n)
        closed = catalog.closed_form(key)
        assert abs(res.value - closed) <= 1e-11 + res.error_bound, id_
        if entry.status == "corrected":
            printed = catalog.printed_closed_form(key)
            assert abs(res.value - printed) > 1e-11 + res.error_bound, id_


@pytest.mark.parametrize("id_", FAMILY_IDS)
def test_family_identities_hold(id_):
    entry = catalog.get(id_)
    for p in range(entry.param_min, 13):
        key = CatalogKey(id_, p)
        n = entry.start_index
        while catalog.tail_bound(key, n) > 1e-10:
            n += 1
        res = catalog.assembled_sum(key, n)
        assert abs(res.value - catalog.closed_form(key)) <= 1e-9, (id_, p)


def test_tail_bound_formula_examples():
    # flat-coefficient 1/4^n family: zeta(2) (1/4)^(N+1) * 4/3, plus the
    # fixed rounding pad every published bound carries
    for n in (1, 5, 12):
        expected = (PI ** 2 / 6) * 0.25 ** (n + 1) * (4.0 / 3.0)
        bound = catalog.tail_bound(CatalogKey("SUM_23"), n)
        assert expected <= bound <= expected + 1.1 * catalog.TAIL_FLOOR
    expected = (PI ** 2 / 6) * (1.0 / 11.0) * 16.0 ** -11 * (16.0 / 15.0)
    assert catalog.tail_bound(CatalogKey("SUM_30"), 10) <= expected + 1.1 * catalog.TAIL_FLOOR


def test_tail_bounds_cover_extended_sums():
    for key in _keys_up_to(6):
        entry = catalog.get(key.id)
        for n in (entry.start_index, entry.start_index + 7):
            near = catalog.partial_sum(key, n).value
            far = catalog.partial_sum(key, n + 200).value
            assert abs(far - near) <= catalog.tail_bound(key, n), key.label()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_keys_up_to(12)), st.integers(0, 30))
def test_tail_bound_monotone(key, offset):
    entry = catalog.get(key.id)
    n = entry.start_index + offset
    b0 = catalog.tail_bound(key, n)
    b1 = catalog.tail_bound(key, n + 1)
    assert b1 <= b0 * (1 + 1e-12)


def test_zeta3_entries_share_an_independent_target():
    # all nine zeta(3) forms verify against the Euler-Maclaurin value,
    # never against each other
    z3 = riemann_zeta(3.0).value
    for id_ in SCALAR_IDS:
        if "zeta3" in catalog.get(id_).targets:
            assert catalog.closed_form(CatalogKey(id_)) == z3
