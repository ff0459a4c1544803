import hashlib
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zetakit
from zetakit import catalog, convergence, verifier
from zetakit.catalog import CatalogKey
from zetakit.quadrature import tanh_sinh
from zetakit.specfun import catalan, clausen_cl2, riemann_zeta
from zetakit.verifier import (
    VerificationReport,
    check_binomial_identity,
    check_reciprocal_identity,
    cross_check_clausen,
    integral_rhs,
    quadrature,
    verify,
    verify_all,
    verify_integral_identity,
)

PI = math.pi


# --- verify --------------------------------------------------------------------

def test_verify_simple_pass():
    (report,) = verify(CatalogKey("SUM_23"), 1e-10)
    assert report.passed
    assert report.rhs == 0.5
    assert report.variant == "corrected"
    assert report.abs_err == abs(report.lhs - report.rhs)


def test_verify_corrected_entry_reports_both_variants():
    corrected, printed = verify(CatalogKey("SUM_34"), 1e-10)
    assert corrected.passed and corrected.variant == "corrected"
    assert not printed.passed and printed.variant == "printed"
    assert printed.abs_err == pytest.approx(PI ** 3 / 48, rel=1e-9)
    assert printed.abs_err > 0.1


def test_verify_apery_is_fast():
    (report,) = verify(CatalogKey("ZETA3_APERY_14"), 1e-12)
    assert report.passed
    assert report.n_terms <= 25


def test_verify_pass_criterion_is_reproducible():
    for key in (CatalogKey("SUM_9"), CatalogKey("THM_29", 1), CatalogKey("RZS_GAMMA")):
        (report,) = verify(key, 1e-9)
        assert report.passed
        lhs = catalog.assembled_sum(key, _depth_of(key, report))
        assert report.passed == (report.abs_err <= report.tolerance + lhs.error_bound)


def _depth_of(key, report):
    entry = catalog.get(key.id)
    return entry.start_index + report.n_terms - 1


def test_verify_pass_soundness_under_doubling():
    for key in (CatalogKey("SUM_22"), CatalogKey("ZETA3_13"), CatalogKey("THM_21", 4)):
        (report,) = verify(key, 1e-9)
        n = _depth_of(key, report)
        lhs = catalog.assembled_sum(key, n)
        doubled = catalog.assembled_sum(key, 2 * n)
        assert abs(doubled.value - lhs.value) <= lhs.error_bound + 1e-15


def test_verify_rejects_tiny_tolerance():
    with pytest.raises(ValueError):
        verify(CatalogKey("SUM_23"), 1e-14)


_ALL_KEYS = [
    CatalogKey(e.id, e.param_min if e.is_family else None)
    for e in catalog.registry().values()
    if e.verifiable
] + [CatalogKey("THM_21", 7), CatalogKey("THM_29", 8), CatalogKey("SUM_37", 5),
     CatalogKey("SUM_38", 6), CatalogKey("SUM_28", 4)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ALL_KEYS), st.floats(1e-12, 1e-6))
def test_verify_passes_at_any_tolerance(key, tolerance):
    reports = verify(key, tolerance)
    assert reports[0].passed  # the corrected/authoritative variant
    assert reports[0].abs_err == abs(reports[0].lhs - reports[0].rhs)


def test_verify_inconclusive_under_term_cap(monkeypatch):
    # verify returns the term-cap report; it does not raise InconclusiveError
    monkeypatch.setattr(catalog, "MAX_TERMS", 4)
    [report] = verify(CatalogKey("RZS_ONE"), 1e-9)
    assert report.inconclusive and not report.passed
    assert report.n_terms == catalog.MAX_TERMS


# --- verify_all ------------------------------------------------------------------

def test_verify_all_expected_failures():
    reports = verify_all(1e-9, 12)
    fails = [r for r in reports if not r.passed]
    assert {(r.key.id, r.variant) for r in fails} == {("SUM_28", "printed"), ("SUM_34", "printed")}
    assert all(r.abs_err > 0.1 for r in fails)
    assert not any(r.inconclusive for r in reports)


def test_verify_all_rejects_param_limit_above_cap_before_work(monkeypatch):
    def no_verify(*args, **kwargs):
        raise AssertionError("verify ran before param_limit was checked")

    monkeypatch.setattr(verifier, "verify", no_verify)
    with pytest.raises(ValueError):
        verify_all(1e-3, catalog.PARAM_CAP + 1)


@pytest.mark.parametrize("bad", [5.0, True, "5"], ids=repr)
def test_verify_all_rejects_a_param_limit_that_is_not_an_int(bad, monkeypatch):
    # verify_all(1e-10, True) used to return the 34 reports of param_limit 1
    def no_verify(*args, **kwargs):
        raise AssertionError("verify ran before param_limit was checked")

    monkeypatch.setattr(verifier, "verify", no_verify)
    with pytest.raises(ValueError, match="must be an int"):
        verify_all(1e-10, bad)


def test_verify_all_report_count():
    reports = verify_all(1e-9, 12)
    scalars = sum(1 for e in catalog.registry().values() if e.verifiable and not e.is_family)
    family_sizes = sum(
        13 - e.param_min
        for e in catalog.registry().values()
        if e.verifiable and e.is_family
    )
    corrected = 2  # one printed variant each for SUM_28 and SUM_34
    assert len(reports) == scalars + family_sizes + corrected


def test_verify_all_zeta_e_weight_at_lowest_order():
    reports = verify_all(1e-9, 1)
    thm29 = [r for r in reports if r.key.id == "THM_29"]
    assert len(thm29) == 1 and thm29[0].key.param == 1 and thm29[0].passed


def test_verify_all_deterministic():
    a = verify_all(1e-9, 6)
    b = verify_all(1e-9, 6)
    assert a == b
    assert verifier.reports_to_json(a) == verifier.reports_to_json(b)


def test_verify_all_marks_inconclusive(monkeypatch):
    monkeypatch.setattr(catalog, "MAX_TERMS", 6)
    reports = verify_all(1e-9, 2)
    assert any(r.inconclusive for r in reports)
    assert len(reports) > 10  # the suite still runs to the end


def test_report_json_schema():
    reports = verify_all(1e-9, 2)
    data = json.loads(verifier.reports_to_json(reports))
    assert len(data) == len(reports)
    expected_fields = {"key", "lhs", "rhs", "abs_err", "rel_err", "n_terms",
                       "tolerance", "variant", "pass", "inconclusive"}
    assert all(set(row) == expected_fields for row in data)
    assert all(set(row["key"]) == {"id", "param"} for row in data)


# --- exact combinatorial lemmas ------------------------------------------------------

def test_binomial_identity_small_case():
    # n = j = 1: C(2,2) - C(3,3)/3 = 2/3 = (2/3) C(2,2)
    assert check_binomial_identity(1, 1)


def test_binomial_identity_full_range():
    assert check_binomial_identity(20, 20)


def test_reciprocal_identity():
    assert check_reciprocal_identity(50)


def test_lemma_bounds_validated():
    with pytest.raises(ValueError):
        check_binomial_identity(0, 5)
    with pytest.raises(ValueError):
        check_reciprocal_identity(0)


# --- quadrature -----------------------------------------------------------------------

def test_quadrature_log_sin_quarter_period():
    q = quadrature("log_sin", 0.0, PI / 2)
    assert abs(q.value - (-PI / 2 * math.log(2.0))) <= 1e-10
    assert q.evaluations > 0


def test_quadrature_log_two_sin_half_vanishes_over_period():
    q = quadrature("log_two_sin_half", 0.0, PI)
    assert abs(q.value) <= 1e-10


def test_quadrature_moment_integral():
    q = quadrature("x_log_sin", 0.0, PI / 4)
    target = (35.0 / 128.0) * riemann_zeta(3.0).value - PI * catalan().value / 8.0 \
        - PI ** 2 / 32.0 * math.log(2.0)
    assert abs(q.value - target) <= 1e-10


def test_quadrature_quadratic_moment_integral():
    # int_0^{pi/2} x^2 log(2 sin(x/2)) dx, closed form via zeta(3), G, beta(4)
    q = quadrature("x2_log_two_sin_half", 0.0, PI / 2)
    from zetakit.specfun import dirichlet_beta
    closed = (72.0 * PI * riemann_zeta(3.0).value - 192.0 * PI ** 2 * catalan().value
              + 1536.0 * dirichlet_beta(4.0).value) / 768.0
    assert abs(q.value - closed) <= 1e-10


def test_quadrature_handles_interior_singularity():
    # log|cos| is singular at pi/2, inside this range
    q = quadrature("log_cos", 0.0, 3 * PI / 4)
    target = 0.5 * clausen_cl2(PI - 1.5 * PI).value - 0.75 * PI * math.log(2.0)
    assert abs(q.value - target) <= 1e-10


def test_quadrature_self_consistency():
    # int_0^1 log sin = -Cl2(2)/2 - log 2; refinement stops at the 1e-12 target
    q = quadrature("log_sin", 0.0, 1.0)
    assert q.error_estimate <= 1e-12 * max(1.0, abs(q.value))
    assert abs(q.value - (-0.5 * clausen_cl2(2.0).value - math.log(2.0))) <= q.error_estimate + 1e-14


def test_quadrature_errors():
    with pytest.raises(ValueError):
        quadrature("exp_sin", 0.0, 1.0)
    with pytest.raises(ValueError):
        quadrature("log_sin", 1.0, 1.0)


_BAD_BOUNDS_PROBE = """
import math, sys
sys.path.insert(0, {src!r})
from zetakit.quadrature import tanh_sinh
from zetakit.verifier import quadrature

calls = [lambda: quadrature("log_sin", 0.0, math.inf),
         lambda: quadrature("log_cos", -math.inf, 1.0),
         lambda: quadrature("log_sin", math.nan, 1.0),
         lambda: tanh_sinh(math.exp, 0.0, math.inf),
         lambda: tanh_sinh(math.exp, -math.inf, 0.0),
         lambda: tanh_sinh(math.exp, math.nan, 1.0),
         lambda: tanh_sinh(math.exp, 1.0, 0.0)]
for call in calls:
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("no ValueError")
print("ok")
"""


def test_quadrature_rejects_non_finite_bounds_at_once():
    # in a child with a deadline: an infinite bound once looped forever in the
    # interior-singularity scan
    src = os.path.dirname(os.path.dirname(zetakit.__file__))
    out = subprocess.run([sys.executable, "-c", _BAD_BOUNDS_PROBE.format(src=src)],
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "ok", out.stderr


_LONG_INTERVAL_PROBE = """
import sys, time
sys.path.insert(0, {src!r})
from zetakit.verifier import quadrature
t0 = time.perf_counter()
try:
    quadrature("log_sin", 0.0, 1e300)
except ValueError:
    print(time.perf_counter() - t0)
else:
    raise SystemExit("no ValueError")
"""


def test_quadrature_rejects_a_long_interval_at_once():
    # in a child with a deadline: the singular points were once listed one by
    # one, so 1e4 took 0.6 s and 1e300 never returned
    src = os.path.dirname(os.path.dirname(zetakit.__file__))
    out = subprocess.run([sys.executable, "-c", _LONG_INTERVAL_PROBE.format(src=src)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert float(out.stdout) < 1.0
    with pytest.raises(ValueError, match="singular points"):
        quadrature("log_sin", -1.0, math.pi * (verifier.MAX_SINGULARITIES + 0.5))


def _walk_singularities(lattice, a, b):
    """The interior singular points as a walk from the first lattice point at
    or above a to the first at or above b: the reference listing."""
    offset, period = lattice
    k = math.ceil((a - offset) / period)
    points = []
    while True:
        x = offset + k * period
        if x >= b:
            return points
        if x > a:
            points.append(x)
        k += 1


@st.composite
def _intervals(draw, lattice):
    # ends drawn freely or on lattice points; b - a spans under 956 periods,
    # so the MAX_SINGULARITIES guard never fires.  Within 1e15 of 0 the float
    # lattice offset + k period rises by about a period per step, which the walk needs
    offset, period = lattice
    on_lattice = st.integers(-3 * 10**14, 3 * 10**14).map(lambda k: offset + k * period)
    a = draw(st.one_of(st.floats(-1e15, 1e15), on_lattice))
    near = st.integers(-1, 955).map(lambda j: offset + (math.floor((a - offset) / period) + j) * period)
    b = draw(st.one_of(st.floats(0.0, 3000.0).map(lambda w: a + w), near))
    assume(a < b)
    return a, b


@pytest.mark.parametrize("integrand_id", verifier.INTEGRAND_IDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_interior_singularities_match_the_walk(integrand_id, data):
    lattice = verifier._INTEGRANDS[integrand_id][1]
    a, b = data.draw(_intervals(lattice))
    assert verifier._interior_singularities(lattice, a, b) == _walk_singularities(lattice, a, b)


_STALLED_LATTICE_PROBE = """
import sys
sys.path.insert(0, {src!r})
from zetakit.verifier import quadrature
print(quadrature("log_sin", 6.29995967274359e+29, 6.299959672743591e+29).evaluations)
"""


def test_quadrature_ends_where_the_lattice_stalls():
    # in a child with a deadline: near 6.3e29, k pi rounds to one float for
    # every k the interval spans, so the walk above never reaches b and
    # quadrature once never returned; the listing stops after last + 1
    src = os.path.dirname(os.path.dirname(zetakit.__file__))
    out = subprocess.run([sys.executable, "-c", _STALLED_LATTICE_PROBE.format(src=src)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert int(out.stdout) > 0


@pytest.mark.parametrize("a, b", [(1e17, 1e17 + 3000.0), (-5.616051765958707e17, -5.616051765958682e17)])
def test_quadrature_names_a_lattice_the_floats_cannot_resolve(a, b):
    # from 2^54 (about 1.8e16) the floats step by more than pi, so two k can
    # round to one point; that once reached tanh_sinh as a zero-width piece
    with pytest.raises(ValueError, match=r"the floats of \[.*\] cannot resolve the integrand's period"):
        quadrature("log_sin", a, b)


def test_tanh_sinh_rejects_an_overflowing_width():
    with pytest.raises(ValueError, match="width"):
        tanh_sinh(math.exp, -1.5e308, 1.5e308)


def test_quadrature_across_the_singularity_of_log_one_plus_cos():
    # the piece [0, pi] ends on the float pi, where cos is exactly -1
    q = quadrature("log_one_plus_cos", 0.0, 4.0)
    target = 2.0 * clausen_cl2(PI - 4.0).value - 4.0 * math.log(2.0) - 2.0 * clausen_cl2(PI).value
    assert abs(q.value - target) <= 1e-10


def test_quadrature_across_the_singularity_of_log_one_plus_sin():
    # int_a^b log(1 + sin) = F(b) - F(a), F(t) = 2G - 2 Cl2(pi/2 + t) - t log 2; singular at -pi/2
    q = quadrature("log_one_plus_sin", -3.0, 1.0)
    target = (2.0 * clausen_cl2(PI / 2 - 3.0).value - 2.0 * clausen_cl2(PI / 2 + 1.0).value
              - 4.0 * math.log(2.0))
    assert abs(q.value - target) <= 1e-10


def _integral_check_at(identity_id, theta, tolerance):
    """(abs_err, passed) of one integral identity at theta, off the grid, by
    verify_integral_identity's pass rule."""
    integrand_id, sign, _, _ = verifier._INTEGRAL_IDENTITIES[identity_id]
    q = quadrature(integrand_id, 0.0, theta)
    rhs, allowance = integral_rhs(identity_id, theta)
    abs_err = abs(sign * q.value - rhs)
    return abs_err, abs_err <= tolerance + (q.error_estimate + allowance)


def test_integral_identity_up_to_its_singular_point():
    abs_err, passed = _integral_check_at("INT_LOG_ONE_PLUS_COS", PI, 1e-10)
    assert passed
    assert abs_err <= 1e-10


@settings(max_examples=200, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(1e-3, 10.0))
def test_tanh_sinh_endpoint_log_singularities(a, length):
    # a node that rounds onto an endpoint makes math.log raise; it is dropped
    b = a + length
    width = b - a
    one = width * math.log(width) - width  # int_a^b log(x - a) = int_a^b log(b - x)
    for f, exact in (
        (lambda x: math.log(x - a), one),
        (lambda x: math.log(b - x), one),
        (lambda x: math.log(x - a) + math.log(b - x), 2.0 * one),
    ):
        q = tanh_sinh(f, a, b)
        assert abs(q.value - exact) <= 1e-12 * max(1.0, abs(exact))


# --- integral identities -----------------------------------------------------------------

@pytest.mark.parametrize("identity_id", verifier.INTEGRAL_IDENTITY_IDS)
def test_integral_identities_pass(identity_id):
    report = verify_integral_identity(identity_id, 1e-8)
    assert report.passed, (identity_id, report.abs_err)
    assert report.abs_err <= 1e-8


def test_cl2_defining_integral_at_one():
    abs_err, passed = _integral_check_at("CL2_INTEGRAL", 1.0, 1e-9)
    assert passed
    assert abs_err <= 1e-9


def test_integral_identities_at_rounded_cl2_arguments():
    # pi - theta and pi - 2 theta round to 0.0 here, where Cl2 is steep; the
    # check allows for the distance to the true argument
    for identity_id, theta in (("INT_LOG_ONE_PLUS_COS", PI), ("INT_LOG_COS", PI / 2)):
        abs_err, passed = _integral_check_at(identity_id, theta, 1e-15)
        assert passed and abs_err > 1e-15


@pytest.mark.parametrize("identity_id", verifier.INTEGRAL_IDENTITY_IDS)
def test_integral_rhs_allowance_stays_small_on_the_grid(identity_id):
    # at most |c| (Cl2's own bound + the drift): Cl2's bound is up to 6.9e-15
    # on the grid's arguments and |c| = 2 for the two (1 + trig) identities
    for theta in verifier.THETA_GRID:
        _, allowance = integral_rhs(identity_id, theta)
        assert 0.0 < allowance <= 1.5e-14, (theta, allowance)


def test_integral_rhs_allowance_covers_the_true_rhs():
    mp = pytest.importorskip("mpmath")

    def exact_rhs(identity_id, theta):
        t, cl2, log2 = mp.mpf(theta), (lambda x: mp.clsin(2, x)), mp.log(2)
        return {
            "INT_LOG_SIN": -cl2(2 * t) / 2 - t * log2,
            "INT_LOG_COS": cl2(mp.pi - 2 * t) / 2 - t * log2,
            "INT_LOG_ONE_PLUS_COS": 2 * cl2(mp.pi - t) - t * log2,
            "INT_LOG_ONE_PLUS_SIN": 2 * mp.catalan - 2 * cl2(mp.pi / 2 + t) - t * log2,
            "CL2_INTEGRAL": cl2(t),
        }[identity_id]

    with mp.workdps(40):
        for identity_id in verifier.INTEGRAL_IDENTITY_IDS:
            for theta in (PI, PI / 2, 2 * PI - 1e-9, 1e-12):
                rhs, allowance = integral_rhs(identity_id, theta)
                error = abs(mp.mpf(rhs) - exact_rhs(identity_id, theta))
                assert error <= allowance, (identity_id, theta)


def test_integral_identity_with_the_published_sign_fails(monkeypatch):
    integrand, sign, (coeff, pi_multiple, scale), rhs = verifier._INTEGRAL_IDENTITIES["INT_LOG_COS"]
    monkeypatch.setitem(verifier._INTEGRAL_IDENTITIES, "INT_LOG_COS",
                        (integrand, sign, (-coeff, pi_multiple, scale), rhs))
    assert not verify_integral_identity("INT_LOG_COS", 1e-10).passed


def test_integral_identity_unknown_id():
    with pytest.raises(ValueError):
        verify_integral_identity("INT_LOG_TAN", 1e-8)


# --- Clausen cross-check --------------------------------------------------------------------

def test_cross_check_clausen_default_grid():
    report = cross_check_clausen()
    assert (report.n_terms, report.tolerance) == (64, 1e-9)
    assert report.passed
    assert report.abs_err <= 1e-9


def test_cross_check_methods_at_quarter_turn():
    g = catalan().value
    for method in ("accel", "peeled", "wzl"):
        assert abs(clausen_cl2(PI / 2, method).value - g) <= 1e-10


def test_cross_check_near_period_boundary():
    theta = 2 * PI - 0.05
    a = clausen_cl2(theta, "accel").value
    w = clausen_cl2(theta, "wzl").value
    assert abs(a - w) <= 1e-8


def test_clausen_route_bits_are_pinned():
    # the direct Cl2 oracle on the cross-check grid and at far angles, the
    # cross-check report, and each integral identity's report (whose n_terms
    # is the quadrature evaluation count), bit for bit
    lo, hi = 0.05, 2.0 * math.pi - 0.05
    step = (hi - lo) / 63
    thetas = [lo + i * step for i in range(64)]
    thetas += [1e-3, -0.0011, 6.2455, 3 * PI + 1e-9, 1e4, 1e6]
    lines = []
    for theta in thetas:
        r = clausen_cl2(theta, "direct")
        lines.append(f"{theta.hex()} {r.value.hex()} {r.terms_used} {r.error_bound.hex()}")
    reports = [cross_check_clausen()]
    reports += [verify_integral_identity(i, 1e-10) for i in verifier.INTEGRAL_IDENTITY_IDS]
    lines.append(verifier.reports_to_json(reports))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "00531cf47f6b2eeb3363431fe713239fff36b381c2f24450193c69db503ac1b1"


# Intervals on which every registered integrand stops after level 3 or 4
# (65 or 129 evaluations), or runs all 11 levels (16 385): -3..7 holds a
# singular point of each, and 0..pi holds one inside for log_cos
TANH_SINH_INTERVALS = [(0.0, PI / 6), (0.0, PI), (0.1, 1.0), (1.0, 1.001), (-3.0, 7.0)]


def test_tanh_sinh_bits_are_pinned():
    lines, counts = [], []
    for id_, (f, _) in verifier._INTEGRANDS.items():
        for a, b in TANH_SINH_INTERVALS:
            q = tanh_sinh(f, a, b)
            counts.append(q.evaluations)
            lines.append(f"{id_} {a!r} {b!r} {q.value.hex()} {q.error_estimate.hex()} {q.evaluations}")
    assert sorted(set(counts)) == [65, 129, 16385] and counts.count(16385) == 8
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0e773d2a859a5eec38c01555761e1844e988e82c1e6191e3f4252a44a06935a1"


# --- records --------------------------------------------------------------------

def test_records_are_frozen():
    report = verify(CatalogKey("SUM_23"), 1e-10)[0]
    records = [
        CatalogKey("THM_21", 5),
        catalog.get("THM_21"),
        catalog.list_identities()[0],
        report,
        convergence.profile(CatalogKey("SUM_23"), 1e-6),
    ]
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


def test_report_status_is_the_last_text_column():
    key = CatalogKey("SUM_28", 3)
    passed = VerificationReport(key, 0.5, 0.5, 0.0, 0.0, 40, 1e-10, "corrected", True)
    cases = [
        (passed, "pass"),
        (passed._replace(passed=False), "FAIL"),
        (passed._replace(passed=False, variant="printed"), "FAIL (expected-discrepancy)"),
        (passed._replace(passed=True, variant="printed"), "pass"),
        (verifier.inconclusive_report(key, 1e-10), "INCONCLUSIVE"),
    ]
    for report, status in cases:
        assert report.status == status
        assert verifier.reports_to_text([report]).endswith(f"n={report.n_terms:<6d}  {status}")
        assert "status" not in report.to_dict() and "status" not in report._fields


def test_record_reprs():
    assert repr(CatalogKey("THM_21", 5)) == "CatalogKey(id='THM_21', param=5)"
    assert repr(CatalogKey("SUM_9")) == "CatalogKey(id='SUM_9', param=None)"
    report = VerificationReport(CatalogKey("SUM_23"), 0.5, 0.5, 0.0, 0.0, 40, 1e-10, "corrected", True)
    assert repr(report) == (
        "VerificationReport(key=CatalogKey(id='SUM_23', param=None), lhs=0.5, rhs=0.5, abs_err=0.0,"
        " rel_err=0.0, n_terms=40, tolerance=1e-10, variant='corrected', passed=True,"
        " inconclusive=False)"
    )
    assert report._replace(inconclusive=True).to_dict()["inconclusive"] is True
