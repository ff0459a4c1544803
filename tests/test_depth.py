"""catalog.depth_for and catalog.evaluate: the least depth whose scaled tail
bound clears tol/2, and the assembled sum there.

The reference below is written apart from the library's one-pass tables:
every family term comes from term_fn, which computes its binomial with
math.comb, and every family tail from the suffix rule
tail(N) = |t(N+1)| + ... + |t(M-1)| + |t(M)|/(1 - cap(M)), rebuilt at each N.
"""

import ast
import hashlib
import math
import os
import random
import subprocess
import sys
import threading
from itertools import count, islice

import pytest

import zetakit
from zetakit import catalog, specfun, verifier
from zetakit.catalog import CatalogKey, InconclusiveError
from zetakit.summation import CompensatedSum

TOLERANCES = (1e-13, 1e-9, 1e-4, 1e-2)

FAMILY_IDS = [e.id for e in catalog.registry().values() if e.verifiable and e.is_family]

# Each family sums zeta(2n) C(2n + top, lower(param)) / (n inv_pow^n), times
# (1 - 4^-n) when weighted (Eqs. 21, 28, 29, 37, 38).
FAMILY_SHAPES = {
    "THM_21": (0, lambda m: m, 4, False),
    "SUM_28": (1, lambda k: 2 * k, 4, False),
    "THM_29": (0, lambda m: m, 16, False),
    "SUM_37": (0, lambda k: 2 * k, 4, True),
    "SUM_38": (0, lambda k: 2 * k + 1, 4, True),
}


def _steps(entry, param, N):
    """(term(n), tail(n)) for n = N, N + 1, ..., read from the entry's stream."""
    return ((t, tail) for _, t, _, tail in entry.stream(param, N))


class Reference:
    """Terms and tails of one key, each term from term_fn (cached per n)."""

    def __init__(self, key):
        self.key = key
        self.entry = catalog.get(key.id)
        self._terms = {}

    def term(self, n):
        if n not in self._terms:
            self._terms[n] = self.entry.term_fn(self.key.param, n)
        return self._terms[n]

    def _cap(self, n):
        # bounds |t(j+1)/t(j)| for j >= n; the float expression the library uses
        top_offset, lower, inv_pow, weighted = FAMILY_SHAPES[self.key.id]
        m, top = lower(self.key.param), 2 * n + top_offset
        cap = (1.0 / inv_pow) * (top + 2) * (top + 1) / ((top + 2 - m) * (top + 1 - m))
        if weighted:
            cap *= (1.0 - 4.0 ** (-(n + 1))) / (1.0 - 4.0 ** (-n))
        return cap

    def nonzero(self, n):
        # C(T, m) is nonzero exactly when T >= m
        top_offset, lower, _, _ = FAMILY_SHAPES[self.key.id]
        return 2 * n + top_offset >= lower(self.key.param)

    def tails(self, N):
        """Tails at N, N+1, ..., M-1; M is the first n > N with a nonzero
        binomial whose cap is at most q* (1/2, or 1/5 for the 16^-n family).
        A term that underflows to 0.0 still closes, with tail 0."""
        if not self.entry.is_family:
            return [next(_steps(self.entry, self.key.param, N))[1]]
        q_star = 0.2 if FAMILY_SHAPES[self.key.id][2] == 16 else 0.5
        n = N + 1
        while not (self.nonzero(n) and self._cap(n) <= q_star):
            n += 1
        tails = [abs(self.term(n)) / (1.0 - self._cap(n))]
        for j in range(n - 1, N, -1):
            tails.append(abs(self.term(j)) + tails[-1])
        return tails[::-1]

    def closure_point(self):
        start = self.entry.start_index
        return start + len(self.tails(start))

    def steps(self, N=None):
        """(n, term(n), tail(n)) for n = N, N + 1, ...; N defaults to start_index."""
        n = self.entry.start_index if N is None else N
        while True:
            for tail in self.tails(n):
                yield n, self.term(n), tail
                n += 1

    def evaluate(self, tolerance):
        """(depth, value, bound): a linear scan of the tails, then a
        compensated sum of term_fn up to the first depth that clears tol/2."""
        offset = self.entry.offset_fn(self.key.param) if self.entry.offset_fn else 0.0
        scale = self.entry.scale_fn(self.key.param) if self.entry.scale_fn else 1.0
        for n, _, tail in self.steps():
            bound = abs(scale) * (tail + catalog.TAIL_FLOOR)
            if bound <= tolerance / 2:
                break
        acc = CompensatedSum()
        for j in range(self.entry.start_index, n + 1):
            acc.add(self.term(j))
        return n, offset + scale * acc.value, bound


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


@pytest.mark.parametrize("key", _keys(), ids=CatalogKey.label)
def test_depth_for_matches_linear_scan(key):
    for tol in TOLERANCES:
        assert catalog.depth_for(key, tol) == _linear_scan(key, tol), tol


@pytest.mark.parametrize("id_", FAMILY_IDS)
def test_family_tail_bound_is_exactly_non_increasing(id_):
    entry = catalog.get(id_)
    for p in (entry.param_min, 5, 12, 32):
        key = CatalogKey(id_, p)
        closure = Reference(key).closure_point()
        bounds = [catalog.tail_bound(key, n) for n in range(entry.start_index, closure + 2)]
        assert all(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])), key.label()


@pytest.mark.parametrize("id_", FAMILY_IDS)
def test_family_suffix_table_matches_stream_from_each_n(id_):
    # one pass from start_index gives the same tails as a pass from each n
    entry = catalog.get(id_)
    key = CatalogKey(id_, 12)
    start = entry.start_index
    length = Reference(key).closure_point() - start + 3
    tails = [tail for _, tail in islice(_steps(entry, key.param, start), length)]
    assert tails == [next(_steps(entry, key.param, start + i))[1] for i in range(length)]


@pytest.mark.parametrize("id_", FAMILY_IDS)
def test_family_table_matches_term_fn_up_to_cap(id_):
    # the recurrence's terms are term_fn's floats, bit for bit, and so are the
    # tails built from them, through the closure point and two steps past it
    entry = catalog.get(id_)
    for p in range(entry.param_min, catalog.PARAM_CAP + 1):
        ref = Reference(CatalogKey(id_, p))
        length = ref.closure_point() - entry.start_index + 3
        expected = [(t, tail) for _, t, tail in islice(ref.steps(), length)]
        assert list(islice(_steps(entry, p, entry.start_index), length)) == expected, p


@pytest.mark.parametrize("id_", FAMILY_IDS)
def test_family_closure_point_is_the_first_n_rule(id_):
    # the scan tests cap only from a start point on and takes the first n
    # that passes as M, which rests on the float cap never increasing in n:
    # check that premise with Reference's cap in a plain loop from the first
    # nonzero binomial to past M, then check the scan's M through its bits
    # from several N around first and M, and from every N from first - 1 to
    # M + 1 at params up to 64 and at 128, 200 and 256, so that the scan's
    # start point, which moves with N, takes every value up to past M: the
    # tail at N sums the terms up to M and closes there, so it is
    # Reference's tail(N), bit for bit, only when both close at the same M.
    # Reference takes its terms through closure + 2 from the scan from
    # start_index, which test_family_table_matches_term_fn_up_to_cap checks
    # against term_fn bit for bit, so that its tails cost no math.comb here;
    # below its M from start_index, tail(N) is an entry of its tails from there
    entry = catalog.get(id_)
    q_star = 0.2 if FAMILY_SHAPES[id_][2] == 16 else 0.5
    start = entry.start_index
    for p in range(entry.param_min, catalog.PARAM_CAP + 1):
        ref = Reference(CatalogKey(id_, p))
        first = next(n for n in count(start) if ref.nonzero(n))
        caps = []
        while len(caps) < 3 or caps[-3] > q_star:  # through two past M from first
            caps.append(ref._cap(first + len(caps)))
        assert all(c1 <= c0 for c0, c1 in zip(caps, caps[1:])), p
        closure = first + next(i for i, c in enumerate(caps) if c <= q_star)
        ref._terms.update(zip(count(start), (t for t, _ in islice(_steps(entry, p, start), closure + 3 - start))))
        tails = ref.tails(start)
        Ns = {start, first - 1, first, first + 1, closure - 1, closure, closure + 1}
        if p <= 64 or p in (128, 200, 256):
            Ns.update(range(first - 1, closure + 2))
        for N in Ns:
            if N < start:
                continue
            want = tails[N - start] if N - start < len(tails) else ref.tails(N)[0]
            assert next(_steps(entry, p, N))[1].hex() == want.hex(), (p, N)


@pytest.mark.parametrize("b", (2, 4))
def test_running_scale_is_ldexp_and_term_fn_quotient(b):
    # the family scan keeps sc = 2^(-b n) by one multiply by 2^-b per step
    # and takes num / n * sc for term_fn's num / (n << b n) above the least
    # normal float (below it, the scan falls back to that division)
    step = 0.5 ** b
    for first in (1, 2, 17, 268, 269, 537, 538):
        sc, n = math.ldexp(1.0, -b * first), first
        while sc != 0.0:
            assert sc.hex() == math.ldexp(1.0, -b * n).hex(), (first, n)
            sc, n = sc * step, n + 1
        assert b * n > 1074, (first, n)
    rng = random.Random(b)
    tiny, checked = math.ldexp(1.0, -1022), 0
    for _ in range(20000):
        n = rng.randrange(1, 1200 // b)
        # num / n * 2^(-b n) near 2^e, for e from the subnormals to near 1
        e = rng.randrange(-1080, 8)
        bits = max(1, min(1023, e + b * n + n.bit_length()))
        num = rng.getrandbits(bits) | 1 << (bits - 1)
        scaled = num / n * math.ldexp(1.0, -b * n)
        if scaled >= tiny:
            assert scaled.hex() == math.ldexp(num / n, -b * n).hex() == (num / (n << b * n)).hex(), (num, n)
            checked += 1
    assert checked > 5000


@pytest.mark.parametrize("b", (2, 4))
def test_wide_quotient_is_term_fn_quotient(b):
    # where num / n overflows (num past about 1024 bits: the family heads past
    # param 128) the scan takes a round-to-odd quotient of num's top bits,
    # scaled by a power of two; wherever num / (n << b n) is normal that is
    # its float, bit for bit, and below the least normal it is at most that
    # (the scan then divides in full)
    rng = random.Random(1024 + b)
    tiny, normal, subnormal = math.ldexp(1.0, -1022), 0, 0
    for i in range(20000):
        n = rng.randrange(1, 1500)
        bits = rng.randrange(1025 + n.bit_length(), 3400)  # so that num / n >= 2^1024
        if i % 4 == 0:
            # a midpoint between two floats times n, or a neighbour of one:
            # ties and near-ties, where a plain truncation would round wrongly
            mid = (rng.getrandbits(53) | 1 << 53) | 1
            num = (mid * n << max(0, bits - 54 - n.bit_length())) + rng.choice((-1, 0, 0, 1))
        else:
            num = rng.getrandbits(bits) | 1 << (bits - 1)
        with pytest.raises(OverflowError):
            num / n
        # num / (n << e) near 2^r, for r from below the subnormals to near 1
        e = num.bit_length() - n.bit_length() + rng.randrange(-8, 1100)
        got, want = catalog._wide_quotient(num, n, e), num / (n << e)
        if want >= tiny:
            assert got.hex() == want.hex(), (num, n, e)
            normal += 1
        else:
            assert got <= tiny, (num, n, e)
            subnormal += 1
    assert normal > 10000 and subnormal > 1000


def _hex(steps):
    return [(t.hex(), tail.hex()) for t, tail in steps]


def _reference_stream(key, N, through=0):
    """Reference's (term, tail) pairs from N, as float.hex, up to the closure
    point from N plus two, and at least up to n = through."""
    ref = Reference(key)
    length = max(len(ref.tails(N)) + 3, through - N + 1)
    return _hex((t, tail) for _, t, tail in islice(ref.steps(N), length))


_STREAM_PROBE = """
import sys
sys.path.insert(0, {src!r})
from itertools import islice
from zetakit import catalog
for id_, param, N, length in {requests!r}:
    print([(t.hex(), tail.hex()) for _, t, _, tail in islice(catalog.get(id_).stream(param, N), length)])
"""


def _library_streams(requests):
    """The stream's first `length` (term, tail) pairs from N, as float.hex, for each
    (id, param, N, length); read in a subprocess, so that a stream that never
    closes fails the test at the timeout instead of hanging the suite."""
    src = os.path.dirname(os.path.dirname(zetakit.__file__))
    out = subprocess.run([sys.executable, "-c", _STREAM_PROBE.format(src=src, requests=requests)],
                         capture_output=True, text=True, timeout=60, check=True)
    return [ast.literal_eval(line) for line in out.stdout.splitlines()]


# where the stream's scaled quotient num / n * 2^(-b n) is not term_fn's and
# it falls back to term_fn's division: num / n overflows (SUM_38(256) from
# n = 700, where num has 2722+ bits), or the term is subnormal or 0.0.  At
# THM_21(8), n = 540, a scaling's own rounding into the subnormals is one ulp
# off, and the running scale 2^(-b n) is itself 0.0 past b n = 1074.
FALLBACKS = [(CatalogKey("SUM_38", 256), 700, 720),
             (CatalogKey("THM_21", 1), 500, 560),
             (CatalogKey("THM_29", 1), 250, 290),
             (CatalogKey("THM_21", 8), 530, 550)]


@pytest.mark.parametrize("key, lo, hi", FALLBACKS, ids=[key.label() for key, _, _ in FALLBACKS])
def test_family_stream_fallbacks_match_term_fn(key, lo, hi):
    entry = catalog.get(key.id)
    terms = [entry.term_fn(key.param, n) for n in range(lo, hi + 1)]
    if key.id == "SUM_38":
        c = math.comb(2 * lo, 2 * key.param + 1)
        with pytest.raises(OverflowError):
            c * (4 ** lo - 1) / lo
    else:
        assert any(0.0 < t < 2.0 ** -1022 for t in terms)
    # the stream from N = 1 read through hi + 2, then one from each N in lo..hi
    expected = [_reference_stream(key, 1, through=hi + 2)]
    expected += [_reference_stream(key, N) for N in range(lo, hi + 1)]
    starts = [1, *range(lo, hi + 1)]
    got = _library_streams([(key.id, key.param, N, len(e)) for N, e in zip(starts, expected)])
    for N, g, e in zip(starts, got, expected):
        assert g == e, N


# the first N at which each key's float terms are 0.0 from N + 1 on
UNDERFLOWS = [(CatalogKey("THM_21", 1), 537), (CatalogKey("THM_21", 64), 719),
              (CatalogKey("SUM_28", 1), 542), (CatalogKey("THM_29", 1), 268),
              (CatalogKey("THM_29", 64), 342), (CatalogKey("SUM_37", 1), 542),
              (CatalogKey("SUM_38", 0), 537)]


def test_family_tail_closes_past_underflow():
    # once the float terms underflow to 0.0 each tail is 0 and tail_bound is
    # TAIL_FLOOR: the true tail there is below 1e-300
    got = _library_streams([(key.id, key.param, N, 3) for key, N in UNDERFLOWS])
    for (key, N), stream in zip(UNDERFLOWS, got):
        term_fn = catalog.get(key.id).term_fn
        assert stream == _hex((term_fn(key.param, n), 0.0) for n in range(N, N + 3)), key.label()
        assert [catalog.tail_bound(key, n) for n in range(N, N + 3)] == [catalog.TAIL_FLOOR] * 3


ZERO_BLOCK_KEYS = [CatalogKey(id_, p) for id_ in ("THM_21", "SUM_28", "SUM_37", "SUM_38")
                   for p in (1, 2, 31, 32, 63, 64)] + [CatalogKey("THM_29", 64)]


@pytest.mark.parametrize("key", ZERO_BLOCK_KEYS, ids=CatalogKey.label)
def test_family_stream_from_each_n_through_zero_block(key):
    # the leading zero binomials come as one block sharing the tail before
    # the first nonzero term; a stream may start inside it or past it
    first = next(n for n in count(1) if Reference(key).nonzero(n))
    for N in range(1, first + 3):
        expected = _reference_stream(key, N)
        assert _hex(islice(_steps(catalog.get(key.id), key.param, N), len(expected))) == expected, N


def _scan_lines():
    """float.hex lines of each family scan_fn(p, N, 1.0, limit, last), for N
    at the start, inside the zero block and at its end, and for last below
    N, inside the zero block, just before first, between first and M - 1,
    at M - 1, at M and past M (M the closure point from N, by Reference's
    first-n rule)."""
    lines = []
    for id_ in FAMILY_IDS:
        entry = catalog.get(id_)
        for p in sorted({entry.param_min, 2, 31, 64, catalog.PARAM_CAP}):
            ref = Reference(CatalogKey(id_, p))
            block_end = next(n for n in count(entry.start_index) if ref.nonzero(n))
            for N in sorted({entry.start_index, (entry.start_index + block_end) // 2, block_end}):
                first = max(N, block_end)
                M = N + len(ref.tails(N))
                lasts = {N - 1, N, (N + first) // 2, first - 1, first, (first + M) // 2, M - 1, M, M + 1, M + 4}
                for limit in (math.inf, 1e-13):
                    for last in sorted(lasts):
                        steps = " ".join(f"{j}:{t.hex()}:{s.hex()}:{tail.hex()}"
                                         for j, t, s, tail in entry.scan_fn(p, N, 1.0, limit, last))
                        lines.append(f"{id_}({p}) {N} {limit!r} {last} {steps}")
    return lines


def test_family_scan_bits_are_pinned_at_each_last():
    # the term cap of a scan cuts its yields at last wherever last falls:
    # below the start, in the zero block, in the head, at M and past it
    lines = _scan_lines()
    assert len(lines) == 994
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "53ab70e678a4ebc4b5a34eed961b0caaa9303f007461773c1e57705824d909f4"


def test_thm29_stops_inside_zero_block():
    # C(2n, m) = 0 for n < m/2 and the first nonzero term is below 1e-20, so
    # the tail at n = 1 already clears 1e-13 / 2
    for m in range(33, 65):
        assert [r.n_terms for r in verifier.verify(CatalogKey("THM_29", m), 1e-13)] == [1], m


# the tolerances and keys (every family parameter up to 64) of the depth rule's
# original acceptance check: 347 keys x 8 tolerances = 2 776 pairs
PAIR_TOLERANCES = (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-7, 1e-4, 1e-2)


def _keys_up_to(param_limit):
    keys = []
    for e in catalog.registry().values():
        if not e.verifiable:
            continue
        if e.is_family:
            keys.extend(CatalogKey(e.id, p) for p in range(e.param_min, param_limit + 1))
        else:
            keys.append(CatalogKey(e.id))
    return keys


def test_evaluate_equals_assembled_sum_at_depth_for():
    pairs = [(key, tol) for key in _keys_up_to(64) for tol in PAIR_TOLERANCES]
    assert len(pairs) == 2776
    for key, tol in pairs:
        res = catalog.evaluate(key, tol)
        assert res == catalog.assembled_sum(key, catalog.depth_for(key, tol)), (key.label(), tol)


@pytest.mark.parametrize("key", [CatalogKey("RZS_ONE"), CatalogKey("ZETA3_EWELL_16"),
                                 CatalogKey("ZETA3_APERY_14"), CatalogKey("THM_21", 5),
                                 CatalogKey("SUM_37", 3), CatalogKey("SUM_38", 64)],
                         ids=CatalogKey.label)
def test_depth_for_term_cap(key, monkeypatch):
    # both raise exactly when the cap is below the number of terms the
    # reference depth takes, start_index..depth
    start = catalog.get(key.id).start_index
    for tol in PAIR_TOLERANCES:
        depth, _, _ = Reference(key).evaluate(tol)
        terms = depth - start + 1
        for cap in range(max(1, terms - 2), terms + 2):
            monkeypatch.setattr(catalog, "MAX_TERMS", cap)
            if cap < terms:
                with pytest.raises(InconclusiveError):
                    catalog.depth_for(key, tol)
                with pytest.raises(InconclusiveError):
                    catalog.evaluate(key, tol)
            else:
                assert catalog.depth_for(key, tol) == depth
                assert catalog.evaluate(key, tol).terms_used == terms


def test_depth_for_inconclusive_under_small_cap(monkeypatch):
    monkeypatch.setattr(catalog, "MAX_TERMS", 4)
    for key in (CatalogKey("ZETA3_EWELL_16"), CatalogKey("SUM_28", 32)):
        with pytest.raises(InconclusiveError, match="4-term cap"):
            catalog.depth_for(key, 1e-10)
        with pytest.raises(InconclusiveError, match="4-term cap"):
            catalog.evaluate(key, 1e-10)


@pytest.mark.parametrize("tol", [1e-14, 1e-20, 0.0, -1.0, math.nan, math.inf, -math.inf])
def test_depth_for_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        catalog.depth_for(CatalogKey("ZETA3_APERY_14"), tol)
    with pytest.raises(ValueError):
        catalog.evaluate(CatalogKey("THM_21", 3), tol)


def _reference_reports(tolerance, param_limit):
    """verify_all's reports, built from Reference alone: citation order, the
    printed variant of a corrected entry once, at its first key."""
    reports = []
    for key in _keys_up_to(param_limit):
        ref = Reference(key)
        n, lhs, bound = ref.evaluate(tolerance)
        # the library's bound at the chosen depth and the one before it
        scale = abs(ref.entry.scale_fn(key.param)) if ref.entry.scale_fn else 1.0
        assert scale * catalog.tail_bound(key, n) == bound
        if n > ref.entry.start_index:
            assert scale * catalog.tail_bound(key, n - 1) > tolerance / 2
        variants = [("corrected", catalog.closed_form(key))]
        if ref.entry.status == "corrected" and key.param in (None, ref.entry.param_min):
            variants.append(("printed", catalog.printed_closed_form(key)))
        for variant, rhs in variants:
            err = abs(lhs - rhs)
            rel = err / abs(rhs) if rhs != 0.0 else math.inf
            reports.append(verifier.VerificationReport(
                key, lhs, rhs, err, rel, n - ref.entry.start_index + 1, tolerance, variant,
                err <= tolerance + bound))
    return reports


@pytest.mark.parametrize("tolerance, param_limit", [(1e-10, 12), (1e-13, 64)])
def test_verify_all_report_matches_reference(tolerance, param_limit):
    # the byte-identity gate: the JSON report of `zetakit verify --all` at the
    # defaults and at the tolerance floor with the CLI's largest param limit
    expected = verifier.reports_to_json(_reference_reports(tolerance, param_limit))
    assert verifier.reports_to_json(verifier.verify_all(tolerance, param_limit)) == expected


def test_verify_all_report_at_the_param_cap_is_pinned():
    # the reference route takes about 10 s at PARAM_CAP, so the report there
    # is pinned by its digest instead; only the two printed variants fail
    reports = verifier.verify_all(1e-13, catalog.PARAM_CAP)
    assert len(reports) == 1309
    assert [(r.key.label(), r.variant) for r in reports if not r.passed] == [
        ("SUM_28(1)", "printed"), ("SUM_34", "printed")]
    digest = hashlib.sha256(verifier.reports_to_json(reports).encode()).hexdigest()
    assert digest == "9b32e0ad27a05329d052ebed68f87b1781ab57ee05ae0fd73ffc1be3b46b420a"


def _bits_battery():
    """float.hex lines of evaluate at each of PAIR_TOLERANCES for every key up
    to 64 and every eighth family parameter above, of tail_bound around each
    family's closure point, and of each family's first 300 partial sums."""
    keys = _keys_up_to(64) + [CatalogKey(id_, p) for id_ in FAMILY_IDS
                              for p in range(72, catalog.PARAM_CAP + 1, 8)]
    lines = []
    for key in keys:
        for tol in PAIR_TOLERANCES:
            value, terms, bound = catalog.evaluate(key, tol)
            lines.append(f"{key.label()} {tol!r} {value.hex()} {terms} {bound.hex()}")
    for id_ in FAMILY_IDS:
        entry = catalog.get(id_)
        for p in (entry.param_min, 12, 64, catalog.PARAM_CAP):
            key = CatalogKey(id_, p)
            closure = Reference(key).closure_point()
            for N in range(max(entry.start_index, closure - 3), closure + 3):
                lines.append(f"{key.label()} tail {N} {catalog.tail_bound(key, N).hex()}")
            for N, value, bound in islice(catalog.partial_sums(key), 300):
                lines.append(f"{key.label()} sum {N} {value.hex()} {bound.hex()}")
    return lines


def test_evaluate_tail_bound_and_partial_sums_bits_are_pinned():
    # every term, tail, sum, bound and depth the scans produce, bit for bit
    # (verify_all's digest above pins every key up to PARAM_CAP at 1e-13)
    lines = _bits_battery()
    assert len(lines) == 9848  # 3 736 evaluations, 112 tail bounds, 6 000 partial sums
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "51ea6782c48c355e1fb0a881f5eb00d04db85219af1291e461e7dbf1b7643c5c"


SCALAR_IDS = [e.id for e in catalog.registry().values() if e.verifiable and not e.is_family]


def _scalar_scan_lines():
    """float.hex lines of each scalar entry's first 300 partial sums, the
    first 300 steps of its stream from start_index + 3, its tail_bound at N =
    start_index..start_index + 40, and every yield of its scan at two limits
    with the term cap below, inside and past the depth those limits pick."""
    lines = []
    for id_ in SCALAR_IDS:
        entry, key = catalog.get(id_), CatalogKey(id_)
        start = entry.start_index
        for N, value, bound in islice(catalog.partial_sums(key), 300):
            lines.append(f"{id_} sum {N} {value.hex()} {bound.hex()}")
        for n, t, value, tail in islice(entry.stream(None, start + 3), 300):
            lines.append(f"{id_} stream {n} {t.hex()} {value.hex()} {tail.hex()}")
        for N in range(start, start + 41):
            lines.append(f"{id_} tail {N} {catalog.tail_bound(key, N).hex()}")
        for limit in (1e-13, 1e-6):
            for last in (start - 1, start + 5, start + 60):
                steps = " ".join(f"{j}:{t.hex()}:{s.hex()}:{tail.hex()}"
                                 for j, t, s, tail in entry.scan_fn(None, start, 2.0, limit, last))
                lines.append(f"{id_} scan {limit!r} {last} {steps}")
    return lines


def test_scalar_scan_bits_are_pinned():
    # every term, running sum and tail of the 26 scalar scans, bit for bit
    # (the battery above pins only their evaluate)
    lines = _scalar_scan_lines()
    assert len(SCALAR_IDS) == 26
    assert len(lines) == 26 * (300 + 300 + 41 + 6)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "dc1b819c5bca0af86c006afacc93cf9afe8b36e77753fb583a2923e60c46b8b8"


def test_family_evaluate_bits_are_pinned_at_every_param():
    # value, depth and bound of evaluate for every family parameter up to
    # PARAM_CAP (the battery above takes every eighth above 64, and the
    # verify_all digest pins no error_bound)
    lines = []
    for id_ in FAMILY_IDS:
        for p in range(catalog.get(id_).param_min, catalog.PARAM_CAP + 1):
            key = CatalogKey(id_, p)
            for tol in (1e-13, 1e-6):
                value, terms, bound = catalog.evaluate(key, tol)
                lines.append(f"{key.label()} {tol!r} {value.hex()} {terms} {bound.hex()}")
    assert len(lines) == 2562  # 1 281 keys x 2 tolerances
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0e87f804d04e5d79b1bc737a771d0649110179d66de9f04e8bb6578c9d8cf7f1"


@pytest.mark.parametrize("id_", FAMILY_IDS)
def test_family_terms_and_tails_are_non_negative(id_):
    # the family scan drops abs() on its terms, tails and sums: every term is
    # zeta(2n) C(.,.) (1 - 4^-n)^{0,1} / (n inv_pow^n) with n >= 1, so it is
    # +0.0 or above, never -0.0
    entry = catalog.get(id_)
    assert entry.start_index >= 1
    for p in (entry.param_min, 12, 64, catalog.PARAM_CAP):
        for n, t, value, tail in islice(entry.stream(p, entry.start_index), 600):
            for x in (t, value, tail):
                assert x >= 0.0 and math.copysign(1.0, x) == 1.0, (p, n, x)


def test_zeta_even_table_builds_alike_under_threads():
    # the scans read one zeta(2n) table, built on first use, and one zeta(m) - 1
    # table, filled per m, and the Cl2 series its per-method coefficient table,
    # built from both: threads that fill them at once must each get the tables
    # and the results a single thread gets
    keys = [CatalogKey(id_, p) for id_ in FAMILY_IDS for p in (1, 8, 64)]
    keys += [CatalogKey(id_) for id_ in ("RZS_ONE", "RZS_GAMMA", "RZS_LOG2", "ZETA3_20")]
    methods = ("accel", "wzl", "peeled")

    def run():
        return ([catalog.evaluate(key, 1e-13) for key in keys]
                + [specfun.clausen_cl2(3.0, method) for method in methods])

    specfun._cl2_coefficients.cache_clear()
    specfun._ZETA_M1.clear()  # so that it holds just what these keys and the Cl2 tables read
    expected = run()
    table, m1_table = specfun.zeta_even_table(), dict(specfun._ZETA_M1)
    cl2_tables = [specfun._cl2_coefficients(method) for method in methods]
    interval = sys.getswitchinterval()
    for _ in range(5):  # fresh tables each round
        specfun.zeta_even_table.cache_clear()
        specfun._cl2_coefficients.cache_clear()
        specfun._ZETA_M1.clear()
        results, start = {}, threading.Barrier(8)

        def worker(i):
            start.wait(timeout=60)  # every thread builds the tables at once
            results[i] = run()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == 8 and all(got == expected for got in results.values())
        assert specfun.zeta_even_table() == table
        assert len(table) == specfun.ZETA_EVEN_LEN
        assert dict(specfun._ZETA_M1) == m1_table
        assert [specfun._cl2_coefficients(method) for method in methods] == cl2_tables


def _weight(n):
    # the weighted families' cap factor (1 - 4^-n/4) / (1 - 4^-n)
    q = math.ldexp(1.0, -2 * n)
    return (1.0 - 0.25 * q) / (1.0 - q)


def test_weight_tuple_is_the_formula_and_one_past_it():
    assert len(catalog._WEIGHT) == specfun.ZETA_EVEN_LEN
    assert [_weight(n) for n in range(1, specfun.ZETA_EVEN_LEN)] == list(catalog._WEIGHT[1:])
    # from n = 27 on 4^-n <= 2^-54, and both 1 - 4^-n and 1 - 4^-n/4 round to 1.0
    assert _weight(26) > 1.0
    assert all(_weight(n) == 1.0 for n in range(27, 5001))
