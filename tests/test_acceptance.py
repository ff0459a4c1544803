"""Acceptance suite: the ten exit criteria, one test per criterion, each
printing its own pass/fail line (run with -s to watch them stream)."""

import json
import math
import random
import time
from fractions import Fraction

from zetakit import catalog, verifier
from zetakit.catalog import CatalogKey
from zetakit.cli import main
from zetakit.convergence import profile
from zetakit.exact import binomial, zeta_even_exact
from zetakit.specfun import catalan, clausen_cl2, riemann_zeta, zeta_minus_one, zeta_even_m1_float
from zetakit.verifier import check_binomial_identity, cross_check_clausen, quadrature

PI = math.pi


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_euler_baseline():
    t0 = time.perf_counter()
    z2 = riemann_zeta(2.0).value
    ok = abs(z2 - PI ** 2 / 6) <= 1e-13 * (PI ** 2 / 6)
    for n in range(1, 11):
        exact = zeta_even_exact(n).numeric()
        ok = ok and abs(riemann_zeta(2.0 * n).value - exact) <= 1e-12 * exact
    ok = ok and (time.perf_counter() - t0) < 1.0
    _report("1 euler-baseline", ok)


def test_criterion_2_identity_suite(capsys):
    t0 = time.perf_counter()
    code = main(["verify", "--all", "--tol", "1e-9", "--param-limit", "12", "--format", "json"])
    elapsed = time.perf_counter() - t0
    data = json.loads(capsys.readouterr().out)
    fails = [r for r in data if not r["pass"]]
    ok = code == 0 and elapsed < 30.0
    ok = ok and {(r["key"]["id"], r["variant"]) for r in fails} == {
        ("SUM_28", "printed"), ("SUM_34", "printed"),
    }
    ok = ok and all(r["abs_err"] > 0.1 for r in fails)
    with capsys.disabled():
        _report("2 identity-suite", ok)


def test_criterion_3_zeta3_nine_ways():
    z3 = riemann_zeta(3.0).value
    ok = abs(z3 - 1.2020569031595942) <= 1e-12
    nine = [e.id for e in catalog.registry().values() if "zeta3" in e.targets]
    ok = ok and len(nine) == 9
    for id_ in nine:
        p = profile(CatalogKey(id_), 1e-10)
        ok = ok and p.achieved_error <= 1e-10
    ok = ok and profile(CatalogKey("ZETA3_APERY_14"), 1e-12).terms_needed <= 25
    for id_ in ("ZETA3_17", "ZETA3_18", "ZETA3_19"):
        ok = ok and profile(CatalogKey(id_), 1e-10).terms_needed <= 12
    _report("3 zeta3-nine-ways", ok)


def test_criterion_4_clausen_cross_check():
    report = cross_check_clausen()  # 64 angles, tolerance 1e-9
    ok = report.passed
    ok = ok and abs(clausen_cl2(PI).value) <= 1e-11
    ok = ok and abs(clausen_cl2(PI / 2).value - catalan().value) <= 1e-11
    _report("4 clausen-cross-check", ok)


def test_criterion_5_catalan_relation():
    (report,) = verifier.verify(CatalogKey("SUM_9"), 1e-10)
    ok = report.passed
    g = catalan().value
    rhs = 2.0 * g / PI - 1.0 + math.log(PI / 2.0)
    ok = ok and abs(report.rhs - rhs) <= 1e-14
    ok = ok and f"{g:.16g}".startswith("0.9159")
    _report("5 catalan-relation", ok)


def test_criterion_6_quadrature_identities():
    t0 = time.perf_counter()
    ok = abs(quadrature("log_sin", 0.0, PI / 2).value + PI / 2 * math.log(2.0)) <= 1e-8
    ok = ok and abs(quadrature("log_two_sin_half", 0.0, PI).value) <= 1e-8
    moment = (35.0 / 128.0) * riemann_zeta(3.0).value - PI * catalan().value / 8.0 \
        - PI ** 2 / 32.0 * math.log(2.0)
    ok = ok and abs(quadrature("x_log_sin", 0.0, PI / 4).value - moment) <= 1e-8
    for identity_id in ("INT_LOG_SIN", "INT_LOG_COS", "INT_LOG_ONE_PLUS_COS", "INT_LOG_ONE_PLUS_SIN"):
        rep = verifier.verify_integral_identity(identity_id, 1e-8)
        ok = ok and rep.passed and rep.abs_err <= 1e-8
    ok = ok and (time.perf_counter() - t0) < 10.0
    _report("6 quadrature-identities", ok)


def test_criterion_7_exact_combinatorics():
    ok = check_binomial_identity(20, 20)

    # independent recurrence oracles, run in place
    bern = [Fraction(1)]
    for m in range(1, 13):
        bern.append(-sum(binomial(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    ok = ok and bern[12] == Fraction(-691, 2730)

    euler = [1]
    for m in range(1, 6):
        euler.append(-sum(binomial(2 * m, 2 * k) * euler[k] for k in range(m)))
    ok = ok and euler[5] == -50521

    from zetakit.exact import bernoulli, euler_number
    ok = ok and bernoulli(12) == Fraction(-691, 2730) and euler_number(10) == -50521
    _report("7 exact-combinatorics", ok)


def test_criterion_8_rational_zeta_series():
    one = sum(zeta_minus_one(float(m)).value for m in range(2, 60))
    gamma_sum = sum(zeta_minus_one(float(m)).value / m for m in range(2, 60))
    log2 = sum(zeta_even_m1_float(n) / n for n in range(1, 40))
    from zetakit.specfun import euler_gamma
    ok = abs(one - 1.0) <= 1e-9
    ok = ok and abs(gamma_sum - (1.0 - euler_gamma().value)) <= 1e-9
    ok = ok and abs(log2 - math.log(2.0)) <= 1e-9
    # and the catalogued forms agree
    for id_ in ("RZS_ONE", "RZS_GAMMA", "RZS_LOG2"):
        (rep,) = verifier.verify(CatalogKey(id_), 1e-9)
        ok = ok and rep.passed
    _report("8 rational-zeta-series", ok)


def test_criterion_9_tail_bound_soundness():
    rng = random.Random(20260810)
    keys = []
    for e in catalog.registry().values():
        if not e.verifiable:
            continue
        if e.is_family:
            keys.extend(CatalogKey(e.id, p) for p in range(e.param_min, 13))
        else:
            keys.append(CatalogKey(e.id))
    ok = True
    for _ in range(200):
        key = rng.choice(keys)
        start = catalog.get(key.id).start_index
        n = start + rng.randrange(0, 40)
        near = catalog.partial_sum(key, n).value
        far = catalog.partial_sum(key, n + 200).value
        ok = ok and abs(far - near) <= catalog.tail_bound(key, n)
    _report("9 tail-bound-soundness", ok)


def test_criterion_10_determinism(capsys):
    runs = []
    for _ in range(2):
        code = main(["verify", "--all", "--tol", "1e-9", "--format", "json"])
        assert code == 0
        runs.append(capsys.readouterr().out.encode())
    ok = runs[0] == runs[1]
    with capsys.disabled():
        _report("10 determinism", ok)
