"""Audit the input domains that specfun-mix and cli-cold draw from.

    PYTHONPATH=src python3 perfbench/audit_domains.py

For every point of each finite grid in workloads.py, and for random samples
of the continuous ranges, compare zetakit's value with mpmath and report the
worst error/bound ratio.  A ratio above 1 means some seed could draw an input
that breaks its bound: the run exits 1.  It also confirms that every fixed
FAULT_OPS operation still breaks its bound.  Takes a few minutes.
"""

from __future__ import annotations

import random
import sys

import mpmath as mp

import oracles
import workloads

SAMPLES = 5000  # random samples per continuous range


def ratio(res, ref) -> float:
    with mp.workdps(oracles.DPS):
        err = abs(mp.mpf(res.value) - ref)
        bound = mp.mpf(res.error_bound)
        if bound == 0:
            return 0.0 if err == 0 else float("inf")
        return float(err / bound)


def audit(name: str, points, evaluate) -> float:
    worst, where = 0.0, None
    for p in points:
        r = evaluate(p)
        if r > worst:
            worst, where = r, p
    print(f"{name:<34} {len(points):>7} inputs  worst error/bound {worst:.3f}  at {where}")
    return worst


def main() -> int:
    from zetakit import specfun

    rng = random.Random(0)

    def cl2_all(methods):
        def evaluate(theta):
            ref = oracles.cl2(theta)
            return max(ratio(specfun.clausen_cl2(theta, m), ref) for m in methods)
        return evaluate

    worst = [
        audit("cl2 general (4 methods)", workloads.cl2_general_grid(), cl2_all(workloads.CL2_METHODS)),
        audit("cl2 near 0 (accel, wzl, auto)", workloads.cl2_near_zero_grid(),
              cl2_all(("accel", "wzl", "auto"))),
        audit("cl2 near odd multiples of pi", workloads.cl2_near_pi_grid(), cl2_all(workloads.CL2_METHODS)),
        audit("zeta on (0, 1)", workloads.zeta_unit_grid(),
              lambda s: ratio(specfun.riemann_zeta(s), oracles.zeta(s))),
        audit("zeta near 1+", workloads.zeta_near_one_grid(),
              lambda s: ratio(specfun.riemann_zeta(s), oracles.zeta(s))),
        audit("zeta on [1.1, 40]", workloads.zeta_large_grid(),
              lambda s: ratio(specfun.riemann_zeta(s), oracles.zeta(s))),
        audit("zeta_minus_one on [1.1, 40]", workloads.zeta_large_grid(),
              lambda s: ratio(specfun.zeta_minus_one(s), oracles.zeta_minus_one(s))),
        audit("dirichlet_beta on [1.1, 40]", workloads.zeta_large_grid(),
              lambda s: ratio(specfun.dirichlet_beta(s), oracles.beta(s))),
        audit("hurwitz_zeta (sampled)", list(zip(
            workloads.log_uniform(rng, *workloads.HURWITZ_S, SAMPLES),
            rng.sample(workloads.log_uniform(rng, *workloads.HURWITZ_A, SAMPLES), SAMPLES))),
            lambda p: ratio(specfun.hurwitz_zeta(*p), oracles.hurwitz(*p))),
        audit("polygamma (sampled)", [
            (rng.randint(*workloads.POLYGAMMA_ORDERS), z)
            for z in workloads.log_uniform(rng, *workloads.POLYGAMMA_Z, SAMPLES)],
            lambda p: ratio(specfun.polygamma(*p), oracles.polygamma(*p))),
    ]
    ok = max(worst) <= 1.0
    call = {"cl2": specfun.clausen_cl2, "zeta": specfun.riemann_zeta}
    for fault, op in workloads.FAULT_OPS:
        r = ratio(call[op[0]](*op[1:]), oracles.specfun_value(op))
        print(f"fault {fault:<18} {op}  error/bound {r:.3g}")
        ok = ok and r > 1.0
    print("audit", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
