"""Seeded inputs for the three benchmark workloads.

Nothing here imports zetakit or mpmath: the same seed gives the same inputs,
and the program under test only ever sees the generated operation lists.

Seeded inputs are drawn from finite grids.  `audit_domains.py` checks every
point of those grids against mpmath, so no seed can land on an input whose
output breaks its own error bound.  The regions where zetakit is known to
break its bounds are exercised by the fixed `FAULT_OPS` instead, which fail
on every run and every seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify-deep", "specfun-mix", "cli-cold")

CL2_METHODS = ("accel", "wzl", "peeled", "auto")

# --- verify-deep --------------------------------------------------------------

VERIFY_TOL = 1e-13  # the verifier's tolerance floor
PARAM_LIMIT = 64  # the CLI's maximum --param-limit

# Catalogue entries in citation order: (id, smallest family parameter), with
# None for scalar entries.  Representations (CL2_*) are not summable.
VERIFIABLE = (
    ("SUM_9", None), ("ZETA3_12", None), ("ZETA3_13", None), ("ZETA3_APERY_14", None),
    ("ZETA3_CK_15", None), ("ZETA3_EWELL_16", None), ("ZETA3_17", None), ("ZETA3_18", None),
    ("ZETA3_19", None), ("ZETA3_20", None), ("RZS_ONE", None), ("RZS_GAMMA", None),
    ("RZS_LOG2", None), ("THM_21", 1), ("SUM_22", None), ("SUM_23", None), ("SUM_24", None),
    ("SUM_25", None), ("SUM_26", None), ("SUM_27", None), ("SUM_28", 1), ("THM_29", 1),
    ("SUM_30", None), ("SUM_31", None), ("SUM_32", None), ("SUM_33", None), ("SUM_34", None),
    ("SUM_35", None), ("SUM_36", None), ("SUM_37", 1), ("SUM_38", 0),
)
REPRESENTATIONS = ("CL2_ACCEL_8", "CL2_PEELED_10", "CL2_WZL_11")
CATALOGUE_IDS = ("CL2_ACCEL_8", "SUM_9", "CL2_PEELED_10", "CL2_WZL_11") + tuple(
    i for i, _ in VERIFIABLE[1:]
)
ZETA3_IDS = tuple(i for i, _ in VERIFIABLE if i.startswith("ZETA3_"))


def verify_keys(param_limit: int) -> list[tuple[str, int | None, bool]]:
    """(id, param, include_printed) for every check `verify_all` makes.

    The printed variant of a corrected entry is checked once, at the family's
    smallest parameter, as `verify_all` does.
    """
    keys = []
    for ident, pmin in VERIFIABLE:
        params = [None] if pmin is None else list(range(pmin, param_limit + 1))
        for i, p in enumerate(params):
            keys.append((ident, p, i == 0))
    return keys


def verify_deep_ops(seed: int) -> list[list]:
    """One `verify` call per key of verify_all(1e-13, 64), in seeded order."""
    ops = [["verify", ident, p, printed] for ident, p, printed in verify_keys(PARAM_LIMIT)]
    random.Random(seed).shuffle(ops)
    return ops


# --- specfun-mix ----------------------------------------------------------------

TWO_PI = 2.0 * math.pi

INTEGRAL_IDS = ("INT_LOG_SIN", "INT_LOG_COS", "INT_LOG_ONE_PLUS_COS", "INT_LOG_ONE_PLUS_SIN", "CL2_INTEGRAL")
INTEGRAL_TOL = 1e-10

# Fixed operations that break their error bound on every run, one fault each.
FAULT_OPS = (
    # _cl2_reduce reduces with the float TWO_PI and leaves the reduction
    # error out of error_bound: near nonzero multiples of 2 pi, at large
    # |theta|, and for small negative theta (reduced through 2 pi - r).
    *(("cl2_reduce", ["cl2", t, m]) for t in (6.2455, 1e4, 1e6, -0.0011) for m in CL2_METHODS),
    # _cl2_peeled understates its bound as r -> 0
    ("cl2_peeled", ["cl2", 0.0011, "peeled"]),
    # 1 - 2**(1-s) cancels as s -> 1 from below; the bound omits it
    ("zeta_cancellation", ["zeta", 0.999]),
    ("zeta_cancellation", ["zeta", 0.9999]),
)


def _dist_to_2pi_lattice(theta: float) -> float:
    return abs(theta - TWO_PI * round(theta / TWO_PI))


def cl2_general_grid() -> list[float]:
    """theta = j/1024, |theta| <= 4 pi, at least 0.5 from every multiple of 2 pi."""
    top = int(4 * math.pi * 1024)
    return [j / 1024 for j in range(-top, top + 1) if _dist_to_2pi_lattice(j / 1024) >= 0.5]


def cl2_near_zero_grid() -> list[float]:
    """theta = 10^(-j/64) in [1e-8, 0.1], positive only."""
    return [10.0 ** (-j / 64) for j in range(64, 513)]


def cl2_near_pi_grid() -> list[float]:
    """theta = c pi +- 10^(-j/64), c in {-3, -1, 1, 3}, offsets in [1e-9, 1e-2]."""
    return [c * math.pi + s * 10.0 ** (-j / 64)
            for c in (-3, -1, 1, 3) for s in (1, -1) for j in range(128, 577)]


def zeta_unit_grid() -> list[float]:
    """s = j/1024 in [0.1, 0.9]: 0 < s < 1 away from both ends, where the bound holds."""
    return [j / 1024 for j in range(103, 922)]


def zeta_near_one_grid() -> list[float]:
    """s = 1 + 10^(-j/64) in [1 + 1e-6, 1.1]."""
    return [1.0 + 10.0 ** (-j / 64) for j in range(64, 385)]


def zeta_large_grid() -> list[float]:
    """s = j/256 in [1.1, 40]."""
    return [j / 256 for j in range(282, 10241)]


# Continuous ranges for the kernels whose bounds hold with a wide margin
# (audit_domains.py samples them): Hurwitz a <= 10, polygamma z <= 50.
HURWITZ_S = (1.05, 40.0)
HURWITZ_A = (1e-3, 10.0)
POLYGAMMA_ORDERS = (1, 8)
POLYGAMMA_Z = (1e-3, 50.0)


def _stratified(rng: random.Random, grid: list[float], count: int) -> list[float]:
    """One point from each of `count` equal slices of the grid.

    Every seed then covers the whole range in the same proportions, so the
    per-seed mix of cheap and costly inputs barely moves.
    """
    out = []
    for i in range(count):
        lo = i * len(grid) // count
        hi = (i + 1) * len(grid) // count
        out.append(grid[rng.randrange(lo, hi)])
    return out


def log_uniform(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """`count` points, one in each of `count` equal slices of [lo, hi] in log scale."""
    span = math.log(hi / lo) / count
    return [lo * math.exp(span * (i + rng.random())) for i in range(count)]


def specfun_mix_ops(seed: int) -> tuple[list[list], list[str | None]]:
    """Seeded library calls plus the fixed fault operations and heavy checks.

    Returns the operation list and, for each operation, the name of the
    known fault it exercises (None for operations that must hold their bound).
    """
    rng = random.Random(seed)
    ops: list[list] = []
    for t in _stratified(rng, cl2_general_grid(), 240):
        ops += [["cl2", t, m] for m in CL2_METHODS]
    for t in _stratified(rng, cl2_near_zero_grid(), 32):
        # peeled near 0 is a known fault (FAULT_OPS); the other methods hold
        ops += [["cl2", t, m] for m in ("accel", "wzl", "auto")]
    for t in _stratified(rng, cl2_near_pi_grid(), 32):
        ops += [["cl2", t, m] for m in CL2_METHODS]
    ops += [["zeta", s] for s in _stratified(rng, zeta_unit_grid(), 48)]
    ops += [["zeta", s] for s in _stratified(rng, zeta_near_one_grid(), 16)]
    ops += [["zeta", s] for s in _stratified(rng, zeta_large_grid(), 64)]
    ops += [["zeta_minus_one", s] for s in _stratified(rng, zeta_large_grid(), 48)]
    ops += [["hurwitz", s, a] for s, a in zip(
        log_uniform(rng, *HURWITZ_S, 96), rng.sample(log_uniform(rng, *HURWITZ_A, 96), 96))]
    ops += [["beta", s] for s in _stratified(rng, zeta_large_grid(), 64)]
    lo, hi = POLYGAMMA_ORDERS
    ops += [["polygamma", rng.randint(lo, hi), z] for z in log_uniform(rng, *POLYGAMMA_Z, 64)]
    ops += [["euler_gamma"], ["catalan"]]
    faults: list[str | None] = [None] * len(ops)
    for fault, op in FAULT_OPS:
        ops.append(list(op))
        faults.append(fault)
    order = list(range(len(ops)))
    rng.shuffle(order)
    ops = [ops[i] for i in order]
    faults = [faults[i] for i in order]
    # the costly checks run last in every pass, in a fixed order
    heavy = [["integral", i, INTEGRAL_TOL] for i in INTEGRAL_IDS] + [["cross_check"]]
    return ops + heavy, faults + [None] * len(heavy)


# --- cli-cold -----------------------------------------------------------------

CLI_ZETA3_TOL = "1e-12"


def cli_cold_commands(seed: int) -> list[list[str]]:
    """The fixed list of commands a user types, in seeded order.

    Only the compute cl2 angle comes from the seed; it is drawn from the
    audited general grid.
    """
    rng = random.Random(seed)
    theta = rng.choice([t for t in cl2_general_grid() if abs(t) <= TWO_PI])
    commands = [["compute", "zeta3", "--method", i, "--tol", CLI_ZETA3_TOL] for i in ZETA3_IDS]
    commands += [
        ["compute", "cl2", "--theta", repr(theta)],
        ["compute", "catalan"],
        ["compute", "beta", "3"],
        ["compute", "zetaE", "0"],
        ["verify", "--all", "--format", "json"],
        ["verify", "--id", "SUM_34", "--format", "json"],
        ["verify", "--id", "THM_21", "--m", "5"],
        ["converge", "--target", "zeta3"],
        ["list", "--format", "json"],
    ]
    rng.shuffle(commands)
    return commands
