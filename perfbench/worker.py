"""Runs a workload's operations inside one warm process, or one traced CLI command.

    python3 perfbench/worker.py JOB.json RESULT.json
    python3 perfbench/worker.py cli TRACE.json -- <zetakit.cli arguments>

The first form reads the operation list from JOB.json, runs a warm-up pass,
then whole timed passes until `seconds` have passed and at least `min_ops`
operations were timed, then (when `trace` is set) one traced pass.  It
writes the outputs of the first pass, every latency and every pass time to
RESULT.json.  The second form runs one CLI command under the tracer and
writes the aggregates to TRACE.json; the command's output and exit code are
its own.  zetakit is imported from PYTHONPATH, which run.py points at src/.
"""

from __future__ import annotations

import gc
import json
import sys
from time import perf_counter

from calibrate import Calibrator
from spans import Tracer

CHUNK_S = 0.005  # work between two calibrations


def _eval(res) -> list:
    return [res.value, res.terms_used, res.error_bound]


def _report(rep) -> dict:
    return rep.to_dict()


def _reports(reps) -> list:
    return [r.to_dict() for r in reps]


def build_calls(ops: list, verify_tol: float) -> list:
    """(function, args, kwargs, to_json) for each operation.

    Functions are looked up at call-build time, so a traced pass built after
    Tracer.install() goes through the wrappers.
    """
    from zetakit import specfun, verifier
    from zetakit.catalog import CatalogKey

    table = {
        "cl2": (specfun.clausen_cl2, _eval),
        "zeta": (specfun.riemann_zeta, _eval),
        "zeta_minus_one": (specfun.zeta_minus_one, _eval),
        "hurwitz": (specfun.hurwitz_zeta, _eval),
        "beta": (specfun.dirichlet_beta, _eval),
        "polygamma": (specfun.polygamma, _eval),
        "euler_gamma": (specfun.euler_gamma, _eval),
        "catalan": (specfun.catalan, _eval),
        "integral": (verifier.verify_integral_identity, _report),
        "cross_check": (verifier.cross_check_clausen, _report),
    }
    calls = []
    for op in ops:
        kind = op[0]
        if kind == "verify":
            _, ident, param, printed = op
            calls.append((verifier.verify, (CatalogKey(ident, param), verify_tol),
                          {"include_printed": printed}, _reports))
        else:
            fn, conv = table[kind]
            calls.append((fn, tuple(op[1:]), {}, conv))
    return calls


def run_pass(calls: list, latencies: list) -> tuple[list, float]:
    """Run every call once; return the outputs and the raw pass seconds.

    Appends each call's latency to `latencies` in reference seconds.  The
    calibration loop runs between chunks of at least CHUNK_S of work, and
    each chunk is scaled by the calibration samples around it.
    """
    cal = Calibrator()
    outs, chunks, pending = [], [], []
    pending_s = 0.0
    cal.sample()
    start = perf_counter()
    for fn, args, kwargs, _conv in calls:
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        outs.append(out)
        pending.append(dt)
        pending_s += dt
        if pending_s >= CHUNK_S:
            chunks.append((start, perf_counter(), pending))
            cal.sample(pending_s)
            pending, pending_s = [], 0.0
            start = perf_counter()
    if pending:
        chunks.append((start, perf_counter(), pending))
        cal.sample(pending_s)
    raw_s = 0.0
    for t0, t1, durations in chunks:
        k = cal.scale(t0, t1)
        latencies.extend(d * k for d in durations)
        raw_s += sum(durations)
    return outs, raw_s


def to_json(calls: list, outs: list) -> list:
    return [conv(o) for (_f, _a, _k, conv), o in zip(calls, outs)]


def warm_up(ops: list) -> None:
    """Fill lazy tables before timing: every cheap operation once, and the
    exact closed forms behind every verify key."""
    from zetakit import catalog
    from zetakit.catalog import CatalogKey

    cheap = [op for op in ops if op[0] not in ("cross_check", "verify")]
    run_pass(build_calls(cheap, 0.0), [])
    for op in ops:
        if op[0] == "verify":
            key = CatalogKey(op[1], op[2])
            catalog.closed_form(key)
            if op[3] and catalog.get(op[1]).status == "corrected":
                catalog.printed_closed_form(key)


def run_job(job: dict) -> dict:
    import zetakit  # noqa: F401  (set-up is measured separately by run.py)

    ops = job["ops"]
    warm_up(ops)
    calls = build_calls(ops, job["verify_tol"])
    latencies: list[float] = []
    pass_s: list[float] = []
    raw_pass_s: list[float] = []
    first = None
    identical = True
    start = perf_counter()
    while True:
        gc.collect()
        n = len(latencies)
        outs, raw = run_pass(calls, latencies)
        pass_s.append(sum(latencies[n:]))
        raw_pass_s.append(raw)
        outs = to_json(calls, outs)
        if first is None:
            first = outs
        elif outs != first:
            identical = False
        if perf_counter() - start >= job["seconds"] and len(latencies) >= job["min_ops"]:
            break
    result = {"outputs": first, "latencies_s": latencies, "pass_s": pass_s,
              "raw_pass_s": raw_pass_s, "passes_identical": identical}
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            traced: list[float] = []
            gc.collect()
            outs, raw = run_pass(build_calls(ops, job["verify_tol"]), traced)
        finally:
            tracer.uninstall()
        result["traced_pass_s"] = sum(traced)
        result["traced_scale"] = sum(traced) / raw
        result["traced_identical"] = to_json(calls, outs) == first
        result["aggregates"] = tracer.agg
        tracer.write(job["trace_out"], {"workload": job["workload"]})
    return result


def run_cli_traced(trace_path: str, argv: list[str]) -> int:
    from zetakit import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"aggregates": tracer.agg, "spans": tracer.span_dicts(5000),
                   "dropped": tracer.dropped + max(0, len(tracer.spans) - 5000)}, fh)
    return code


def main(argv: list[str]) -> int:
    if argv[1] == "cli":
        return run_cli_traced(argv[2], argv[4:])
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
