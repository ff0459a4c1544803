"""zetakit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 10 --trace 0

Run from the root of a zetakit checkout; zetakit is imported from ./src.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it also
makes one traced pass and prints the per-layer metrics instead.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads
from calibrate import Calibrator, pin_to_one_cpu
from spans import layer_metrics, merge

MIN_OPS = 90  # latency samples per run: at least 40 for a tail percentile, and 5 cli-cold passes
PER_OP_MIN = 40  # operations per pass from which each operation's median over passes is one sample
SETUP_RUNS = 15  # fresh-interpreter imports per run; setup_s is their median
IMPORTTIME_RUNS = 5
TAIL_PERCENTILES = (75.0, 90.0, 99.0, 99.9, 99.99)
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CLI_LIMIT_S = 60.0

HERE = os.path.dirname(os.path.abspath(__file__))


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float  # raw, spawn to reap
    rss_kib: int  # the child's own peak resident set
    stdout: str
    stderr: str
    start: float  # perf_counter at spawn and at reap, to match calibration samples
    end: float


class Run:
    """Paths, environment and child processes of one benchmark run."""

    def __init__(self, root: str, tag: str) -> None:
        self.root = root
        self.out = os.path.join(root, ".perfbench")
        os.makedirs(self.out, exist_ok=True)
        self.tag = tag
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.started = time.perf_counter()
        self.cal = Calibrator()
        self._temps: list[str] = []

    def path(self, name: str, temp: bool = True) -> str:
        p = os.path.join(self.out, f"{self.tag}-{name}")
        if temp:
            self._temps.append(p)
        return p

    def child(self, argv: list[str], limit: float) -> Child:
        """Run one child to its end, with a calibration on either side.

        Output goes to files, and the child is reaped with wait4 so its own
        peak RSS is known.  A child still running after `limit` s is killed.
        """
        out_path, err_path = self.path("stdout"), self.path("stderr")
        self.cal.sample()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    cwd=self.root, env=self.env)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.cal.sample(t1 - t0)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Child(proc.returncode, t1 - t0, usage.ru_maxrss, stdout, stderr, t0, t1)

    def scale(self, c: Child) -> float:
        """Raw to reference seconds for the time `c` ran; call once the
        calibration samples after it exist."""
        return self.cal.scale(c.start, c.end)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def cleanup(self) -> None:
        for p in set(self._temps):
            if os.path.exists(p):
                os.remove(p)


# --- set-up and import breakdown ----------------------------------------------------

_IMPORT_TIMER = "import time; t = time.perf_counter(); import zetakit; print(time.perf_counter() - t)"


def measure_setup(run: Run) -> tuple[float, float]:
    """Median time for a fresh interpreter to `import zetakit`, in reference
    and in raw seconds.

    One untimed import first writes the bytecode caches, as any user's first
    run does."""
    children = []
    for i in range(SETUP_RUNS + 1):
        c = run.child([sys.executable, "-c", _IMPORT_TIMER], CLI_LIMIT_S)
        if c.code != 0:
            raise RuntimeError(f"import zetakit failed: {c.stderr.strip()}")
        if i:
            children.append(c)
    raw = [float(c.stdout) for c in children]
    return (statistics.median(r * run.scale(c) for r, c in zip(raw, children)),
            statistics.median(raw))


def import_breakdown(run: Run) -> dict[str, float]:
    """cli.import_* from `python -X importtime`, medians over IMPORTTIME_RUNS."""
    rows: dict[str, list[float]] = {"cli.import_zetakit_s": [], "cli.import_numpy_s": [],
                                    "cli.import_catalog_self_s": []}
    children = [run.child([sys.executable, "-X", "importtime", "-c", "import zetakit"], CLI_LIMIT_S)
                for _ in range(IMPORTTIME_RUNS)]
    for c in children:
        k = run.scale(c)
        seen = {"zetakit": 0.0, "numpy": 0.0, "zetakit.catalog": 0.0}
        catalog_self = 0.0
        for line in c.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = int(parts[0]), int(parts[1])
            except ValueError:  # the header line
                continue
            name = parts[2].strip()
            if name in seen:
                seen[name] = cum_us / 1e6 * k
            if name == "zetakit.catalog":
                catalog_self = self_us / 1e6 * k
        rows["cli.import_zetakit_s"].append(seen["zetakit"])
        rows["cli.import_numpy_s"].append(seen["numpy"])
        rows["cli.import_catalog_self_s"].append(catalog_self)
    return {k: statistics.median(v) for k, v in rows.items()}


# --- latency summaries ------------------------------------------------------------


def latency_samples(latencies: list[float], passes: int) -> tuple[list[float], float]:
    """The samples op_p50_ms and op_tail_ms are taken over, and the tail
    percentile: the highest of TAIL_PERCENTILES with at least ten samples
    beyond it.

    With at least PER_OP_MIN operations in a pass, each operation gives one
    sample, its median over the run's passes.  A call that the host slowed
    in one pass then stays out of the tail, which is left to the costliest
    operations.  With fewer, every call is a sample, and the percentile is
    fixed from the fewest whole passes that reach MIN_OPS.  Either way the
    percentile stays the same however many passes a run fits in.
    """
    k = len(latencies) // passes
    if k >= PER_OP_MIN:
        samples = [statistics.median(latencies[i::k]) for i in range(k)]
        n = k
    else:
        samples = latencies
        n = k * -(-MIN_OPS // k)
    return samples, max(p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


# --- workloads ----------------------------------------------------------------------


def run_warm(run: Run, workload: str, ops: list, seconds: float, trace: bool) -> dict:
    """Run the operations in one warm worker process and return its result."""
    job = {"workload": workload, "ops": ops, "seconds": seconds, "min_ops": MIN_OPS,
           "trace": trace, "verify_tol": workloads.VERIFY_TOL,
           "trace_out": run.path("trace.jsonl", temp=False)}
    job_path, result_path = run.path("job.json"), run.path("result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    c = run.child([sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
                  run.remaining())
    if c.code != 0:
        raise RuntimeError(f"worker exited {c.code}: {c.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["peak_rss_kib"] = c.rss_kib
    return result


def run_cli(run: Run, commands: list[list[str]], seconds: float, trace: bool) -> dict:
    """Each command in a fresh `python -m zetakit.cli` process, whole passes
    until `seconds` have passed and MIN_OPS commands ran."""
    passes: list[list[Child]] = []
    start = time.perf_counter()
    while True:
        passes.append([run.child([sys.executable, "-m", "zetakit.cli", *argv], CLI_LIMIT_S)
                       for argv in commands])
        if time.perf_counter() - start >= seconds and len(passes) * len(commands) >= MIN_OPS:
            break
    ref = [[c.wall_s * run.scale(c) for c in done] for done in passes]
    result = {
        "latencies_s": [x for row in ref for x in row],
        "pass_s": [sum(row) for row in ref],
        "raw_pass_s": [sum(c.wall_s for c in done) for done in passes],
        "outputs": [[(c.code, c.stdout) for c in done] for done in passes],
        "peak_rss_kib": max(c.rss_kib for done in passes for c in done),
    }
    if trace:
        traced, aggs, spans = [], [], []
        for argv in commands:
            trace_path = run.path("cli-trace.json")
            traced.append(run.child([sys.executable, os.path.join(HERE, "worker.py"), "cli",
                                     trace_path, "--", *argv], CLI_LIMIT_S))
            with open(trace_path, encoding="utf-8") as fh:
                data = json.load(fh)
            aggs.append(data["aggregates"])
            spans.append({"argv": argv, "spans": data["spans"], "dropped": data["dropped"]})
        result["traced_pass_s"] = sum(c.wall_s * run.scale(c) for c in traced)
        result["traced_scale"] = result["traced_pass_s"] / sum(c.wall_s for c in traced)
        result["traced_outputs"] = [(c.code, c.stdout) for c in traced]
        result["aggregates"] = merge(aggs)
        with open(run.path("trace.jsonl", temp=False), "w", encoding="utf-8") as fh:
            for entry in spans:
                fh.write(json.dumps(entry) + "\n")
    return result


def check_warm(ops: list, faults: list, result: dict) -> tuple[list[str], int, dict[str, int]]:
    """Problems found, operations that failed their check (per pass), and
    how many of them each known fault accounts for."""
    import checks

    problems, failed, seen = [], 0, {}
    if not result["passes_identical"]:
        problems.append("outputs differ between passes")
    if result.get("traced_identical") is False:
        problems.append("traced outputs differ from untraced ones")
    for op, fault, out in zip(ops, faults, result["outputs"]):
        why = checks.check_op(op, out)
        if why is None:
            continue
        failed += 1
        if fault is None:
            problems.append(why)
        else:
            seen[fault] = seen.get(fault, 0) + 1
    return problems, failed, seen


def check_cli(commands: list, result: dict) -> tuple[list[str], int]:
    import checks

    problems, failed = [], 0
    passes = result["outputs"] + ([result["traced_outputs"]] if "traced_outputs" in result else [])
    for i, done in enumerate(passes):
        for argv, (code, out) in zip(commands, done):
            why = checks.cli_ok(argv, code, out)
            if why:
                problems.append(why)
                if i < len(result["outputs"]):
                    failed += 1
    return problems, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zetakit", "__init__.py")):
        print("perfbench: no src/zetakit here; run from the root of a zetakit checkout",
              file=sys.stderr)
        return 2
    try:
        import mpmath  # noqa: F401
    except ImportError:
        print("perfbench: the output checks need mpmath", file=sys.stderr)
        return 2

    run = Run(root, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        return _run(run, args)
    finally:
        run.cleanup()


def _run(run: Run, args: argparse.Namespace) -> int:
    pin_to_one_cpu()
    trace = bool(args.trace)
    setup_s, raw_setup_s = measure_setup(run)
    if args.workload == "cli-cold":
        commands = workloads.cli_cold_commands(args.seed)
        result = run_cli(run, commands, args.seconds, trace)
        problems, failed = check_cli(commands, result)
        attempted = len(result["latencies_s"])
        faults_seen: dict[str, int] = {}
    else:
        if args.workload == "verify-deep":
            ops = workloads.verify_deep_ops(args.seed)
            faults = [None] * len(ops)
        else:
            ops, faults = workloads.specfun_mix_ops(args.seed)
        result = run_warm(run, args.workload, ops, args.seconds, trace)
        problems, failed_ops, faults_seen = check_warm(ops, faults, result)
        passes = len(result["pass_s"])
        attempted = len(ops) * passes
        failed = failed_ops * passes

    samples, pct = latency_samples(result["latencies_s"], len(result["pass_s"]))
    latencies_ms = [x * 1e3 for x in samples]
    wall_s = statistics.median(result["pass_s"])
    tail_ms = percentile(latencies_ms, pct)
    kind = ("operation medians over passes" if len(samples) < len(result["latencies_s"])
            else "calls")
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} imports; raw {raw_setup_s:.4g} s",
        "wall_s": f"median over passes; raw {statistics.median(result['raw_pass_s']):.4g} s",
        "op_p50_ms": f"{len(latencies_ms)} {kind}",
        "op_tail_ms": f"p{pct:g} of {len(latencies_ms)} {kind}",
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {len(result['pass_s'])}"
          f"  operations {attempted}  failed {failed}  (times in reference seconds)")
    e2e_units = metric_units("end_to_end")
    for name, value in e2e.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<14} {value:.6g} {e2e_units[name]}{note}")
    for fault, count in sorted(faults_seen.items()):
        print(f"  known fault {fault}: {count} operation(s) per pass break their bound")
    for why in problems[:20]:
        print(f"  CHECK FAILED: {why}", file=sys.stderr)

    if trace:
        units = metric_units("per_layer")
        metrics = {k: v * result["traced_scale"] if units[k] == "s" else v
                   for k, v in layer_metrics(result["aggregates"]).items()}
        metrics.update(import_breakdown(run))
        metrics["trace.overhead_s"] = result["traced_pass_s"] - wall_s
        for name, value in metrics.items():
            print(f"  {name:<38} {value:.6g} {units[name]}")
    else:
        metrics, units = e2e, e2e_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
