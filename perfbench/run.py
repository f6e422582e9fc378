"""Benchmark for arspec: one command, three workloads, one result line.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; arspec is imported from ``src/`` there
and nowhere else.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
prefixed ``#``, stamp the environment and give detail.  The full record
(environment, metrics, every operation, and the spans of a traced run) goes
to ``.perfbench_out/`` in the checkout.

``--trace 0`` measures whole rounds of the workload for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of rounds
twice with the same seed, first untraced, then with every public arspec
function wrapped at its import sites, and reports the per-layer metrics;
the fixed round count is what makes the exact counts repeat.  The traced
run of every workload also measures the cli layer: one round of fresh
``python -m arspec`` processes covering all six verbs, untraced and then
traced, besides bare interpreter starts and ``import arspec``.  Each phase
runs in a fresh interpreter.  ``--smoke`` shrinks every input so that a run
takes seconds; the benchmark's own tests use it.

End-to-end metrics (every workload reports all of them).  Each round does
the same mix of work; each metric but the first and the last is worked out
per round and reported as the median over the run's rounds.  Every
operation time is scaled by the calibration task timed before and after it
(see calibration.py), so that it reads as seconds at one reference speed;
the unscaled values are in the ``# detail`` line and the saved record.
setup_s is not scaled.

    setup_s       interpreter start to arspec imported and the first round's
                  inputs made, median of several fresh processes
    wall_s        time of one round: the summed latency of its operations
    op_p50_ms     median latency of the operations in a round
    op_p90_ms     90th percentile of the same
    roots_per_s   eigenvalues computed per second of the operations that
                  compute them
    graphs_per_s  graphs whose whole spectrum an operation computes, per
                  second of those operations
    peak_rss_mb   peak resident memory of the measuring process plus its
                  largest child, at the end of the measurement

A failed operation (a check that fails, or an exception) is counted in
``failed``; ``failed / attempted`` is the failure fraction.  It is not a
metric because it is zero when the program is right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibration import REFERENCE_S
from workloads import BENCH_DIR, ROOT, SRC, verb_env

OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("spectrum", "oracle", "scan")
VERBS = ("spectrum", "table1", "verify", "scan", "figure-data", "density")
TRACE_ROUNDS = {"spectrum": 2, "oracle": 2, "scan": 1}
SETUP_PROBES = 7
CLI_PROBES = 5

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("roots_per_s", "1/s"), ("graphs_per_s", "1/s"), ("peak_rss_mb", "MB"),
)

# A metric a workload does not exercise reads 0 (no calls, no time).
PER_LAYER = (
    ("solver.solve_s", "s"), ("solver.single_bracket_s", "s"),
    ("solver.fn_evals", "count"), ("solver.roots", "count"),
    ("solver.fn_evals_per_root", "evals/root"),
    ("solver.kernel_ns_per_eval", "ns"), ("solver.kernel_big_k_ns_per_eval", "ns"),
    ("solver.max_residual", "1"),
    ("oracle.jacobi_s", "s"), ("oracle.jacobi_calls", "count"),
    ("oracle.sweeps", "count"), ("oracle.sweeps_per_call", "sweeps/call"),
    ("oracle.jacobi_calls_small", "count"), ("oracle.jacobi_ms_per_call_small", "ms"),
    ("oracle.jacobi_calls_large", "count"), ("oracle.jacobi_ms_per_call_large", "ms"),
    ("oracle.quotient_s", "s"),
    ("threshold.self_s", "s"), ("threshold.scan_s", "s"), ("threshold.scan_wall_s", "s"),
    ("threshold.jacobi_share", "ratio"),
    ("threshold.spectrum_calls", "count"), ("threshold.spectrum_us_per_call", "us"),
    ("threshold.serial_scan_s", "s"), ("threshold.parallel_scan_s", "s"),
    ("threshold.parallel_speedup", "ratio"),
    ("graphs.adjacency_s", "s"), ("graphs.adjacency_calls", "count"),
    ("cli.self_s", "s"), ("cli.python_floor_ms", "ms"), ("cli.import_s", "s"),
    *(("cli.verb_ms." + verb, "ms") for verb in VERBS),
    ("trace.untraced_s", "s"), ("trace.traced_s", "s"), ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def child(args: list[str], timeout: float = 175) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("perfbench: %s failed with exit code %d" % (args[0], proc.returncode))
    return json.loads(proc.stdout)


def fresh_processes(cmd: list[str], times: int) -> list[tuple[float, str]]:
    """(wall seconds, stdout) of ``times`` fresh runs of cmd, one at a time."""
    runs = []
    for _ in range(times):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=verb_env(), capture_output=True, text=True,
                              check=True, timeout=60, cwd=ROOT)
        runs.append((time.perf_counter() - start, proc.stdout))
    return runs


def setup_seconds(workload: str, seed: int, smoke: bool) -> float:
    laps = []
    for _ in range(1 if smoke else SETUP_PROBES):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        ready = child(["setup", workload, str(seed), str(int(smoke))])["ready_ns"]
        laps.append((ready - start) / 1e9)
    return statistics.median(laps)


# ---------------------------------------------------------------------------
# environment stamp


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "loadavg": os.getloadavg(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
    }


# ---------------------------------------------------------------------------
# metrics


def scaled_s(rec: dict) -> float:
    """An operation's time at the reference speed (see calibration.py)."""
    return rec["s"] * REFERENCE_S / rec["cal"]


def end_to_end(rounds: list[list[dict]], scaled: bool, setup_s: float,
               peak_kb: int) -> dict:
    """The metrics, from op times scaled by the calibration if ``scaled``."""
    def times(rnd):
        return [scaled_s(rec) if scaled else rec["s"] for rec in rnd]

    def latency(rnd, decile):
        return 1e3 * statistics.quantiles(times(rnd), n=10, method="inclusive")[decile - 1]

    def rate(rnd, unit):
        work = [(t, rec[unit]) for t, rec in zip(times(rnd), rnd) if rec[unit]]
        seconds = sum(t for t, _ in work)
        return sum(units for _, units in work) / seconds if seconds > 0 else 0.0

    def median(per_round):
        return statistics.median(list(per_round))

    return {
        "setup_s": setup_s,
        "wall_s": median(sum(times(rnd)) for rnd in rounds),
        "op_p50_ms": median(latency(rnd, 5) for rnd in rounds),
        "op_p90_ms": median(latency(rnd, 9) for rnd in rounds),
        "roots_per_s": median(rate(rnd, "roots") for rnd in rounds),
        "graphs_per_s": median(rate(rnd, "graphs") for rnd in rounds),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(untraced: dict, traced: dict, cli_plain: dict, cli_traced: dict) -> dict:
    from tracer import layer_metrics

    metrics = layer_metrics(traced["spans"], traced["counts"])
    metrics["solver.kernel_ns_per_eval"] = traced["kernel"]["small_k"]
    metrics["solver.kernel_big_k_ns_per_eval"] = traced["kernel"]["big_k"]
    metrics["cli.self_s"] = layer_metrics(cli_traced["spans"], cli_traced["counts"])["cli.self_s"]

    verb_runs = [rec for rnd in cli_plain["rounds"] for rec in rnd]
    for verb in VERBS:
        laps = [rec["s"] for rec in verb_runs if rec["kind"] == verb]
        metrics["cli.verb_ms." + verb] = 1e3 * statistics.median(laps)

    plain = [rec for rnd in untraced["rounds"] for rec in rnd]

    # serial against two-worker time at the largest order scanned both ways
    orders = [rec["n"] for rec in plain if rec["kind"] == "scan_parallel"]
    serial = [rec["s"] for rec in plain if rec["kind"] == "scan" and orders
              and rec["n"] == max(orders)]
    parallel = [rec["s"] for rec in plain if rec["kind"] == "scan_parallel"
                and rec["n"] == max(orders)]
    metrics["threshold.serial_scan_s"] = statistics.median(serial) if serial else 0.0
    metrics["threshold.parallel_scan_s"] = statistics.median(parallel) if parallel else 0.0
    metrics["threshold.parallel_speedup"] = (
        metrics["threshold.serial_scan_s"] / metrics["threshold.parallel_scan_s"]
        if parallel else 0.0)

    floor = fresh_processes([sys.executable, "-c", "pass"], CLI_PROBES)
    metrics["cli.python_floor_ms"] = 1e3 * statistics.median(s for s, _ in floor)
    snippet = "import time; t = time.perf_counter(); import arspec; print(time.perf_counter() - t)"
    imports = fresh_processes([sys.executable, "-c", snippet], CLI_PROBES)
    metrics["cli.import_s"] = statistics.median(float(out) for _, out in imports)

    # scaled, because the two phases may run at different host speeds
    untraced_s = sum(scaled_s(rec) for rec in plain)
    traced_s = sum(scaled_s(rec) for rnd in traced["rounds"] for rec in rnd)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "arspec" / "__init__.py").is_file():
        print("perfbench: no arspec sources under %s" % SRC, file=sys.stderr)
        return 2

    env = environment(args)
    print("# env " + json.dumps(env), flush=True)
    flags = [args.workload, str(args.seed)]
    smoke = str(int(args.smoke))
    if args.trace:
        rounds = "%dr" % (1 if args.smoke else TRACE_ROUNDS[args.workload])
        untraced = child(["phase", *flags, rounds, "0", smoke])
        traced = child(["phase", *flags, rounds, "1", smoke])
        cli = ["phase", "cli", str(args.seed), "1r"]
        cli_plain = child([*cli, "0", smoke])
        cli_traced = child([*cli, "1", smoke])
        phases = [untraced, traced, cli_plain, cli_traced]
        metrics = per_layer(untraced, traced, cli_plain, cli_traced)
        names = PER_LAYER
    else:
        setup_s = setup_seconds(args.workload, args.seed, args.smoke)
        measured = child(["phase", *flags, "%gs" % args.seconds, "0", smoke])
        phases = [measured]
        rounds, peak_kb = measured["rounds"], measured["peak_kb"]
        metrics = end_to_end(rounds, True, setup_s, peak_kb)
        unscaled = end_to_end(rounds, False, setup_s, peak_kb)
        names = END_TO_END

    records = [rec for phase in phases for rnd in phase["rounds"] for rec in rnd]
    failures = [rec for rec in records if rec["error"]]
    for rec in failures[:10]:
        print("perfbench: %s failed: %s" % (rec["kind"], rec["error"]), file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    detail = {"rounds": [len(phase["rounds"]) for phase in phases],
              "ops": len(records),
              "failed_kinds": sorted({rec["kind"] for rec in failures})}
    if not args.trace:
        detail["unscaled"] = unscaled
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps({"env": env, "result": result, "detail": detail,
                               "phases": phases}))
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
