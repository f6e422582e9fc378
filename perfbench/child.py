"""Processes the benchmark starts; each prints one JSON document on stdout.

    child.py setup WORKLOAD SEED SMOKE           time to arspec imported + inputs made
    child.py phase WORKLOAD SEED LIMIT TRACED SMOKE
                                                 one measured phase; LIMIT is
                                                 "<x>s" (seconds) or "<n>r" (rounds)
    child.py scan-round SEED ROUND TRACED SMOKE  one scan round in a fresh interpreter
    child.py verb ARGS...                        `arspec ARGS` under the tracer

Every process started here is waited for before the parent goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import subprocess
import sys
import time

import calibration
import workloads as W
from workloads import ROOT, SRC


def import_arspec():
    """Import arspec from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    import arspec

    if not str(arspec.__file__).startswith(str(SRC)):
        raise SystemExit("arspec imported from %s, not from %s" % (arspec.__file__, SRC))
    return arspec


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random("%d:%d" % (seed, index))


def _peak_kb() -> int:
    # the measuring process plus its largest child, at the end of measurement
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def execute(ops, tracer=None, op_layer="bench"):
    """Time each op's call into arspec; return (records, kept outputs).

    The calibration task is timed before the first op and after each one,
    outside the ops' timing; an op's ``cal`` is the mean of the two beside it.
    """
    records, kept = [], []
    before = calibration.task_seconds()
    for op in ops:
        span = tracer.open(op.kind, op_layer) if tracer else None
        error = out = None
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - start
        if span:
            tracer.close(span)
            if isinstance(out, dict) and "spans" in out:
                tracer.adopt(out.pop("spans"), out.pop("counts"), span[0])
        records.append({"kind": op.kind, "s": seconds, "roots": op.roots,
                        "graphs": op.graphs, "n": op.n, "error": error})
        after = calibration.task_seconds()
        records[-1]["cal"] = (before + after) / 2
        before = after
        kept.append(None if error else op.keep(out))
    return records, kept


def check(ops, records, kept) -> None:
    for op, rec, out in zip(ops, records, kept):
        if rec["error"] is None:
            try:
                rec["error"] = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                rec["error"] = "check raised %s: %s" % (type(exc).__name__, exc)


def _make_round(workload, rng, seen, smoke, traced):
    if workload == "cli":
        return W.cli_round(rng, traced)
    return W.IN_PROCESS_ROUNDS[workload](rng, seen, smoke)


def cmd_setup(workload: str, seed: int, smoke: bool) -> dict:
    import_arspec()
    rng = round_rng(seed, 0)
    if workload == "scan":
        W.scan_pairs(rng, smoke)
    else:
        _make_round(workload, rng, set(), smoke, False)
    return {"ready_ns": time.clock_gettime_ns(time.CLOCK_MONOTONIC)}


def cmd_phase(workload: str, seed: int, limit: str, traced: bool, smoke: bool) -> dict:
    """Run whole rounds until the limit; checks run after the measurement."""
    import_arspec()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        if workload in W.IN_PROCESS_ROUNDS:
            tracer.install()
    seconds = float(limit[:-1]) if limit.endswith("s") else None
    rounds = int(limit[:-1]) if limit.endswith("r") else None
    seen: set = set()
    done, pending = [], []
    start = time.perf_counter()
    index = 0
    while True:
        rng = round_rng(seed, index)
        if workload == "scan":
            records = _scan_round_child(seed, index, traced, smoke, tracer)
        else:
            ops = _make_round(workload, rng, seen, smoke, traced)
            records, kept = execute(ops, tracer, "cli" if workload == "cli" else "bench")
            pending.append((ops, records, kept))
        done.append(records)
        index += 1
        elapsed = time.perf_counter() - start
        if (rounds is not None and index >= rounds) or (seconds is not None and elapsed >= seconds):
            break
    result = {"rounds": done, "peak_kb": _peak_kb()}
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["kernel"] = kernel_probe(seed)
    for ops, records, kept in pending:
        check(ops, records, kept)
    return result


def _scan_round_child(seed, index, traced, smoke, tracer) -> list[dict]:
    cmd = [sys.executable, str(W.BENCH_DIR / "child.py"), "scan-round",
           str(seed), str(index), str(int(traced)), str(int(smoke))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit("scan round failed:\n" + proc.stderr[-2000:])
    doc = json.loads(proc.stdout)
    if tracer:
        tracer.adopt(doc["spans"], doc["counts"], None)
    return doc["records"]


def cmd_scan_round(seed: int, index: int, traced: bool, smoke: bool) -> dict:
    import_arspec()
    ops = W.scan_ops(W.scan_pairs(round_rng(seed, index), smoke))
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records, kept = execute(ops, tracer)
    result = {"records": records}
    if tracer:
        tracer.uninstall()
        result.update(spans=tracer.spans, counts=dict(tracer.counts))
    check(ops, records, kept)
    cross = W.scan_cross_check(ops, kept)
    if cross:
        for rec in records:
            if rec["kind"] == "scan_parallel" and rec["error"] is None:
                rec["error"] = cross
    return result


def cmd_verb(argv: list[str]) -> dict:
    import_arspec()
    from arspec import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    span = tracer.open("cli.main", "cli")
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    tracer.close(span)
    tracer.uninstall()
    return {"rc": rc, "out": buf.getvalue(), "spans": tracer.spans,
            "counts": dict(tracer.counts)}


KERNEL_POINTS = 2000
KERNEL_BIG_K_POINTS = 200


def kernel_probe(seed: int) -> dict:
    """ns per residual evaluation (sine ratio plus branch) on a seeded grid."""
    import math
    import statistics

    from arspec import solver

    rng = random.Random("kernel:%d" % seed)

    def grid(points, lo, hi):
        return [(rng.uniform(0.01, math.pi - 0.01), W._log_int(rng, lo, hi))
                for _ in range(points)]

    def probe(points):
        laps = []
        for _ in range(5):
            start = time.perf_counter()
            for theta, k in points:
                solver.sine_ratio_even(theta, k) - solver.branch_positive(theta)
                solver.sine_ratio_odd(theta, k) - solver.odd_ratio_positive(theta)
            laps.append(time.perf_counter() - start)
        return 1e9 * statistics.median(laps) / (2 * len(points))

    return {"small_k": probe(grid(KERNEL_POINTS, 2, 1e6)),
            "big_k": probe(grid(KERNEL_BIG_K_POINTS, 1.0e6 + 1, 8e6))}


def main(argv: list[str]) -> dict:
    cmd, args = argv[0], argv[1:]
    if cmd == "setup":
        return cmd_setup(args[0], int(args[1]), args[2] == "1")
    if cmd == "phase":
        return cmd_phase(args[0], int(args[1]), args[2], args[3] == "1", args[4] == "1")
    if cmd == "scan-round":
        return cmd_scan_round(int(args[0]), int(args[1]), args[2] == "1", args[3] == "1")
    if cmd == "verb":
        return cmd_verb(args)
    raise SystemExit("unknown child command %r" % cmd)


if __name__ == "__main__":
    json.dump(main(sys.argv[1:]), sys.stdout)
