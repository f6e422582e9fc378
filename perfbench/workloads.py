"""The workloads: seeded inputs, the timed calls into arspec, and checks.

Every workload is a closed loop from one process: an operation starts only
after the previous one has finished.  A run repeats whole rounds.  Each round
draws fresh inputs from a generator seeded by (seed, round), with a fixed mix
of operation kinds whose sizes sit in narrow windows or add up to a fixed
total, so that every round does about the same work and the medians and
percentiles of a run do not depend on which sizes the seed drew.

``Op.run`` is the timed part and calls arspec only through module
attributes (``solver.solve_spectrum``), so the traced run sees every call.
``Op.keep`` turns the result into what the check needs, outside the timing,
and ``Op.check`` runs after the whole measurement, so reference computations
neither interleave with nor add memory to the measured operations.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as R

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    keep: Callable[[object], object] = lambda out: out
    roots: int = 0  # eigenvalues the operation computes
    graphs: int = 0  # graphs whose complete spectrum it computes
    n: int = 0  # scan order, for matching serial and parallel reports


def _log_int(rng, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _fresh(seen: set, tag: str, draw: Callable[[], object]):
    """A draw none of whose values came up before in this process, so no
    in-process cache can serve it."""
    for _ in range(1000):
        value = draw()
        keys = {(tag, v) for v in (value if isinstance(value, tuple) else (value,))}
        if not keys & seen:
            seen |= keys
            return value
    raise RuntimeError("input space for %s exhausted" % tag)


# ---------------------------------------------------------------------------
# spectrum: solver only


# Orders of the four solves in a round: one log-uniform draw in each of the
# first three bins, and the fourth making up ROUND_ORDERS, so that every round
# solves the same number of roots and round times compare across seeds.
# Orders are even: solve_spectrum's largest eigenvalue at odd orders from
# about 800 on misses numpy's eigvalsh by more than 1e-8 (1.6e-7 at n = 1501),
# a known defect of the solver that would fail every round.  Odd orders are
# solved, and checked, in the oracle workload (n = 28 to 122).
SOLVE_BINS = (1000, 1800, 3240, 5832)
ROUND_ORDERS = 20000  # the fourth order falls in (8168, 13000]
SMOKE_SOLVE_BINS = (40, 80, 160, 320)
SMOKE_ROUND_ORDERS = 900
# Half-orders on the exact-Fraction reduction path: k - 1 > 10**6 as well, so
# that every sine multiplier of both ratios takes that path.
# last_bracket_ratio is not called at these k: it raises BracketRootError
# ("left anchor stayed negative") for about 7% of them, a known defect.
BIG_K = (1_000_002, 8_000_000)
BIG_K_ANGLES = 12  # angles per big_k operation
INNERMOST_K = (2, 50_000)
# Per round: 8 table rows, then witnesses, innermost pairs and big-k ratios.
# The counts put the latency median inside the witnesses' cluster and the
# 90th percentile inside the big-k cluster, away from the cluster edges.
SINGLES = (40, 6, 6)
SMOKE_SINGLES = (4, 2, 2)


def _even(n: int) -> int:
    return n - n % 2


def spectrum_round(rng, seen: set, smoke: bool) -> list[Op]:
    from arspec import solver

    bins = SMOKE_SOLVE_BINS if smoke else SOLVE_BINS
    total = SMOKE_ROUND_ORDERS if smoke else ROUND_ORDERS
    witnesses, innermost, big_k = SMOKE_SINGLES if smoke else SINGLES
    def draw_orders():
        orders = [_even(_log_int(rng, lo, hi)) for lo, hi in zip(bins, bins[1:])]
        return (*orders, total - sum(orders))

    orders = _fresh(seen, "solve", draw_orders)
    ops = []
    for n in orders:
        ops.append(Op(
            "solve", lambda n=n: solver.solve_spectrum(n),
            keep=lambda spec: np.array(spec.eigenvalues()),
            check=lambda eigs, n=n: R.antiregular_check(eigs, n),
            roots=n - 1, graphs=1))
    for n in R.TABLE1:
        ops.append(Op(
            "table1", lambda n=n: solver.last_bracket_ratio(n // 2),
            check=lambda r, n=n: None if abs(r - R.TABLE1[n]) <= R.TABLE1_TOL
            else "n=%d ratio %r, table %r" % (n, r, R.TABLE1[n]),
            roots=1))
    for _ in range(big_k):
        k = _fresh(seen, "big_k", lambda: _log_int(rng, *BIG_K))
        thetas = [rng.uniform(0.01, math.pi - 0.01) for _ in range(BIG_K_ANGLES)]
        ops.append(Op(
            "big_k", lambda k=k, ts=thetas: [
                (solver.sine_ratio_even(t, k), solver.sine_ratio_odd(t, k)) for t in ts],
            check=lambda out, k=k, ts=thetas: R.sine_ratio_mismatch(out, k, ts)))
    for _ in range(witnesses):
        y = _fresh(seen, "witness", lambda: rng.uniform(0.25, 6.0)
                   if rng.random() < 0.5 else -rng.uniform(1.25, 7.0))
        eps = math.exp(rng.uniform(math.log(1e-3), math.log(1e-2)))
        parity = rng.choice(("any", "even", "odd"))
        ops.append(Op(
            "witness", lambda y=y, e=eps, p=parity: solver.closure_witness(y, e, p),
            check=lambda out, y=y, e=eps: _witness_mismatch(out, y, e), roots=1))
    for _ in range(innermost):
        k = _fresh(seen, "innermost", lambda: _log_int(rng, *INNERMOST_K))
        ops.append(Op(
            "innermost", lambda k=k: solver.innermost_eigenvalues(k),
            check=lambda pair, k=k: R.eigenvalue_mismatch(pair[0], 2 * k, bracket=1)
            or R.eigenvalue_mismatch(pair[1], 2 * k, bracket=1),
            roots=2))
    rng.shuffle(ops)
    return ops


def _witness_mismatch(out, y: float, eps: float) -> str | None:
    n, mu = out
    if not abs(mu - y) < eps:
        return "witness %r misses %r by %.3e >= %.1e" % (mu, y, abs(mu - y), eps)
    return R.eigenvalue_mismatch(mu, n)


# ---------------------------------------------------------------------------
# oracle: dense Jacobi on matrices of order 28 to 122


# One round, by cost cluster.  Laplacian and full-route orders are fixed and
# their creation sequences seeded, cross-check orders sit in narrow seeded
# windows and quotient sizes are fixed by the run count, so each cluster
# costs about the same in every round; the counts put the latency median
# inside the second cluster and the 90th percentile inside the fourth, away
# from cluster edges.
#   cheap quotients (3-6 runs)                               x8   ~ 5 ms
#   Laplacians n=30 and 32, quotients with 11-12 runs        x4   ~ 30 ms
#   cross-check n~30 and n~70, quotient 20 runs, full n=50   x4   0.05-0.35 s
#   full n=70 and n=75, cross-check n~95                     x3   ~ 0.6 s
#   cross-check n~120                                        x1   ~ 1 s
ORACLE_ROUND = (
    [("quotient", 0, runs) for runs in (3, 3, 4, 4, 5, 5, 6, 6)]
    + [("laplacian", 30, 0), ("laplacian", 32, 0), ("quotient", 0, 11), ("quotient", 0, 12)]
    + [("cross", 30, 0), ("cross", 70, 0), ("quotient", 0, 20), ("full", 50, 0)]
    + [("full", 70, 0), ("full", 75, 0), ("cross", 95, 0)]
    + [("cross", 120, 0)]
)
SMOKE_ORACLE_ROUND = [("quotient", 0, 3), ("laplacian", 8, 0), ("cross", 10, 0),
                      ("full", 12, 0), ("quotient", 0, 5)]
ORDER_JITTER = 2
QUOTIENT_ORDERS = (40, 121)


def _random_sequence(rng, n: int) -> list[int]:
    """A connected creation sequence with uniformly random middle bits."""
    return [0] + [rng.randint(0, 1) for _ in range(n - 2)] + [1]


def _sequence_with_runs(rng, n: int, runs: int) -> list[int]:
    """A connected creation sequence of n bits made of exactly ``runs``
    zero-runs, each followed by a one-run."""
    cuts = sorted(rng.sample(range(1, n), 2 * runs - 1))
    edges = [0, *cuts, n]
    bits = []
    for i in range(2 * runs):
        bits.extend([i % 2] * (edges[i + 1] - edges[i]))
    return bits


def oracle_round(rng, seen: set, smoke: bool) -> list[Op]:
    from arspec import graphs, oracle, solver, threshold

    def cross(n):
        eigs = solver.solve_spectrum(n).eigenvalues()
        a = graphs.antiregular_adjacency(n).astype(float)
        return eigs, oracle.jacobi_eigenvalues(a).eigenvalues

    def laplacian(bits):
        a = graphs.adjacency_from_sequence(bits)
        return oracle.jacobi_eigenvalues(graphs.laplacian(a).astype(float)).eigenvalues

    ops = []
    for kind, n, runs in SMOKE_ORACLE_ROUND if smoke else ORACLE_ROUND:
        if kind == "cross":
            n += rng.randint(-ORDER_JITTER, ORDER_JITTER)
            ops.append(Op("cross", lambda n=n: cross(n),
                          check=lambda out, n=n: _cross_mismatch(out, n),
                          roots=2 * n, graphs=1))
        elif kind == "laplacian":
            bits = _random_sequence(rng, n)
            ops.append(Op("laplacian", lambda b=bits: laplacian(b),
                          check=lambda eigs, b=bits: R.spectrum_mismatch(
                              eigs, R.laplacian_spectrum(b)),
                          roots=n, graphs=1))
        elif kind == "full":
            ops.append(_threshold_op(threshold, _random_sequence(rng, n), "full"))
        else:
            bits = _sequence_with_runs(rng, rng.randrange(*QUOTIENT_ORDERS), runs)
            ops.append(_threshold_op(threshold, bits, "quotient"))
    rng.shuffle(ops)
    return ops


def _threshold_op(threshold, bits, method: str) -> Op:
    return Op(
        "threshold_" + method,
        lambda: threshold.threshold_spectrum(bits, method=method),
        check=lambda eigs: R.spectrum_mismatch(eigs, R.dense_spectrum(bits)),
        roots=len(bits), graphs=1)


def _cross_mismatch(out, n: int) -> str | None:
    cheb, dense = out
    ref = R.dense_spectrum(R.antiregular_bits(n))
    reason = R.spectrum_mismatch(cheb, ref)
    if reason:
        return "solver: " + reason
    reason = R.spectrum_mismatch(dense, ref)
    return "jacobi: " + reason if reason else None


# ---------------------------------------------------------------------------
# scan: one fresh interpreter per round


# Ten scans per round, about 3 s with the interpreter start, so that a run
# holds enough rounds for per-round quartiles.  Order 11 and 12 scans (2.5 s
# and 5.5 s each) would leave two or three rounds in a run.
SCAN_ORDERS = range(2, 11)
SCAN_PARALLEL = ((9, 2),)
SMOKE_SCAN_ORDERS = range(2, 8)
SMOKE_SCAN_PARALLEL = ((6, 2),)


def scan_pairs(rng, smoke: bool) -> list[tuple[int, int]]:
    """(order, workers) pairs for one interpreter: every order serially, and
    one order again with two workers."""
    orders = SMOKE_SCAN_ORDERS if smoke else SCAN_ORDERS
    pairs = [(n, 1) for n in orders] + list(SMOKE_SCAN_PARALLEL if smoke else SCAN_PARALLEL)
    rng.shuffle(pairs)
    return pairs


class RepeatedKey(RuntimeError):
    """A scan key came up twice in one interpreter, where a cache could serve it."""


def scan_ops(pairs: list[tuple[int, int]]) -> list[Op]:
    from arspec import threshold

    seen = set()
    ops = []
    for n, workers in pairs:
        if (n, workers) in seen:
            raise RepeatedKey("(order %d, workers %d) repeats in one interpreter" % (n, workers))
        seen.add((n, workers))
        ops.append(Op(
            "scan" if workers == 1 else "scan_parallel",
            lambda n=n, w=workers: threshold.omega_scan(n, workers=w),
            keep=lambda report: json.loads(report.to_json()),
            check=lambda report, n=n: R.scan_mismatch(report, R.scan_reference(n)),
            roots=n << (n - 2), graphs=1 << (n - 2), n=n))
    return ops


def scan_cross_check(ops: list[Op], kept: list) -> str | None:
    """The report from two workers equals the serial report of that order."""
    serial = {op.n: out for op, out in zip(ops, kept) if op.kind == "scan"}
    for op, out in zip(ops, kept):
        if op.kind == "scan_parallel" and out is not None and out != serial.get(op.n):
            return "parallel report for n=%d differs from the serial one" % op.n
    return None


# ---------------------------------------------------------------------------
# cli: one fresh `python -m arspec` process per operation.  Not a workload of
# its own: process start on the tuning host drifted by up to 1.6x over tens
# of minutes, in a way the calibration task does not follow, so its
# end-to-end figures could not be made steady.  The traced run of every
# workload runs one round of it for the cli.* per-layer metrics.


def verb_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_round(rng, traced: bool) -> list[Op]:
    """All six verbs on small inputs in narrow seeded windows, so that each
    process does about the same work in every round."""
    k_fig = rng.randint(6, 8)
    argvs = [
        ["spectrum", "--n", str(rng.randint(240, 260))],
        ["spectrum", "--n", str(rng.randint(240, 260)), "--format", "csv"],
        ["spectrum", "--n", str(rng.randint(24, 28)), "--method", "both"],
        ["table1", "--format", "json"],
        ["verify", "--n-max", str(rng.randint(9, 10))],
        ["scan", "--n", "7"],
        ["scan", "--n", "8", "--workers", "2"],
        ["figure-data", "--which", "theta", "--points", str(rng.randint(90, 110))],
        ["figure-data", "--which", "even-curves", "--k", str(k_fig),
         "--points", str(rng.randint(90, 110))],
        ["figure-data", "--which", "odd-curves", "--k", str(k_fig),
         "--points", str(rng.randint(90, 110))],
        ["density", "--k", str(rng.randint(95, 105))],
    ]
    rng.shuffle(argvs)
    return [_verb_op(argv, traced) for argv in argvs]


def run_verb(argv: list[str], traced: bool) -> dict:
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "verb", *argv]
    else:
        cmd = [sys.executable, "-m", "arspec", *argv]
    proc = subprocess.run(cmd, env=verb_env(), capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    if traced and proc.returncode == 0:
        return json.loads(proc.stdout)
    return {"rc": proc.returncode, "out": proc.stdout, "err": proc.stderr}


def _verb_op(argv: list[str], traced: bool) -> Op:
    verb = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    n = int(opts.get("--n", 0))
    roots = graphs = 0
    if verb == "spectrum":
        roots, graphs = n, 1
    elif verb == "density":
        roots, graphs = 2 * int(opts["--k"]), 1
    elif verb == "scan":
        roots, graphs = n << (n - 2), 1 << (n - 2)
    return Op(verb, lambda: run_verb(argv, traced),
              check=lambda res: _verb_mismatch(argv, opts, res),
              roots=roots, graphs=graphs)


def _verb_mismatch(argv, opts, res) -> str | None:
    if res["rc"] != 0:
        return "exit code %d: %s" % (res["rc"], res.get("err", "")[-200:])
    verb, out = argv[0], res["out"]
    if verb == "spectrum":
        n = int(opts["--n"])
        ref = R.dense_spectrum(R.antiregular_bits(n))
        if opts.get("--method") == "both":
            doc = json.loads(out)
            return (R.spectrum_mismatch(doc["dense"], ref)
                    or R.spectrum_mismatch(_spectrum_from_json(doc["cheb"]), ref))
        if opts.get("--format") == "csv":
            rows = [line.split(",") for line in out.splitlines()[1:] if line]
            return R.spectrum_mismatch([float(r[3]) for r in rows], ref)
        return R.spectrum_mismatch(_spectrum_from_json(json.loads(out)), ref)
    if verb == "table1":
        rows = {row["n"]: row["computed"] for row in json.loads(out)["rows"]}
        if sorted(rows) != sorted(R.TABLE1):
            return "table1 rows %r" % sorted(rows)
        worst = max(abs(rows[n] - R.TABLE1[n]) for n in R.TABLE1)
        return None if worst <= R.TABLE1_TOL else "table1 off by %.3e" % worst
    if verb == "verify":
        lines = out.strip().splitlines()
        bad = [line for line in lines if ": PASS (" not in line]
        return None if len(lines) == 7 and not bad else "verify lines %r" % (bad or lines)
    if verb == "scan":
        return R.scan_mismatch(json.loads(out), R.scan_reference(int(opts["--n"])))
    if verb == "density":
        rows = [line.split(",") for line in out.splitlines()[1:] if line]
        n = 2 * int(opts["--k"])
        return R.spectrum_mismatch([float(r[1]) for r in rows],
                                   R.dense_spectrum(R.antiregular_bits(n)))
    return _figure_mismatch(opts, out)


def _spectrum_from_json(doc) -> list[float]:
    return [*doc["negatives"], doc["trivial"], *doc["positives"]]


def _figure_mismatch(opts, out: str) -> str | None:
    which, points = opts["--which"], int(opts["--points"])
    k = int(opts.get("--k", 0))
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:] if line]
    if not points - k - 1 <= len(rows) <= points:
        return "%d data rows for %d points" % (len(rows), points)
    for row in rows:
        reason = R.figure_row_mismatch(which, k, row)
        if reason:
            return reason
    return None


# ---------------------------------------------------------------------------

IN_PROCESS_ROUNDS = {"spectrum": spectrum_round, "oracle": oracle_round}
