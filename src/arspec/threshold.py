"""Threshold graph spectra, equitable quotients, and exhaustive scans.

Grouping equal rows of a connected threshold graph's adjacency matrix gives
an equitable partition into at most 2k cells that alternate independent-set
cells and clique cells.  The quotient matrix returned here is the divisor
matrix: entry (i, j) counts the neighbors a vertex of cell i has inside
cell j.  Its eigenvalues, together with -1 repeated once per surplus clique
vertex and 0 once per surplus independent vertex, recover the full spectrum
exactly; cells of size zero are dropped.

The scan operations enumerate every connected threshold graph of a given
order (creation sequences 0...1 over the free middle bits, 2^(n-2) graphs)
and check two spectral statements against the dense oracle: no nontrivial
eigenvalue falls inside the forbidden interval, and the eigenvalues nearest
that interval over the whole family belong to the anti-regular graph.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .graphs import (
    _check_sequence,
    adjacency_from_sequence,
    antiregular_sequence,
    sequence_to_string,
)
from .oracle import jacobi_eigenvalues, quotient_eigenvalues
from .solver import FORBIDDEN_HI, FORBIDDEN_LO

MAX_SCAN_ORDER = 26
GAP_MARGIN = 1e-9  # violations must clear the interval endpoints by this much
TRIVIAL_TOL = 1e-9  # distance from 0 / -1 below which an eigenvalue is trivial
TIE_TOL = 1e-9  # extremal values this close count as attained


@dataclass(frozen=True)
class RunLengthSequence:
    """Creation sequence compressed to runs (s_i zeros, then t_i ones).

    The first zero-run is nonempty because sequences start with 0; later
    zero-runs may be empty only in the degenerate sense of never occurring,
    so s_i >= 1 for i >= 2 as produced by run_length_encode.  Cell-size
    bookkeeping elsewhere still tolerates s_i = 0.
    """

    runs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.runs:
            raise ValueError("need at least one run")
        for i, (s, t) in enumerate(self.runs):
            if s < 0 or t < 1:
                raise ValueError("run %d has invalid counts (%d, %d)" % (i, s, t))
        if self.runs[0][0] < 1:
            raise ValueError("first zero-run must be nonempty")

    @property
    def n(self) -> int:
        return sum(s + t for s, t in self.runs)

    def expand(self) -> tuple[int, ...]:
        bits: list[int] = []
        for s, t in self.runs:
            bits.extend([0] * s)
            bits.extend([1] * t)
        return tuple(bits)


def run_length_encode(bits) -> RunLengthSequence:
    """Compress a connected creation sequence into zero/one runs.

    Connectivity means the sequence ends in 1; anything else is rejected
    because the quotient construction below assumes it.
    """
    b = _check_sequence(bits)
    if b[-1] != 1:
        raise ValueError("creation sequence ends in 0: graph is disconnected")
    runs: list[tuple[int, int]] = []
    i = 0
    while i < len(b):
        s = 0
        while b[i] == 0:
            s += 1
            i += 1
        t = 0
        while i < len(b) and b[i] == 1:
            t += 1
            i += 1
        runs.append((s, t))
    return RunLengthSequence(runs=tuple(runs))


def quotient_matrix(rl: RunLengthSequence) -> tuple[np.ndarray, list[int]]:
    """Divisor matrix of the degree partition, with its cell sizes.

    Start from the alternating adjacency pattern on 2k cells, add
    1 - 1/t_i to the diagonal of each clique cell (a clique vertex sees
    t_i - 1 neighbors inside its own cell, and the later column scaling
    multiplies by t_i), then scale column j by the size of cell j so entry
    (i, j) counts neighbors.  Size-zero cells are dropped at the end.
    """
    k = len(rl.runs)
    pattern = adjacency_from_sequence(antiregular_sequence(2 * k)).astype(float)
    sizes: list[int] = []
    for i, (s, t) in enumerate(rl.runs):
        pattern[2 * i + 1, 2 * i + 1] += 1.0 - 1.0 / t
        sizes.extend([s, t])
    scaled = pattern * np.asarray(sizes, dtype=float)[None, :]
    keep = [c for c in range(2 * k) if sizes[c] > 0]
    return scaled[np.ix_(keep, keep)], [sizes[c] for c in keep]


def threshold_spectrum(bits, method: str = "quotient") -> list[float]:
    """All n eigenvalues of a threshold graph, ascending.

    method='full' runs the dense oracle on the n x n adjacency matrix;
    method='quotient' solves the divisor matrix and appends the trivial
    eigenvalues analytically: -1 once per extra clique vertex, 0 once per
    extra independent vertex.  The quotient route needs a connected graph
    and is dramatically smaller for blocky sequences.
    """
    b = _check_sequence(bits)
    if method == "full":
        a = adjacency_from_sequence(b).astype(float)
        return jacobi_eigenvalues(a).eigenvalues
    if method != "quotient":
        raise ValueError("method must be 'full' or 'quotient', got %r" % (method,))
    rl = run_length_encode(b)
    matrix, sizes = quotient_matrix(rl)
    eigs = list(quotient_eigenvalues(matrix, sizes).eigenvalues)
    eigs.extend([0.0] * sum(max(s - 1, 0) for s, _ in rl.runs))
    eigs.extend([-1.0] * sum(t - 1 for _, t in rl.runs))
    if len(eigs) != len(b):
        raise RuntimeError(
            "quotient bookkeeping produced %d eigenvalues for n=%d"
            % (len(eigs), len(b))
        )
    return sorted(eigs)


def enumerate_connected_threshold(n: int):
    """Yield creation sequences of all connected threshold graphs, order n.

    The n - 2 middle bits run through all values most-significant first, so
    the stream is in lexicographic order; first and last bits are pinned to
    0 and 1.  Capped at n = 26 (2^24 graphs) to keep exhaustive use sane.
    """
    if not 2 <= n <= MAX_SCAN_ORDER:
        raise ValueError("enumeration supports 2 <= n <= %d, got %d" % (MAX_SCAN_ORDER, n))
    for m in range(1 << (n - 2)):
        yield _creation_sequence(n, m)


def _creation_sequence(n: int, m: int) -> tuple[int, ...]:
    """0, the n - 2 bits of m most-significant first, then 1."""
    middle = n - 2
    return (0,) + tuple((m >> (middle - 1 - i)) & 1 for i in range(middle)) + (1,)


@dataclass
class ScanReport:
    n: int
    graphs_scanned: int
    omega_violations: list[tuple[str, float]] = field(default_factory=list)
    min_positive: tuple[str, float] | None = None
    max_nontrivial_negative: tuple[str, float] | None = None
    antiregular_min_positive: float | None = None
    antiregular_max_negative: float | None = None

    def extremes_attained(self) -> bool:
        """True iff the anti-regular graph realizes both scan extremes."""
        for extreme, anti in (
            (self.min_positive, self.antiregular_min_positive),
            (self.max_nontrivial_negative, self.antiregular_max_negative),
        ):
            if extreme is None and anti is None:
                continue
            if extreme is None or anti is None:
                return False
            if abs(extreme[1] - anti) > TIE_TOL:
                return False
        return True

    def to_json(self) -> str:
        def pair(p):
            return None if p is None else {"sequence": p[0], "value": p[1]}

        return json.dumps(
            {
                "n": self.n,
                "graphs_scanned": self.graphs_scanned,
                "omega_violations": [
                    {"sequence": s, "eigenvalue": v} for s, v in self.omega_violations
                ],
                "min_positive": pair(self.min_positive),
                "max_nontrivial_negative": pair(self.max_nontrivial_negative),
                "antiregular_min_positive": self.antiregular_min_positive,
                "antiregular_max_negative": self.antiregular_max_negative,
                "extremes_attained": self.extremes_attained(),
            }
        )

    def violations_to_csv(self) -> str:
        lines = ["sequence,eigenvalue"]
        lines.extend("%s,%r" % (s, v) for s, v in self.omega_violations)
        return "\r\n".join(lines) + "\r\n"


def _graph_stats(bits):
    """(violations, min positive, max nontrivial negative) for one graph."""
    eigs = threshold_spectrum(bits, method="full")
    violations = []
    min_pos = None
    max_neg = None
    for lam in eigs:
        trivial = abs(lam) <= TRIVIAL_TOL or abs(lam + 1.0) <= TRIVIAL_TOL
        if not trivial and FORBIDDEN_LO + GAP_MARGIN < lam < FORBIDDEN_HI - GAP_MARGIN:
            violations.append(lam)
        if lam > TRIVIAL_TOL and (min_pos is None or lam < min_pos):
            min_pos = lam
        if lam < -TRIVIAL_TOL and abs(lam + 1.0) > TRIVIAL_TOL:
            if max_neg is None or lam > max_neg:
                max_neg = lam
    return violations, min_pos, max_neg


def _scan_range(n: int, start: int, stop: int):
    """Scan creation sequences with middle bits in [start, stop)."""
    count = 0
    violations: list[tuple[str, float]] = []
    best_min: tuple[str, float] | None = None
    best_max: tuple[str, float] | None = None
    for m in range(start, stop):
        bits = _creation_sequence(n, m)
        seq = sequence_to_string(bits)
        viols, min_pos, max_neg = _graph_stats(bits)
        count += 1
        violations.extend((seq, v) for v in viols)
        if min_pos is not None:
            best_min = _merge(best_min, (seq, min_pos), 1.0)
        if max_neg is not None:
            best_max = _merge(best_max, (seq, max_neg), -1.0)
    return count, violations, best_min, best_max


def _merge(a, b, sign: float):
    """The better of two (sequence, value) candidates or None: smaller
    sign * value beyond TIE_TOL (sign 1 keeps the minimum, -1 the maximum),
    else on a tie the lexicographically smaller sequence."""
    if a is None:
        return b
    if b is None:
        return a
    if sign * b[1] < sign * a[1] - TIE_TOL:
        return b
    if abs(b[1] - a[1]) <= TIE_TOL and b[0] < a[0]:
        return b
    return a


def _resolve_workers(workers: int | None) -> int:
    cap = None
    env = os.environ.get("ARSPEC_THREADS")
    if env is not None:
        cap = int(env)
        if cap < 1:
            raise ValueError("ARSPEC_THREADS must be a positive integer, got %r" % env)
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise ValueError("workers must be >= 1, got %d" % workers)
        return min(workers, cap) if cap else workers
    return cap if cap else 1


@lru_cache(maxsize=32)
def _scan_all(n: int, workers: int) -> ScanReport:
    total = 1 << (n - 2)
    if workers <= 1 or total < 64:
        parts = [_scan_range(n, 0, total)]
    else:
        chunks = min(workers * 4, total)
        bounds = [(total * c) // chunks for c in range(chunks + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_range, [n] * chunks, bounds[:-1], bounds[1:]))
    count = 0
    violations = []
    best_min = best_max = None
    # chunks are contiguous and in order, so concatenated violations stay in
    # lexicographic sequence order
    for c_count, c_viol, c_min, c_max in parts:
        count += c_count
        violations.extend(c_viol)
        best_min = _merge(best_min, c_min, 1.0)
        best_max = _merge(best_max, c_max, -1.0)

    anti = antiregular_sequence(n)
    _, anti_min, anti_max = _graph_stats(anti)
    return ScanReport(
        n=n,
        graphs_scanned=count,
        omega_violations=violations,
        min_positive=best_min,
        max_nontrivial_negative=best_max,
        antiregular_min_positive=anti_min,
        antiregular_max_negative=anti_max,
    )


def omega_scan(n: int, workers: int | None = None) -> ScanReport:
    """Exhaustively test the forbidden interval over all connected threshold
    graphs on n vertices.

    An eigenvalue counts as a violation when it clears 0 and -1 by more
    than 1e-9 yet sits more than 1e-9 inside both interval endpoints.  The
    report lists every violation with its creation sequence; an empty list
    is the expected outcome.  Set workers (or ARSPEC_THREADS) to scan in
    parallel; results are identical either way.  Each call gets its own report.
    """
    if not 2 <= n <= MAX_SCAN_ORDER:
        raise ValueError("scan supports 2 <= n <= %d, got %d" % (MAX_SCAN_ORDER, n))
    cached = _scan_all(n, _resolve_workers(workers))
    return replace(cached, omega_violations=list(cached.omega_violations))


def extremal_scan(n: int, workers: int | None = None) -> ScanReport:
    """Exhaustively locate the eigenvalues nearest the forbidden interval:
    omega_scan's report, whose extremes_attained() tells whether the
    anti-regular graph has both the smallest positive and the largest
    nontrivial negative eigenvalue of the family."""
    return omega_scan(n, workers)
