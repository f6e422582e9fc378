"""Threshold graph spectra, equitable quotients, and exhaustive scans.

Grouping equal rows of a connected threshold graph's adjacency matrix gives
an equitable partition into at most 2k cells that alternate independent-set
cells and clique cells.  The quotient matrix returned here is the divisor
matrix: entry (i, j) counts the neighbors a vertex of cell i has inside
cell j.  Its eigenvalues, together with -1 repeated once per surplus clique
vertex and 0 once per surplus independent vertex, recover the full spectrum
exactly.

The scans cover every connected threshold graph of a given order
(creation sequences 0...1 over the free middle bits, 2^(n-2) graphs) and
check two spectral statements: no nontrivial eigenvalue falls inside the
forbidden interval, and the eigenvalues nearest that interval over the
whole family belong to the anti-regular graph.  Exact eigenvalue counts by
Sylvester inertia decide the graphs in chunks of 2^14, streamed depth first
through one elimination, so a scan holds a few chunks and the indices they
flag, never an array over the whole order.  The dense oracle runs only on
the few flagged graphs, so reported values are dense ones.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    _check_sequence,
    adjacency_from_sequence,
    antiregular_sequence,
    sequence_to_string,
)
from .oracle import jacobi_eigenvalues, quotient_eigenvalues
from .solver import FORBIDDEN_HI, FORBIDDEN_LO, _checked_int

MAX_SCAN_ORDER = 30
GAP_MARGIN = 1e-9  # violations must clear the interval endpoints by this much
TRIVIAL_TOL = 1e-9  # distance from 0 / -1 below which an eigenvalue is trivial
TIE_TOL = 1e-9  # a scan names the first graph this close to a family extreme


def run_length_encode(bits) -> tuple[tuple[int, int], ...]:
    """Compress a connected creation sequence into its (s_i, t_i) runs:
    s_i zeros, then t_i ones, every run nonempty.

    Connectivity means the sequence ends in 1; anything else is rejected
    because the quotient construction below assumes it.
    """
    b = _check_sequence(bits)
    if b[-1] != 1:
        raise ValueError("creation sequence ends in 0: graph is disconnected")
    lengths = [len(list(run)) for _, run in itertools.groupby(b)]  # 0-run, 1-run, ...
    return tuple(zip(lengths[::2], lengths[1::2]))


def quotient_matrix(runs) -> tuple[np.ndarray, list[int]]:
    """Divisor matrix of the degree partition, with its cell sizes.

    Start from the alternating adjacency pattern on 2k cells, add
    1 - 1/t_i to the diagonal of each clique cell (a clique vertex sees
    t_i - 1 neighbors inside its own cell, and the later column scaling
    multiplies by t_i), then scale column j by the size of cell j so entry
    (i, j) counts neighbors.
    """
    k = len(runs)
    pattern = adjacency_from_sequence(antiregular_sequence(2 * k)).astype(float)
    sizes: list[int] = []
    for i, (s, t) in enumerate(runs):
        sizes.extend([_checked_int("run length", s, 1), _checked_int("run length", t, 1)])
        pattern[2 * i + 1, 2 * i + 1] += 1.0 - 1.0 / sizes[-1]
    return pattern * np.asarray(sizes, dtype=float)[None, :], sizes


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
        return jacobi_eigenvalues(adjacency_from_sequence(b)).eigenvalues
    if method != "quotient":
        raise ValueError("method must be 'full' or 'quotient', got %r" % (method,))
    runs = run_length_encode(b)
    matrix, sizes = quotient_matrix(runs)
    eigs = list(quotient_eigenvalues(matrix, sizes).eigenvalues)
    eigs.extend([0.0] * sum(s - 1 for s, _ in runs))
    eigs.extend([-1.0] * sum(t - 1 for _, t in runs))
    return sorted(eigs)


def enumerate_connected_threshold(n: int):
    """Yield creation sequences of all connected threshold graphs, order n.

    The n - 2 middle bits run through all values most-significant first, so
    the stream is in lexicographic order; first and last bits are pinned to
    0 and 1.  Capped at n = MAX_SCAN_ORDER (2^28 graphs at 30) to keep
    exhaustive use sane.
    """
    n = _checked_int("n", n, 2, MAX_SCAN_ORDER)
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
        pairs = ((self.min_positive, self.antiregular_min_positive),
                 (self.max_nontrivial_negative, self.antiregular_max_negative))
        return all((best is None and anti is None)
                   or (None not in (best, anti) and abs(best[1] - anti) <= TIE_TOL)
                   for best, anti in pairs)

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
    nontrivial = [lam for lam in eigs if abs(lam) > TRIVIAL_TOL and abs(lam + 1.0) > TRIVIAL_TOL]
    return (
        [lam for lam in nontrivial if FORBIDDEN_LO + GAP_MARGIN < lam < FORBIDDEN_HI - GAP_MARGIN],
        min((lam for lam in eigs if lam > TRIVIAL_TOL), default=None),
        max((lam for lam in nontrivial if lam < 0), default=None),
    )


def _dense_row(bits):
    """(sequence string, violations, min positive, max nontrivial negative)."""
    return (sequence_to_string(bits),) + _graph_stats(bits)


_CHUNK_BITS = 14  # 2^14 graphs per chunk, all x together: 2^13 to 2^14 ran fastest at order 26
_BOTH = np.array([[0.0], [1.0]])  # a free vertex: the b = 0 batch, then the b = 1 batch


def _eliminate(c, neg, x, b):
    """Pivot out the last vertex, bit b (0, 1 or _BOTH), of every entry:
    the new shift c - (b + c)^2 / d, formed in one array; a zero pivot
    leaves an infinite or NaN shift."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = c - x
        shift = b + c
        shift **= 2
        shift /= d
        np.subtract(c, shift, out=shift)
    return shift, np.broadcast_to(neg + (d < 0), shift.shape)


def inertia_chunks(n: int, xs):
    """Number of eigenvalues below each x of xs, for every connected
    threshold graph of order n, one chunk of consecutive middle-bit
    integers m at a time: yields (m0, counts), where counts[k, j] is the
    count below xs[k] of graph m0 + j, int8, and -1 where a pivot was zero
    or not finite.  Chunks come depth first, not in order of m0.

    Eliminating A - xI from the last vertex to the first leaves a block
    whose entries all carry one shift c (Jacobs, Trevisan and Tura, Linear
    Algebra Appl. 439, 2013): vertex i with bit b has pivot d = c - x and
    leaves c - (b + c)^2 / d, and by Sylvester's law of inertia the negative
    pivots count the eigenvalues below x.  d does not depend on b, so each
    free vertex doubles the batch.  The lowest _CHUNK_BITS bits of m are
    doubled once for all chunks; the higher vertices are finished depth
    first, so graphs that share those bits share their elimination.
    """
    x = np.asarray(xs, dtype=float)[:, None]
    c, neg = _eliminate(np.zeros((len(x), 1)), np.zeros((len(x), 1), dtype=np.int8), x, 1.0)
    yield from _finish(c, neg, x, n - 2, 0, 1)


def _finish(c, neg, x, i, m0, step):
    """Pivot out vertices i down to 0 of a batch whose vertices above i are
    done, vertex i adding step to m when its bit is 1, and graph m0 + j in
    column j; yield (m0, counts) per chunk.  Below 2^_CHUNK_BITS graphs the
    batch doubles in place; from there it splits depth first."""
    if i == 0:
        c, neg = _eliminate(c, neg, x, 0.0)
        # a zero pivot's infinite or NaN shift lasts through vertex 0
        yield m0, np.where(np.isfinite(c), neg, -1)
        return
    c, neg = _eliminate(c[:, None], neg[:, None], x[:, None], _BOTH)
    if step < 1 << _CHUNK_BITS:  # the batch holds step graphs, m0 .. m0 + step - 1
        yield from _finish(c.reshape(len(x), -1), neg.reshape(len(x), -1), x, i - 1, m0, 2 * step)
        return
    for b in (0, 1):
        yield from _finish(c[:, b], neg[:, b], x, i - 1, m0 + b * step, 2 * step)


def _trivial_count(n: int, m) -> np.ndarray:
    """Exact multiplicity of 0 and -1 together, for the middle-bit integers
    m: the adjacent equal bits of the creation sequence, n - 1 less its
    changes, plus one when it starts 01 (vertices 0 and 1 are then adjacent
    twins, another -1)."""
    s = 2 * np.asarray(m) + 1  # the sequence after vertex 0, vertex 1 highest
    return n - 1 - np.bitwise_count(s ^ (s >> 1)) + ((s >> (n - 2)) & 1)


def _fold(dense, col: int, sign: float):
    """The first (sequence, value) of column col of the dense rows, in
    sequence order, whose value lies within TIE_TOL of the column's extreme
    (sign 1 the minimum, -1 the maximum); None when the column is empty."""
    values = [(row[0], row[col]) for row in dense if row[col] is not None]
    if not values:
        return None
    extreme = sign * min(sign * v for _, v in values)
    return next(p for p in values if sign * (p[1] - extreme) <= TIE_TOL)


def omega_scan(n: int, workers: int | None = None) -> ScanReport:
    """Exhaustively test the forbidden interval over all connected threshold
    graphs on n vertices.

    A violation is an eigenvalue more than 1e-9 from 0 and -1 and more than
    1e-9 inside both interval endpoints; each is listed with its creation
    sequence, and none is expected (Ghorbani, Linear Algebra Appl., 2019).
    The dense oracle runs once on the anti-regular graph, whose extremes
    place two of the four count thresholds, so one inertia pass then counts
    all four.  It also runs on each graph whose exact counts show a
    nontrivial eigenvalue in a window slightly wider than the violation
    window or within 3 TIE_TOL beyond an anti-regular extreme, or hit a zero
    pivot; each chunk of counts is flagged as it arrives, and the flagged
    graphs run in sequence order, the anti-regular row reused in its slot.
    Each reported extreme is the first graph in sequence order within
    TIE_TOL of the extreme over the family.  That extreme is at or beyond
    the anti-regular one, so every graph the rule can name is flagged, and
    the report equals the one over every graph.
    workers is only checked, the scan being one vectorised pass; it stays
    while perfbench/workloads.py passes workers= (until ROADMAP item 1).
    """
    n = _checked_int("n", n, 2, MAX_SCAN_ORDER)
    if workers is not None:
        _checked_int("workers", workers, 1)
    anti = antiregular_sequence(n)
    anti_m = int("".join(map(str, anti[:-1])), 2)
    anti_row = _dense_row(anti)
    anti_min, anti_max = anti_row[2:]
    # without an extreme (n = 2) flag every graph with a value beyond the window
    xs = [FORBIDDEN_LO + GAP_MARGIN / 2, FORBIDDEN_HI - GAP_MARGIN / 2,
          np.inf if anti_min is None else anti_min + 3 * TIE_TOL,
          -np.inf if anti_max is None else anti_max - 3 * TIE_TOL]
    kept = []
    for m0, (below_lo, below_hi, beyond_min, beyond_max) in inertia_chunks(n, xs):
        m = m0 + np.arange(below_lo.size)
        flagged = (below_hi - below_lo != _trivial_count(n, m)) | (below_lo < 0) | (below_hi < 0)
        # an undecided count differs from its edge, or the edge is undecided and flagged
        flagged |= (beyond_min != below_hi) | (beyond_max != below_lo)
        kept.append(m[flagged | (m == anti_m)])
    # chunks arrive out of order; the violations and the tie rule go in sequence order
    dense = [anti_row if m == anti_m else _dense_row(_creation_sequence(n, int(m)))
             for m in np.sort(np.concatenate(kept))]
    return ScanReport(
        n=n,
        graphs_scanned=1 << (n - 2),
        omega_violations=[(row[0], v) for row in dense for v in row[1]],
        min_positive=_fold(dense, 2, 1.0),
        max_nontrivial_negative=_fold(dense, 3, -1.0),
        antiregular_min_positive=anti_min,
        antiregular_max_negative=anti_max,
    )


# kept because perfbench/tracer.py wraps this name, until it reads result
# counters (ROADMAP item 7); the extremal statement is omega_scan's report
extremal_scan = omega_scan
