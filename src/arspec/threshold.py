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
Sylvester inertia at both ends of one window decide the graphs in chunks of
2^14, streamed depth first through one elimination, so a scan holds a few
chunks and the indices they flag, never an array over the whole order; the
levels below the split add their pivot signs in place into one count array,
and each level of the split eliminates into buffers made once per pass.  The
dense oracle runs only on the few flagged graphs, so reported values are
dense ones.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .graphs import _check_sequence, adjacency_from_sequence, antiregular_sequence
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
    if method == "full":
        return jacobi_eigenvalues(adjacency_from_sequence(bits)).eigenvalues
    if method != "quotient":
        raise ValueError("method must be 'full' or 'quotient', got %r" % (method,))
    runs = run_length_encode(bits)
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
    """(violations, min positive, max nontrivial negative) for one graph:
    the eigenvalues come ascending, so each extreme is the first found from
    its end."""
    eigs = threshold_spectrum(bits, method="full")
    nontrivial = [lam for lam in eigs if abs(lam) > TRIVIAL_TOL and abs(lam + 1.0) > TRIVIAL_TOL]
    return (
        [lam for lam in nontrivial if FORBIDDEN_LO + GAP_MARGIN < lam < FORBIDDEN_HI - GAP_MARGIN],
        next((lam for lam in eigs if lam > TRIVIAL_TOL), None),
        next((lam for lam in reversed(nontrivial) if lam < 0), None),
    )


def _dense_row(bits):
    """(sequence string, violations, min positive, max nontrivial negative)
    of a tuple of ints, checked once, by _graph_stats."""
    return ("".join(map(str, bits)),) + _graph_stats(bits)


_CHUNK_BITS = 14  # 2^14 graphs per chunk, both x: ties 2^13, beats 2^15 and 2^16 at orders 26, 28
_BOTH = np.array([[0.0], [1.0]])  # a free vertex: the b = 0 batch, then the b = 1 batch


def _eliminate(c, neg, x, b, out=None):
    """Pivot out the last vertex, bit b (0, 1 or _BOTH: a row per bit), of
    every entry: the shift c - (b + c)^2 / d, infinite or NaN at a zero pivot
    d = c - x, and neg plus one where d, the same for both bits, is < 0.
    out is (shift, counts, pivot, below), each an array or None: the two
    results go into the first two, d and d < 0 into the others, and numpy
    allocates only what is None, everything when out is."""
    shift, counts, d, below = out or (None,) * 4
    d = np.subtract(c, x, out=d)
    shift = np.add(b, c, out=shift)
    below = np.less(d, 0.0, out=below)
    shift **= 2
    shift /= d
    np.subtract(c, shift, out=shift)
    return shift, np.add(neg, below, out=counts)


def inertia_chunks(n: int, xs):
    """Number of eigenvalues below each x of xs, for every connected
    threshold graph of order n, one chunk of consecutive middle-bit
    integers m at a time: yields (m0, counts), where counts[k, j] is the
    count below xs[k] of graph m0 + j, int8, and -1 where a pivot was zero
    or not finite.  Chunks come depth first, not in order of m0, and each
    is a new array, which later chunks leave alone.

    Eliminating A - xI from the last vertex to the first leaves a block
    whose entries all carry one shift c (Jacobs, Trevisan and Tura, Linear
    Algebra Appl. 439, 2013): vertex i with bit b has pivot d = c - x and
    leaves c - (b + c)^2 / d, and by Sylvester's law of inertia the negative
    pivots count the eigenvalues below x.  d does not depend on b, so each
    free vertex doubles the batch.  The suffix batch pivots out vertex
    n - 1 (bit 1), then the low = min(n - 2, _CHUNK_BITS) lowest bits of m
    in one loop, once for all chunks, adding signs in place into counts of
    the final width 2^low; _split pivots out the higher vertices depth
    first, so graphs that share those bits share their elimination.
    """
    n = _checked_int("n", n, 2, MAX_SCAN_ORDER)
    x = np.asarray(xs, dtype=float)
    if x.ndim != 1 or not len(x):
        raise ValueError("xs must be a nonempty 1-D sequence, got shape %r" % (x.shape,))
    x, low = x[:, None, None], min(n - 2, _CHUNK_BITS)
    neg = np.zeros((len(x), 1, 1 << low), dtype=np.int8)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c, _ = _eliminate(np.zeros(x.shape), neg, x, 1.0, (None, neg, None, None))
        for level in range(low):  # the batch holds 2^level graphs
            # graph j of the final width has the signs of entry j mod 2^level
            view = neg.reshape(len(x), -1, 1 << level)
            c, _ = _eliminate(c, view, x, _BOTH, (None, view, None, None))
            c = c.reshape(len(x), 1, -1)
    out = [(None, neg, None, None)]  # without a split, vertex 0 adds in place too
    if n - 2 > low:  # each split level's shift and counts, one shared pivot and sign
        shared = np.empty(c.shape), np.empty(c.shape, dtype=bool)
        out = [(np.empty((len(x), 1 + (i > 0), 1 << low)), np.empty(c.shape, dtype=np.int8),
                *shared) for i in range(n - 1 - low)]
    yield from _split(c, neg, x, n - 2 - low, 0, 1 << low, out)


def _split(c, neg, x, i, m0, step, out):
    """Pivot out vertex i, adding step to m when its bit is 1, of the batch
    of graphs m0 + j into out[i]; yield (m0, counts) after vertex 0, outside
    np.errstate, else split into the batches of both bits, depth first."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c, neg = _eliminate(c, neg, x, _BOTH if i else 0.0, out[i])
    if not i:
        # a zero pivot's infinite or NaN shift lasts through vertex 0
        yield m0, np.where(np.isfinite(c), neg, -1)[:, 0]
        return
    for b in (0, 1):
        yield from _split(c[:, b, None], neg, x, i - 1, m0 + b * step, 2 * step, out)


def _trivial_count(n: int, m) -> np.ndarray:
    """Exact multiplicity of 0 and -1 together, for the middle-bit integers
    m: one for vertices 0 and 1 (equal bits, or adjacent twins 01), and one
    per equal adjacent pair of the n - 1 bits of 2m + 1, vertex 1 highest."""
    return n - 1 - np.bitwise_count(((2 * m + 1) ^ m) & ((1 << (n - 2)) - 1))


def _shifted_trivial_count(n: int, m0: int, trivial) -> np.ndarray:
    """_trivial_count(n, m0 + j) for j below len(trivial) = 2^low, a power
    of two dividing m0, from trivial = _trivial_count(n, j).  The pairs among
    m0's bits shift every count by one constant, which pairs bit low with a
    0; where bit low is set and so is bit low - 1 of j (the upper half), that
    pair is equal, and the constant and trivial had each counted it unequal."""
    counts = trivial - (((2 * m0) ^ m0) & ((1 << (n - 2)) - 1)).bit_count()
    if m0 & len(trivial):
        counts[len(trivial) // 2:] += 2
    return counts


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
    The dense oracle runs once on the anti-regular graph.  Each graph's
    counts below lo and below hi, one inertia pass, show whether a nontrivial
    eigenvalue lies in [lo, hi): the interval less GAP_MARGIN / 2 at each
    end, widened to 3 TIE_TOL beyond each anti-regular extreme.  The oracle
    also runs on each graph where one does or a pivot was zero; each chunk
    of counts is flagged as it arrives, and the flagged graphs run in
    sequence order, the anti-regular row reused in its slot.
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
    anti_row = _dense_row(antiregular_sequence(n))
    anti_m = int(anti_row[0][:-1], 2)
    anti_min, anti_max = anti_row[2:]
    # without an extreme (n = 2) the window reaches past every value on that side
    lo, hi = FORBIDDEN_LO + GAP_MARGIN / 2, FORBIDDEN_HI - GAP_MARGIN / 2
    lo = -np.inf if anti_max is None else min(lo, anti_max - 3 * TIE_TOL)
    hi = np.inf if anti_min is None else max(hi, anti_min + 3 * TIE_TOL)
    kept = {anti_m}
    # a chunk holds the graphs m0 + j, j below 2^low, low = min(n - 2, _CHUNK_BITS);
    # up to order 16 the one chunk has m0 = 0 and needs no shift
    trivial = _trivial_count(n, np.arange(1 << min(n - 2, _CHUNK_BITS)))
    for m0, counts in inertia_chunks(n, [lo, hi]):
        expected = _shifted_trivial_count(n, m0, trivial) if m0 else trivial
        below_lo, below_hi = counts
        flagged = (below_hi - below_lo != expected) | (np.minimum(below_lo, below_hi) < 0)
        kept.update(m0 + j for j in flagged.nonzero()[0].tolist())
    # chunks arrive out of order; the violations and the tie rule go in sequence order
    dense = [anti_row if m == anti_m else _dense_row(_creation_sequence(n, m))
             for m in sorted(kept)]
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
