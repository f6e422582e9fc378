import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from arspec import cli, threshold
from arspec.graphs import adjacency_from_sequence, antiregular_sequence, sequence_to_string
from arspec.solver import FORBIDDEN_LO, solve_spectrum
from arspec.threshold import (
    enumerate_connected_threshold,
    extremal_scan,
    omega_scan,
    quotient_matrix,
    run_length_encode,
    threshold_spectrum,
)


def test_run_length_encoding_examples():
    assert run_length_encode((0, 1, 0, 1, 0, 1)) == ((1, 1), (1, 1), (1, 1))
    assert run_length_encode((0, 0, 1, 1)) == ((2, 2),)
    assert run_length_encode((0, 0, 1, 0, 1)) == ((2, 1), (1, 1))


def test_run_length_rejects_disconnected():
    with pytest.raises(ValueError):
        run_length_encode((0, 1, 0))
    with pytest.raises(ValueError):
        run_length_encode((0, 0))


def test_run_length_expand_round_trip():
    for n in range(2, 9):
        for bits in enumerate_connected_threshold(n):
            runs = run_length_encode(bits)
            assert all(s >= 1 and t >= 1 for s, t in runs)
            assert tuple(b for s, t in runs for b in (0,) * s + (1,) * t) == bits


def test_quotient_matrix_two_cells():
    matrix, sizes = quotient_matrix(run_length_encode((0, 0, 1, 1)))
    assert sizes == [2, 2]
    assert np.array_equal(matrix, np.array([[0.0, 2.0], [2.0, 1.0]]))


def test_quotient_matrix_rejects_bad_run_lengths():
    for runs in (((0, 2),), ((2, 0),), ((1, 2.5),), ((2.5, 1),)):
        with pytest.raises(ValueError, match="run length must"):
            quotient_matrix(runs)


def test_quotient_matrix_odd_antiregular():
    # nine vertices: independent cell of size 2, all other cells singletons
    matrix, sizes = quotient_matrix(run_length_encode(antiregular_sequence(9)))
    assert sizes == [2, 1, 1, 1, 1, 1, 1, 1]
    assert matrix.shape == (8, 8)
    # column scaling doubles the first column of the alternating pattern
    assert list(matrix[:, 0]) == [0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0]
    assert list(matrix[0]) == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


def test_quotient_matrix_even_antiregular_is_adjacency():
    for k in range(1, 7):
        matrix, sizes = quotient_matrix(run_length_encode(antiregular_sequence(2 * k)))
        assert sizes == [1] * (2 * k)
        assert np.array_equal(
            matrix, adjacency_from_sequence(antiregular_sequence(2 * k)).astype(float)
        )


def test_star_spectrum_quotient():
    eigs = threshold_spectrum((0, 0, 0, 1))
    s = math.sqrt(3.0)
    assert eigs == pytest.approx([-s, 0.0, 0.0, s], abs=1e-10)


def test_diamond_quotient_plus_trivial_equals_full():
    bits = (0, 0, 1, 1)
    quot = threshold_spectrum(bits, method="quotient")
    full = threshold_spectrum(bits, method="full")
    assert quot == pytest.approx(full, abs=1e-8)


def test_method_validation():
    with pytest.raises(ValueError):
        threshold_spectrum((0, 1), method="fast")
    with pytest.raises(ValueError):
        threshold_spectrum((0, 1, 0), method="quotient")


@pytest.mark.parametrize("n", range(2, 13))
def test_quotient_equals_full_exhaustively(n):
    for bits in enumerate_connected_threshold(n):
        quot = threshold_spectrum(bits, method="quotient")
        full = threshold_spectrum(bits, method="full")
        assert quot == pytest.approx(full, abs=1e-8), bits


def test_antiregular_quotient_matches_solver():
    for n in (8, 9, 12, 15):
        quot = threshold_spectrum(antiregular_sequence(n), method="quotient")
        assert quot == pytest.approx(solve_spectrum(n).eigenvalues(), abs=1e-8)


def test_enumeration_counts_and_order():
    for n in range(2, 9):
        seqs = list(enumerate_connected_threshold(n))
        assert len(seqs) == 2 ** (n - 2)
        assert seqs == sorted(seqs)
        assert all(b[0] == 0 and b[-1] == 1 and len(b) == n for b in seqs)
    with pytest.raises(ValueError):
        list(enumerate_connected_threshold(1))
    with pytest.raises(ValueError):
        list(enumerate_connected_threshold(31))


def test_omega_scan_small_orders_clean():
    for n in (2, 3, 8, 10):
        report = omega_scan(n)
        assert report.graphs_scanned == 2 ** (n - 2)
        assert report.omega_violations == []


def test_extremal_scan_attained_by_antiregular():
    for n in (4, 9, 11):
        report = extremal_scan(n)
        assert report.extremes_attained()
        assert report.min_positive[0] == "".join(map(str, antiregular_sequence(n)))


def test_scan_matches_solver_values():
    report = extremal_scan(12)
    spec = solve_spectrum(12)
    assert report.antiregular_min_positive == pytest.approx(spec.positives[0], abs=1e-9)
    assert report.antiregular_max_negative == pytest.approx(spec.negatives[0], abs=1e-9)


def test_scan_deterministic_and_parallel_agree():
    serial = omega_scan(9, workers=1)
    parallel = omega_scan(9, workers=2)
    assert serial.to_json() == parallel.to_json()


def test_each_scan_call_returns_a_fresh_report():
    omega_scan(6).omega_violations.append(("x", 0.0))
    extremal_scan(6).min_positive = ("000001", 5.0)
    assert omega_scan(6).omega_violations == []
    assert extremal_scan(6).extremes_attained()


def test_scan_report_wire_format():
    report = omega_scan(6)
    doc = json.loads(report.to_json())
    assert set(doc) == {
        "n",
        "graphs_scanned",
        "omega_violations",
        "min_positive",
        "max_nontrivial_negative",
        "antiregular_min_positive",
        "antiregular_max_negative",
        "extremes_attained",
    }
    assert doc["graphs_scanned"] == 16
    csv_text = report.violations_to_csv()
    assert csv_text.startswith("sequence,eigenvalue\r\n")


def test_scan_rejects_out_of_range():
    with pytest.raises(ValueError):
        omega_scan(1)
    with pytest.raises(ValueError):
        extremal_scan(31)


def test_numpy_order_gives_a_printable_report():
    # the order comes back a Python int, so graphs_scanned serialises
    assert omega_scan(np.int64(8)).to_json() == omega_scan(8).to_json()


def test_worker_resolution():
    assert omega_scan(5, workers=3).to_json() == omega_scan(5).to_json()
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            omega_scan(5, workers=workers)


def _stitched(n, xs):
    """The chunks of inertia_chunks(n, xs) stitched into one (len(xs),
    2^(n-2)) array, each graph covered by exactly one chunk."""
    counts = np.full((len(xs), 1 << (n - 2)), -2, dtype=np.int8)
    for m0, chunk in threshold.inertia_chunks(n, xs):
        assert chunk.dtype == np.int8 and (counts[:, m0:m0 + chunk.shape[1]] == -2).all()
        counts[:, m0:m0 + chunk.shape[1]] = chunk
    assert (counts != -2).all()
    return counts


@pytest.mark.parametrize("n", range(2, 13))
def test_counts_match_eigvalsh_exhaustively(n):
    matrices = [adjacency_from_sequence(b) for b in enumerate_connected_threshold(n)]
    eigs = np.linalg.eigvalsh(np.array(matrices, dtype=float))
    near_trivial = (np.abs(eigs) < 1e-8) | (np.abs(eigs + 1.0) < 1e-8)
    m = np.arange(1 << (n - 2))
    assert np.array_equal(threshold._trivial_count(n, m), near_trivial.sum(axis=1))
    _, anti_min, anti_max = threshold._graph_stats(antiregular_sequence(n))
    points = [threshold.FORBIDDEN_LO + threshold.GAP_MARGIN / 2,
              threshold.FORBIDDEN_HI - threshold.GAP_MARGIN / 2,
              threshold.FORBIDDEN_LO, threshold.FORBIDDEN_HI,
              anti_min + 3 * threshold.TIE_TOL, -2.5, -1.5, -0.5, 0.5, 1.5, n - 0.5]
    if anti_max is not None:
        points.append(anti_max - 3 * threshold.TIE_TOL)
    for x, row in zip(points, _stitched(n, points)):
        assert np.array_equal(row, (eigs < x).sum(axis=1)), x


def _python_trivial_count(bits):
    """Adjacent equal bits of one creation sequence, plus one if it starts 01."""
    return sum(a == b for a, b in zip(bits, bits[1:])) + (bits[:2] == (0, 1))


@pytest.mark.parametrize("n", range(2, threshold.MAX_SCAN_ORDER + 1))
def test_trivial_count_matches_bit_formula(n):
    # the bit formula of _trivial_count against a count along each sequence
    size = 1 << (n - 2)
    rng = np.random.default_rng(n)
    m = np.unique(np.concatenate([[0, size // 2, size - 1], rng.integers(0, size, 200)]))
    expected = [_python_trivial_count(threshold._creation_sequence(n, int(k))) for k in m]
    assert threshold._trivial_count(n, m).tolist() == expected


def test_count_chunks_match_one_batch(monkeypatch):
    xs = [-1.3, 0.21]
    whole = {n: _stitched(n, xs) for n in (5, 9, 13)}
    for chunk_bits in (3, 1):
        monkeypatch.setattr(threshold, "_CHUNK_BITS", chunk_bits)
        for n, counts in whole.items():
            assert np.array_equal(_stitched(n, xs), counts), (n, chunk_bits)


@pytest.mark.parametrize("chunk_bits", [20, 3, 1])
@pytest.mark.parametrize("n", [2, 3, 5, 9, 12])
def test_batched_counts_equal_scalar_counts(monkeypatch, n, chunk_bits):
    # 0.0 and -1.0 hit zero pivots (undecided -1), +-inf lie beyond every eigenvalue
    xs = [-1.3, 0.0, 0.21, -1.0, np.inf, -np.inf, FORBIDDEN_LO, n - 0.5]
    monkeypatch.setattr(threshold, "_CHUNK_BITS", chunk_bits)
    batch = _stitched(n, xs)
    for x, row in zip(xs, batch):
        assert np.array_equal(row, _stitched(n, [x])[0]), x
    assert (batch[1] == -1).all()


def test_batched_counts_keep_batches_small(monkeypatch):
    # one elimination holds at most two chunks of 2^_CHUNK_BITS graphs per x,
    # and the chunks come depth first: the lowest high bit varies last
    sizes = []
    eliminate = threshold._eliminate

    def record(*args):
        c, neg = eliminate(*args)
        sizes.append(c.size)
        return c, neg
    monkeypatch.setattr(threshold, "_eliminate", record)
    monkeypatch.setattr(threshold, "_CHUNK_BITS", 3)
    for n, xs in ((4, [0.5]), (7, [0.5]), (12, [0.1, 0.5, 0.9])):
        sizes.clear()
        chunks = [(m0, c.shape) for m0, c in threshold.inertia_chunks(n, xs)]
        assert max(sizes) == len(xs) * (1 << min(n - 2, 4)), n
        assert len(chunks) == 1 << max(n - 5, 0)
    assert [(m0, c.shape) for m0, c in threshold.inertia_chunks(7, [0.5])] == [
        (m0, (1, 8)) for m0 in (0, 16, 8, 24)]


def test_zero_pivot_is_undecided():
    # x = 0 is the pivot of the last vertex of every graph; -1 hits K_n's clique
    assert (_stitched(7, [0.0]) == -1).all()
    assert _stitched(5, [-1.0])[0, -1] == -1


@settings(max_examples=300, deadline=None)
@given(middle=st.lists(st.integers(0, 1), max_size=58),
       x=st.fractions(-10, 30, max_denominator=1000))
def test_count_matches_exact_elimination(middle, x):
    seq = (0, *middle, 1)
    x = float(x)
    c, neg = Fraction(0), 0
    for b in reversed(seq):
        d = c - Fraction(x)
        assume(d != 0)
        neg += d < 0
        c -= (b + c) ** 2 / d
    fc, fneg = np.zeros(1), np.zeros(1, dtype=np.int8)
    for b in reversed(seq):
        fc, fneg = threshold._eliminate(fc, fneg, x, b)
    assert np.isfinite(fc[0]) and fneg[0] == neg
    eigs = np.linalg.eigvalsh(adjacency_from_sequence(seq).astype(float))
    if np.min(np.abs(eigs - x)) >= 1e-6:
        assert np.sum(eigs < x) == neg
    if len(seq) <= 12:
        m = int("0" + "".join(map(str, middle)), 2)
        assert _stitched(len(seq), [x])[0, m] == neg


def _dense_report(n):
    """The scan report from the dense oracle on every graph: each extreme is
    the first graph in sequence order within TIE_TOL of the family's extreme."""
    rows = [(sequence_to_string(bits), *threshold._graph_stats(bits))
            for bits in enumerate_connected_threshold(n)]
    violations = [(row[0], v) for row in rows for v in row[1]]
    best = []
    for col, pick in ((2, min), (3, max)):
        values = [(row[0], row[col]) for row in rows if row[col] is not None]
        extreme = pick((v for _, v in values), default=None)
        best.append(next((p for p in values if abs(p[1] - extreme) <= threshold.TIE_TOL), None))
    _, anti_min, anti_max = threshold._graph_stats(antiregular_sequence(n))
    return threshold.ScanReport(n, 1 << (n - 2), violations, best[0], best[1], anti_min, anti_max)


@pytest.mark.parametrize("n", range(2, 13))
def test_scan_runs_each_graph_densely_once(monkeypatch, n):
    calls, stats = [], threshold._graph_stats
    monkeypatch.setattr(threshold, "_graph_stats", lambda bits: calls.append(bits) or stats(bits))
    omega_scan(n)
    assert antiregular_sequence(n) in calls
    assert len(calls) == len(set(calls))


def test_scan_equals_dense_scan():
    for n in range(2, 11):
        assert omega_scan(n).to_json() == _dense_report(n).to_json(), n


def test_negative_control_flags_every_violation(monkeypatch, capsys):
    # real eigenvalues between 0.207 and 0.3 now fall inside the interval
    monkeypatch.setattr(threshold, "FORBIDDEN_HI", 0.3)
    for n in range(2, 11):
        report, dense = omega_scan(n), _dense_report(n)
        assert report.omega_violations == dense.omega_violations, n
        assert report.to_json() == dense.to_json(), n
    assert len(omega_scan(10).omega_violations) == 43
    assert cli.main(["scan", "--n", "8"]) == cli.EXIT_CHECK_FAILED
    assert "forbidden-interval violations at n=8" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["window", "pivot"])
def test_faulty_counts_send_the_graph_to_the_dense_route(monkeypatch, fault):
    # graph m = 5 gets a window count off by one (its upper edge moved with
    # it), or undecided counts
    chunks = threshold.inertia_chunks

    def faulty(n, xs):
        for m0, counts in chunks(n, xs):
            if m0 <= 5 < m0 + counts.shape[1]:
                counts = counts.copy()
                if fault == "window":
                    counts[1:3, 5 - m0] += 1
                else:
                    counts[:, 5 - m0] = -1
            yield m0, counts
    monkeypatch.setattr(threshold, "inertia_chunks", faulty)
    reference = _dense_report(9).to_json()
    dense, stats = set(), threshold._graph_stats
    monkeypatch.setattr(threshold, "_graph_stats", lambda bits: dense.add(bits) or stats(bits))
    assert omega_scan(9).to_json() == reference
    assert dense == {antiregular_sequence(9), (0, 0, 0, 0, 0, 1, 0, 1, 1)}


def test_wide_ties_flag_near_extremes(monkeypatch):
    # at TIE_TOL 3e-3 and 3e-2 other graphs come within TIE_TOL of the family
    # extremes, and the dense route still names the graph the full scan names
    monkeypatch.setattr(threshold, "TIE_TOL", 3e-3)
    for n in range(3, 11):
        assert omega_scan(n).to_json() == _dense_report(n).to_json(), n
    monkeypatch.setattr(threshold, "TIE_TOL", 3e-2)
    for n in range(7, 11):
        assert omega_scan(n).to_json() == _dense_report(n).to_json(), n


def test_out_of_order_chunks_fold_in_sequence_order(monkeypatch):
    # four graphs per chunk: the flagged graphs near the extremes arrive
    # from chunks out of sequence order, and the fold still sees them in it
    monkeypatch.setattr(threshold, "_CHUNK_BITS", 2)
    monkeypatch.setattr(threshold, "TIE_TOL", 3e-3)
    for n in range(3, 11):
        assert omega_scan(n).to_json() == _dense_report(n).to_json(), n


def test_scan_does_not_depend_on_chunk_size(monkeypatch):
    chunked = omega_scan(20).to_json()
    monkeypatch.setattr(threshold, "_CHUNK_BITS", 20)
    assert omega_scan(20).to_json() == chunked


def test_scan_memory_stays_per_chunk():
    # a whole-order count array alone is 4 * 2^20 bytes at order 22
    tracemalloc.start()
    try:
        omega_scan(22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20, peak


def test_fold_names_first_graph_within_tie_of_extreme():
    tie = threshold.TIE_TOL
    rows = [("a", [], 0.5 + 0.9 * tie), ("b", [], 0.5), ("c", [], 0.5 - 1.1 * tie)]
    assert threshold._fold(rows[:2], 2, 1.0) == ("a", 0.5 + 0.9 * tie)
    assert threshold._fold(rows, 2, 1.0) == ("c", 0.5 - 1.1 * tie)
    assert threshold._fold([(s, [], -v) for s, _, v in rows], 2, -1.0)[0] == "c"
    # values about TIE_TOL apart: the first within TIE_TOL of the minimum f,
    # whatever the values between
    chain = [(s, [], 0.5 + k * tie) for s, k in zip("bcdef", (2.5, 2.0, 1.45, 0.98, 0.0))]
    assert threshold._fold(chain, 2, 1.0) == ("e", 0.5 + 0.98 * tie)
    assert threshold._fold([(s, [], None) for s, _, _ in rows], 2, 1.0) is None
