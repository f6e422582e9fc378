import json
import math

import numpy as np
import pytest

from arspec.graphs import adjacency_from_sequence, antiregular_sequence
from arspec.solver import solve_spectrum
from arspec.threshold import (
    RunLengthSequence,
    enumerate_connected_threshold,
    extremal_scan,
    omega_scan,
    quotient_matrix,
    run_length_encode,
    threshold_spectrum,
    _resolve_workers,
)


def test_run_length_encoding_examples():
    assert run_length_encode((0, 1, 0, 1, 0, 1)).runs == ((1, 1), (1, 1), (1, 1))
    assert run_length_encode((0, 0, 1, 1)).runs == ((2, 2),)
    assert run_length_encode((0, 0, 1, 0, 1)).runs == ((2, 1), (1, 1))


def test_run_length_rejects_disconnected():
    with pytest.raises(ValueError):
        run_length_encode((0, 1, 0))
    with pytest.raises(ValueError):
        run_length_encode((0, 0))


def test_run_length_expand_round_trip():
    for bits in ((0, 1), (0, 0, 1, 0, 1), (0, 1, 1, 0, 0, 1), (0, 0, 0, 1, 1)):
        rl = run_length_encode(bits)
        assert rl.expand() == bits
        assert rl.n == len(bits)


def test_run_length_validation():
    with pytest.raises(ValueError):
        RunLengthSequence(runs=())
    with pytest.raises(ValueError):
        RunLengthSequence(runs=((0, 1),))  # first zero-run empty
    with pytest.raises(ValueError):
        RunLengthSequence(runs=((1, 0),))  # one-run empty


def test_quotient_matrix_two_cells():
    rl = run_length_encode((0, 0, 1, 1))
    matrix, sizes = quotient_matrix(rl)
    assert sizes == [2, 2]
    assert np.array_equal(matrix, np.array([[0.0, 2.0], [2.0, 1.0]]))


def test_quotient_matrix_odd_antiregular():
    # nine vertices: independent cell of size 2, all other cells singletons
    rl = run_length_encode(antiregular_sequence(9))
    matrix, sizes = quotient_matrix(rl)
    assert sizes == [2, 1, 1, 1, 1, 1, 1, 1]
    assert matrix.shape == (8, 8)
    # column scaling doubles the first column of the alternating pattern
    assert list(matrix[:, 0]) == [0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0]
    assert list(matrix[0]) == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


def test_quotient_matrix_even_antiregular_is_adjacency():
    for k in range(1, 7):
        rl = run_length_encode(antiregular_sequence(2 * k))
        matrix, sizes = quotient_matrix(rl)
        assert sizes == [1] * (2 * k)
        assert np.array_equal(
            matrix, adjacency_from_sequence(antiregular_sequence(2 * k)).astype(float)
        )


def test_quotient_matrix_drops_empty_cells():
    rl = RunLengthSequence(runs=((1, 1), (0, 2)))  # expands to 0111, complete graph
    matrix, sizes = quotient_matrix(rl)
    assert 0 not in sizes
    assert matrix.shape == (len(sizes), len(sizes))
    eigs = threshold_spectrum(rl.expand(), method="quotient")
    assert eigs == pytest.approx([-1.0, -1.0, -1.0, 3.0], abs=1e-10)


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
        list(enumerate_connected_threshold(27))


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


def test_cached_scan_reports_are_not_shared():
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
        extremal_scan(27)


def test_worker_resolution(monkeypatch):
    monkeypatch.delenv("ARSPEC_THREADS", raising=False)
    assert _resolve_workers(None) == 1
    assert _resolve_workers(3) == 3
    monkeypatch.setenv("ARSPEC_THREADS", "2")
    assert _resolve_workers(None) == 2
    assert _resolve_workers(8) == 2  # env caps explicit requests
    monkeypatch.setenv("ARSPEC_THREADS", "0")
    with pytest.raises(ValueError):
        _resolve_workers(None)
    monkeypatch.setenv("ARSPEC_THREADS", "4")
    with pytest.raises(ValueError):
        _resolve_workers(0)
