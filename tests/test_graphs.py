"""Construction-level checks: sequences, matrices, relabelings, sequence strings."""

import numpy as np
import pytest

from arspec.graphs import (
    adjacency_from_sequence,
    antiregular_adjacency,
    antiregular_sequence,
    apply_permutation,
    block_adjacency,
    block_permutation,
    inverse_block_adjacency,
    laplacian,
    path_adjacency,
    sequence_from_string,
    sequence_to_string,
)


def test_antiregular_sequences_small():
    assert antiregular_sequence(2) == (0, 1)
    assert antiregular_sequence(3) == (0, 0, 1)
    assert antiregular_sequence(4) == (0, 1, 0, 1)
    assert antiregular_sequence(5) == (0, 0, 1, 0, 1)
    assert antiregular_sequence(8) == (0, 1) * 4
    with pytest.raises(ValueError):
        antiregular_sequence(1)


def test_adjacency_entry_rule():
    bits = (0, 1, 0, 1)
    a = adjacency_from_sequence(bits)
    n = len(bits)
    for i in range(n):
        for j in range(n):
            expected = 0 if i == j else bits[max(i, j)]
            assert a[i, j] == expected


def test_adjacency_rejects_bad_sequences():
    for bad in ((1, 0), (0,), (0, 2), (), (0, 0.5, 1), "0011"):
        with pytest.raises(ValueError):
            adjacency_from_sequence(bad)


def test_degree_sequence_antiregular():
    # one repeated degree, everything else distinct
    def degrees(n):
        return sorted(antiregular_adjacency(n).sum(axis=1).tolist(), reverse=True)

    assert degrees(8) == [7, 6, 5, 4, 4, 3, 2, 1]
    assert degrees(7) == [6, 5, 4, 3, 3, 2, 1]
    for n in range(2, 20):
        degs = degrees(n)
        assert len(degs) - len(set(degs)) == 1


def test_laplacian_rows_sum_to_zero():
    a = antiregular_adjacency(9)
    lap = laplacian(a)
    assert np.all(lap.sum(axis=1) == 0)
    assert np.array_equal(np.diag(lap), a.sum(axis=1))


@pytest.mark.parametrize("a, message", [
    (np.zeros((2, 3), dtype=int), "must be square"),
    (np.array([[0, 1], [0, 0]]), "must be symmetric"),
    (np.array([[1, 1], [1, 0]]), "zero diagonal"),
    (np.array([[0, 2], [2, 0]]), "must be 0 or 1"),
])
def test_laplacian_rejects_non_adjacency(a, message):
    with pytest.raises(ValueError, match=message):
        laplacian(a)


def test_path_adjacency_shape():
    a = path_adjacency(5)
    assert a.sum() == 8
    assert np.array_equal(a, a.T)
    with pytest.raises(ValueError):
        path_adjacency(0)


def test_block_permutation_images():
    assert block_permutation(2) == (1, 2)
    assert block_permutation(8) == (4, 5, 3, 6, 2, 7, 1, 8)
    with pytest.raises(ValueError):
        block_permutation(7)
    with pytest.raises(ValueError):
        block_permutation(0)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12, 20, 50])
def test_conjugation_reaches_block_form(n):
    a = antiregular_adjacency(n)
    images = block_permutation(n)
    assert np.array_equal(apply_permutation(a, images), block_adjacency(n // 2))


def test_apply_permutation_validates_images():
    a = antiregular_adjacency(4)
    with pytest.raises(ValueError):
        apply_permutation(a, (1, 2, 3, 3))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 40])
def test_block_inverse_is_exact(k):
    a = block_adjacency(k)
    inv = inverse_block_adjacency(k)
    assert a.dtype == np.int64 and inv.dtype == np.int64
    assert np.array_equal(a @ inv, np.eye(2 * k, dtype=np.int64))
    assert np.array_equal(inv @ a, np.eye(2 * k, dtype=np.int64))


def test_block_forms_need_k_at_least_1():
    with pytest.raises(ValueError):
        block_adjacency(0)
    with pytest.raises(ValueError):
        inverse_block_adjacency(0)


def test_block_adjacency_k1_is_single_edge():
    assert np.array_equal(block_adjacency(1), np.array([[0, 1], [1, 0]]))
    # its inverse is itself
    assert np.array_equal(inverse_block_adjacency(1), block_adjacency(1))


def test_sequence_string_round_trip():
    bits = antiregular_sequence(9)
    assert sequence_to_string(bits) == "001010101"
    assert sequence_from_string("001010101") == bits
    with pytest.raises(ValueError):
        sequence_from_string("01x1")
    with pytest.raises(ValueError):
        sequence_from_string("")

