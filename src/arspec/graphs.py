"""Threshold graph matrices built from creation sequences.

A creation sequence is a bit tuple ``b`` of length n >= 2 with ``b[0] = 0``.
Reading left to right, bit i records whether vertex i joined the graph as a
dominating vertex (1, adjacent to every earlier vertex) or an isolated one
(0).  Since later dominating vertices connect to everything before them, the
adjacency entry for i != j is simply ``b[max(i, j)]``.  The graph is
connected exactly when the last bit is 1.

The anti-regular graph on n vertices is the special case with alternating
bits; it is the unique connected graph whose degree sequence repeats only a
single value.  Its even-order adjacency matrix is permutation-conjugate to a
2x2 block form whose inverse is known entrywise, both reproduced here.
"""

from __future__ import annotations

import numpy as np


def _check_sequence(bits) -> tuple[int, ...]:
    b = tuple(bits)
    if len(b) < 2:
        raise ValueError("creation sequence needs length >= 2, got %d" % len(b))
    # each value as given, so 0.5 or the digit "1" is refused, not truncated
    if any(x not in (0, 1) for x in b):
        raise ValueError("creation sequence bits must be 0 or 1")
    b = tuple(int(x) for x in b)
    if b[0] != 0:
        raise ValueError("creation sequence must start with 0")
    return b


def _check_adjacency(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency matrix must be square, got shape %r" % (a.shape,))
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency matrix must be symmetric")
    if np.any(np.diag(a) != 0):
        raise ValueError("adjacency matrix must have a zero diagonal")
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("adjacency entries must be 0 or 1")
    return a


def antiregular_sequence(n: int) -> tuple[int, ...]:
    """Creation sequence of the connected anti-regular graph on n vertices."""
    if n < 2:
        raise ValueError("anti-regular graphs need n >= 2, got %d" % n)
    if n % 2 == 0:
        return (0, 1) * (n // 2)
    return (0, 0, 1) + (0, 1) * (n // 2 - 1)


def adjacency_from_sequence(bits) -> np.ndarray:
    """0/1 adjacency matrix of the threshold graph with creation sequence bits."""
    b = _check_sequence(bits)
    arr = np.asarray(b, dtype=np.int64)
    idx = np.arange(len(b))
    a = arr[np.maximum.outer(idx, idx)]
    np.fill_diagonal(a, 0)
    return a


def antiregular_adjacency(n: int) -> np.ndarray:
    """Adjacency matrix of the anti-regular graph on n vertices."""
    return adjacency_from_sequence(antiregular_sequence(n))


def laplacian(a) -> np.ndarray:
    """Combinatorial Laplacian D - A."""
    a = _check_adjacency(a)
    return np.diag(a.sum(axis=1)) - a


def path_adjacency(m: int) -> np.ndarray:
    """Adjacency matrix of the path on m vertices (0/1 tridiagonal Toeplitz)."""
    if m < 1:
        raise ValueError("path needs at least one vertex, got %d" % m)
    a = np.zeros((m, m), dtype=np.int64)
    for i in range(m - 1):
        a[i, i + 1] = 1
        a[i + 1, i] = 1
    return a


def block_permutation(n: int) -> tuple[int, ...]:
    """Vertex relabeling that carries the even anti-regular graph to block form.

    Returns 1-based images: vertex v maps to image[v-1].  Counting vertices
    from 1 in creation order, the isolated-type vertex 2m+1 goes to position
    k-m and the dominating-type vertex 2m goes to position k+m, which sorts
    the independent set into the first k slots (by decreasing degree) and the
    clique into the last k (by increasing degree).
    """
    if n < 2 or n % 2:
        raise ValueError("block form exists for even n >= 2 only, got %d" % n)
    k = n // 2
    images = []
    for v in range(1, n + 1):
        if v % 2:
            images.append(k - (v - 1) // 2)
        else:
            images.append(k + v // 2)
    return tuple(images)


def apply_permutation(a, images) -> np.ndarray:
    """Conjugate a matrix by a vertex relabeling given as 1-based images.

    Entry (i, j) of the input lands at (images[i], images[j]) in the output,
    so the result is P A P^T for the permutation matrix P sending i to
    images[i].
    """
    a = np.asarray(a)
    n = a.shape[0]
    img = [int(x) - 1 for x in images]
    if sorted(img) != list(range(n)):
        raise ValueError("images must be a permutation of 1..%d" % n)
    out = np.empty_like(a)
    out[np.ix_(img, img)] = a
    return out


def block_adjacency(k: int) -> np.ndarray:
    """Block form of the anti-regular adjacency matrix on 2k vertices.

    Layout [[0, B], [B, J - I]] with B[i, j] = 1 iff i + j >= k - 1
    (0-based), i.e. ones on and below the anti-diagonal.
    """
    if k < 1:
        raise ValueError("block form needs k >= 1, got %d" % k)
    i = np.arange(k)
    b = (np.add.outer(i, i) >= k - 1).astype(np.int64)
    z = np.zeros((k, k), dtype=np.int64)
    jm = np.ones((k, k), dtype=np.int64) - np.eye(k, dtype=np.int64)
    return np.block([[z, b], [b, jm]])


def inverse_block_adjacency(k: int) -> np.ndarray:
    """Exact integer inverse of block_adjacency(k).

    Layout [[V, W], [W, 0]]: W carries 1 on the anti-diagonal and -1 just
    above it; V is tridiagonal with diagonal (2, ..., 2, 0) and -1 off the
    diagonal.  The product with block_adjacency(k) is the identity in exact
    integer arithmetic.
    """
    if k < 1:
        raise ValueError("block form needs k >= 1, got %d" % k)
    i = np.arange(k)
    s = np.add.outer(i, i)
    w = np.where(s == k - 1, 1, np.where(s == k - 2, -1, 0)).astype(np.int64)
    v = 2 * np.eye(k, dtype=np.int64)
    v[k - 1, k - 1] = 0
    for j in range(k - 1):
        v[j, j + 1] = -1
        v[j + 1, j] = -1
    z = np.zeros((k, k), dtype=np.int64)
    return np.block([[v, w], [w, z]])


def sequence_to_string(bits) -> str:
    """Compact digit-string form of a creation sequence, e.g. '0101'."""
    return "".join(str(x) for x in _check_sequence(bits))


def sequence_from_string(text: str) -> tuple[int, ...]:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError("creation sequence string must be nonempty over {0,1}")
    return _check_sequence(int(ch) for ch in text)

