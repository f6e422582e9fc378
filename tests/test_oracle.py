"""The dense eigensolver has to stand on its own, so these tests pin it
against hand-computable spectra, internal consistency identities and a
40-digit mpmath reference."""

import hashlib
import math
import sys
import warnings
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from arspec import oracle
from arspec.graphs import (
    adjacency_from_sequence,
    antiregular_adjacency,
    apply_permutation,
    inverse_block_adjacency,
    laplacian,
    path_adjacency,
)
from arspec.oracle import (
    ROUND_ROBIN_MIN_ORDER,
    ConvergenceError,
    char_poly_eval,
    jacobi_eigenvalues,
    quotient_eigenvalues,
)
from arspec.threshold import quotient_matrix, threshold_spectrum

# Orders on each side of the switch from Householder and QL to round-robin
# Jacobi sweeps; the odd ones sweep with a pad row and column.
BELOW, ABOVE = ROUND_ROBIN_MIN_ORDER - 1, ROUND_ROBIN_MIN_ORDER + 1


def test_single_edge():
    res = jacobi_eigenvalues([[0.0, 1.0], [1.0, 0.0]])
    assert res.order == 2
    assert res.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_star_on_three_vertices():
    a = adjacency_from_sequence((0, 0, 1)).astype(float)
    res = jacobi_eigenvalues(a)
    s = math.sqrt(2.0)
    assert res.eigenvalues == pytest.approx([-s, 0.0, s], abs=1e-10)


def test_star_on_four_vertices():
    a = adjacency_from_sequence((0, 0, 0, 1)).astype(float)
    res = jacobi_eigenvalues(a)
    s = math.sqrt(3.0)
    assert res.eigenvalues == pytest.approx([-s, 0.0, 0.0, s], abs=1e-10)


def test_diagonal_input_short_circuits():
    res = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert res.eigenvalues == [-1.0, 2.0, 3.0]
    assert res.sweeps == 0
    assert res.rotations == 0


def test_diagonal_input_short_circuits_above_the_crossover():
    d = [float((7 * i) % ABOVE) - 5.0 for i in range(ABOVE)]
    res = jacobi_eigenvalues(np.diag(d))
    assert res.eigenvalues == sorted(d)
    assert res.sweeps == 0
    assert res.rotations == 0


def test_two_by_two_closed_form():
    # eigenvalues of [[a, b], [b, c]] are ((a+c) +- sqrt((a-c)^2 + 4b^2)) / 2
    a, b, c = 1.3, -0.7, 0.2
    res = jacobi_eigenvalues([[a, b], [b, c]])
    disc = math.sqrt((a - c) ** 2 + 4.0 * b * b)
    want = sorted([(a + c - disc) / 2.0, (a + c + disc) / 2.0])
    assert res.eigenvalues == pytest.approx(want, abs=1e-12)


def test_trace_preserved():
    rng = np.random.default_rng(20260814)
    for n in (3, 8, BELOW, ABOVE, 40):
        m = rng.normal(size=(n, n))
        m = 0.5 * (m + m.T)
        res = jacobi_eigenvalues(m)
        assert abs(sum(res.eigenvalues) - float(np.trace(m))) <= 1e-9 * n


def test_eigenvalues_invariant_under_relabeling():
    a = antiregular_adjacency(9).astype(float)
    base = jacobi_eigenvalues(a).eigenvalues
    images = (3, 7, 1, 9, 2, 8, 4, 6, 5)
    shuffled = jacobi_eigenvalues(apply_permutation(a, images).astype(float))
    assert shuffled.eigenvalues == pytest.approx(base, abs=1e-10)


def test_eigenvalues_invariant_under_relabeling_above_the_crossover():
    n = 2 * ROUND_ROBIN_MIN_ORDER + 3
    a = antiregular_adjacency(n).astype(float)
    base = jacobi_eigenvalues(a).eigenvalues
    images = np.random.default_rng(20261018).permutation(n) + 1
    shuffled = jacobi_eigenvalues(apply_permutation(a, images).astype(float))
    assert shuffled.eigenvalues == pytest.approx(base, abs=1e-10)


def test_huge_entries_do_not_overflow_the_norm():
    # the squared norm of this matrix overflows; it used to come back [0, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = jacobi_eigenvalues([[0.0, 1e200], [1e200, 0.0]])
    assert res.eigenvalues == [-1e200, 1e200]


@pytest.mark.parametrize("sizes", [[1, 1], [4, 4]])
def test_quotient_entries_near_the_float_range_do_not_overflow(sizes):
    # rebalancing and symmetrising at the input's scale used to raise
    # "overflow encountered in add" ([1, 1]) and "... in multiply" ([4, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = quotient_eigenvalues([[0.0, 1e308], [1e308, 0.0]], sizes)
    assert res.eigenvalues == [-1e308, 1e308]


def _certified_inputs(n, rng):
    """(matrix, cell sizes) pairs of order n; the sizes are None for the
    symmetric matrices, and given for the quotient at even orders."""
    a = antiregular_adjacency(n)
    yield a, None
    yield laplacian(a), None
    for _ in range(4):
        b = adjacency_from_sequence((0, *rng.integers(0, 2, size=n - 2), 1))
        yield b, None
        yield laplacian(b), None
    for _ in range(3):
        m = rng.normal(size=(n, n))
        yield m + m.T, None
    if n % 2 == 0:
        yield quotient_matrix([tuple(r) for r in rng.integers(1, 6, size=(n // 2, 2))])


@pytest.mark.parametrize("n", range(2, ROUND_ROBIN_MIN_ORDER))
def test_eigenvalues_below_the_switch_match_a_40_digit_reference(n):
    # every eigenvalue within 8 eps ||A||_F of mpmath's eigsy at 40 digits,
    # where A is the symmetric matrix solved (D^1/2 M D^-1/2 for a quotient
    # M); the worst over these 189 matrices is 4.55 in those units for
    # Householder and QL, and was 2.62 for the cyclic Jacobi sweep
    rng = np.random.default_rng(3000 + n)
    for m, sizes in _certified_inputs(n, rng):
        m = np.asarray(m, dtype=float)
        with mpmath.workdps(40):
            if sizes is None:
                got = jacobi_eigenvalues(m).eigenvalues
                a = mpmath.matrix(m.tolist())
            else:
                got = quotient_eigenvalues(m, sizes).eigenvalues
                root = [mpmath.sqrt(c) for c in sizes]
                a = mpmath.matrix(n, n)
                for i in range(n):
                    for j in range(n):
                        a[i, j] = (m[i, j] * root[i] / root[j] + m[j, i] * root[j] / root[i]) / 2
            want = sorted(mpmath.eigsy(a, eigvals_only=True))
            bound = 8 * sys.float_info.epsilon * mpmath.mnorm(a, "f")
            errors = [abs(mpmath.mpf(x) - y) for x, y in zip(got, want)]
        assert max(errors) <= bound, (m, sizes, float(max(errors) / bound * 8))


@pytest.mark.parametrize("n", [2, 3, ROUND_ROBIN_MIN_ORDER + 1])
def test_eigenvalue_beyond_the_float_range_is_rejected(n):
    # the largest eigenvalue is n * 1e308; scaling it back used to return inf
    # with an "overflow encountered in ldexp" RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="beyond the float range"):
            jacobi_eigenvalues(np.full((n, n), 1e308))


def test_largest_eigenvalue_near_the_float_range_is_kept():
    n = ROUND_ROBIN_MIN_ORDER + 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = jacobi_eigenvalues(np.full((n, n), 1e307))
    assert res.eigenvalues[-1] == pytest.approx(n * 1e307, rel=1e-12)
    assert math.isfinite(res.eigenvalues[-1])


@pytest.mark.parametrize("tiny", [1e-200, 1e-300, 5e-324])
def test_tiny_entries_do_not_underflow_the_norm(tiny):
    # the squared norm of these matrices underflows to 0, which would stop
    # the sweeps before the first one; below the switch the 2 x 2 block is
    # solved in closed form, one rotation and no QL iteration
    swept = np.zeros((ABOVE, ABOVE))
    swept[0, 1] = swept[1, 0] = tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = jacobi_eigenvalues([[0.0, tiny], [tiny, 0.0]])
        big = jacobi_eigenvalues(swept)
    assert res.eigenvalues == [-tiny, tiny]
    assert (res.sweeps, res.rotations) == (0, 1)
    assert big.eigenvalues == [-tiny, *[0.0] * (ABOVE - 2), tiny]
    assert big.sweeps == 1


@pytest.mark.parametrize("n", [BELOW, ABOVE])
def test_power_of_two_scaling_is_exact(n):
    # a matrix times a power of two gives the same eigenvalues times that
    # power, bit for bit, on both sweep orders, near 1 and far from it alike
    a = antiregular_adjacency(n).astype(float)
    base = jacobi_eigenvalues(a).eigenvalues
    for e in (-600, -20, 20, 600):
        scaled = jacobi_eigenvalues(a * 2.0 ** e).eigenvalues
        assert scaled == [x * 2.0 ** e for x in base]


@pytest.mark.parametrize("e", [-600, -20, 0, 20, 600])
def test_symmetry_verdict_does_not_depend_on_scale(e):
    # asymmetry is judged against the largest entry; at 2^-20 it was judged
    # against 1, and these asymmetric matrices passed
    scale = 2.0 ** e
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [1.0 + 1e-10, 0.0]]) * scale)
    with pytest.raises(ValueError, match="not an equitable quotient"):
        quotient_eigenvalues(np.array([[0.0, 3.0 + 1e-7], [1.0, 0.0]]) * scale, [1, 3])
    single_edge = np.array([[0.0, 1.0], [1.0, 0.0]]) * scale
    assert jacobi_eigenvalues(single_edge).eigenvalues == [-scale, scale]
    star = quotient_eigenvalues(np.array([[0.0, 3.0], [1.0, 0.0]]) * scale, [1, 3])
    root = math.sqrt(3.0) * scale
    assert star.eigenvalues == pytest.approx([-root, root], rel=1e-15)


def test_rejects_asymmetric_and_bad_shapes():
    with pytest.raises(ValueError):
        jacobi_eigenvalues([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.zeros((0, 0)))


def _with_entry(n, i, j, value):
    a = path_adjacency(n).astype(float)
    a[i, j] = a[j, i] = value
    return a


@pytest.mark.parametrize("n", [3, ABOVE])
def test_nan_entries_are_rejected(n):
    # NaN used to run MAX_SWEEPS sweeps and end in a ConvergenceError
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigenvalues(_with_entry(n, 0, 2, math.nan))
    with pytest.raises(ValueError, match="non-finite"):
        quotient_eigenvalues(_with_entry(n, 1, 0, math.nan), [1] * n)
    with pytest.raises(ValueError, match="non-finite"):
        char_poly_eval(_with_entry(n, 1, 1, math.nan), 0.5)


@pytest.mark.parametrize("n", [3, ABOVE])
def test_infinite_diagonal_is_rejected(n):
    # an infinite diagonal entry used to come back as an eigenvalue
    for value in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigenvalues(_with_entry(n, 1, 1, value))
        with pytest.raises(ValueError, match="non-finite"):
            quotient_eigenvalues(_with_entry(n, 0, 0, value), [1] * n)
        with pytest.raises(ValueError, match="non-finite"):
            char_poly_eval(_with_entry(n, 2, 2, value), 0.0)


HERMITIAN = [[0.0, 1j], [-1j, 0.0]]  # eigenvalues -1 and 1


def test_jacobi_rejects_complex_input():
    # used to return [0.0, 0.0], the imaginary parts dropped, with only a
    # ComplexWarning; warnings as errors show the check comes before that
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="complex"):
            jacobi_eigenvalues(HERMITIAN)


def test_quotient_rejects_complex_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="complex"):
            quotient_eigenvalues(HERMITIAN, [1, 1])


def test_char_poly_rejects_complex_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="complex"):
            char_poly_eval(np.array(HERMITIAN), 0.5)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 10**400])
def test_char_poly_rejects_non_finite_t(t):
    # inf and nan used to return nan, inf with an "invalid value"
    # RuntimeWarning; 10**400 raised OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t must be finite"):
            char_poly_eval(np.eye(3), t)


def test_convergence_error_is_a_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)


@pytest.mark.parametrize("n", [BELOW, ABOVE])
def test_convergence_error_carries_its_context(monkeypatch, n):
    # a cap of one QL iteration per eigenvalue below the switch, and of one
    # sweep above it
    monkeypatch.setattr(oracle, "_QL_ITERATIONS", 1)
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as info:
        jacobi_eigenvalues(antiregular_adjacency(n).astype(float))
    err = info.value
    assert (err.order, err.sweeps) == (n, 1)
    if n < ROUND_ROBIN_MIN_ORDER:
        assert err.off_norm is None and err.target is None
        assert "1 on one eigenvalue, 1 in all" in str(err)
    else:
        assert err.off_norm > err.target > 0.0
        assert "after 1 sweeps" in str(err)


@pytest.mark.parametrize("n, off_norm, target", [(ABOVE, math.inf, 1.2e297)])
def test_convergence_error_reports_a_norm_beyond_the_float_range_as_inf(monkeypatch, n,
                                                                       off_norm, target):
    # scaling the order-ABOVE norm back used to raise numpy's "overflow
    # encountered in ldexp" RuntimeWarning in place of the ConvergenceError
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as info:
            jacobi_eigenvalues(antiregular_adjacency(n) * 1e308)
    assert (info.value.off_norm, info.value.target) == (off_norm, target)


@pytest.mark.parametrize("n", [3, BELOW, ABOVE])
def test_rotations_are_counted(n):
    res = jacobi_eigenvalues(path_adjacency(n).astype(float))
    assert res.rotations > 0


@pytest.mark.parametrize("n", [50, 70, 75])
def test_threshold_graphs_converge_despite_repeated_eigenvalues(n):
    # 0 and -1 repeat once per surplus vertex of a run; with every pair in
    # those clusters rotated as soon as it was nonzero these took 15 to 18
    # sweeps, and 8 to 11 with the cluster delay
    rng = np.random.default_rng(20261019 + n)
    for _ in range(3):
        bits = (0, *rng.integers(0, 2, size=n - 2), 1)
        res = jacobi_eigenvalues(adjacency_from_sequence(bits).astype(float))
        assert res.sweeps <= 12
        quotient = threshold_spectrum(bits, method="quotient")
        assert res.eigenvalues == pytest.approx(quotient, abs=1e-12)


@pytest.mark.parametrize("n", [5, 15, 16, 17, 64, 101])
def test_cluster_delay_leaves_antiregular_spectra_alone(monkeypatch, n):
    # no two eigenvalues of these matrices are within the delay cap, so no
    # pair is ever delayed: the results are those of a sweep without the rule
    a = antiregular_adjacency(n)
    for m in (a.astype(float), laplacian(a).astype(float)):
        got = jacobi_eigenvalues(m)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "CLUSTER_CAP", 0.0)
            assert jacobi_eigenvalues(m) == got


def test_quotient_single_cell():
    res = quotient_eigenvalues([[4.0]], [7])
    assert res.eigenvalues == [4.0]


def test_quotient_rebalances_asymmetric_counts():
    # one hub cell, one leaf cell of size 3: star K_{1,3}
    m = [[0.0, 3.0], [1.0, 0.0]]
    res = quotient_eigenvalues(m, [1, 3])
    s = math.sqrt(3.0)
    assert res.eigenvalues == pytest.approx([-s, s], abs=1e-10)


def test_quotient_rejects_inequitable_input():
    with pytest.raises(ValueError):
        quotient_eigenvalues([[0.0, 2.0], [3.0, 0.0]], [1, 1])
    with pytest.raises(ValueError):
        quotient_eigenvalues([[0.0, 1.0], [1.0, 0.0]], [1])
    with pytest.raises(ValueError):
        quotient_eigenvalues([[0.0, 1.0], [1.0, 0.0]], [1, 0])
    with pytest.raises(ValueError):
        quotient_eigenvalues([[0.0, 1.0], [1.0, 0.0]], [1.5, 1])
    for size in (math.inf, math.nan, 10**400):  # 10**400 is beyond the float range
        with pytest.raises(ValueError, match="cell sizes must be positive integers"):
            quotient_eigenvalues([[0.0, 1.0], [1.0, 0.0]], [size, 1])


def test_char_poly_at_eigenvalue_vanishes():
    assert char_poly_eval(np.eye(3), 1.0) == pytest.approx(0.0, abs=1e-12)
    # -1 is an eigenvalue of the order-8 block matrix, hence of its inverse
    assert char_poly_eval(inverse_block_adjacency(4).astype(float), -1.0) == pytest.approx(
        0.0, abs=1e-9
    )


def test_char_poly_matches_monomial_expansion():
    # det(tI - diag(d)) = prod (t - d_i)
    d = [2.0, -1.5, 0.25]
    for t in (-2.0, 0.0, 0.4, 3.0):
        want = 1.0
        for x in d:
            want *= t - x
        assert char_poly_eval(np.diag(d), t) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_char_poly_det_consistency_with_spectrum():
    a = antiregular_adjacency(6).astype(float)
    eigs = jacobi_eigenvalues(a).eigenvalues
    det = 1.0
    for lam in eigs:
        det *= -lam
    value = char_poly_eval(a, 0.0)
    if abs(det) > 1e-6:
        assert abs(value - det) <= 1e-6 * abs(det)


def test_char_poly_zero_pivot_short_circuit():
    assert char_poly_eval(np.zeros((3, 3)), 0.0) == 0.0


def test_path_spectrum_cosines():
    # 7 runs QL, 17, 40 and 41 sweep in round-robin order (odd: padded)
    assert 7 < ROUND_ROBIN_MIN_ORDER <= 17
    for m in (7, 17, 40, 41):
        res = jacobi_eigenvalues(path_adjacency(m).astype(float))
        want = sorted(2.0 * math.cos(j * math.pi / (m + 1)) for j in range(1, m + 1))
        assert res.eigenvalues == pytest.approx(want, abs=1e-10), m


@pytest.mark.parametrize("n", [ABOVE, 2 * ABOVE])
def test_complete_graph(n):
    res = jacobi_eigenvalues(np.ones((n, n)) - np.eye(n))
    assert res.eigenvalues == pytest.approx([-1.0] * (n - 1) + [n - 1.0], abs=1e-10)


class _AllocatingStack(NamedTuple):
    blocks: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    ends: np.ndarray
    app: np.ndarray
    apq: np.ndarray
    aqq: np.ndarray
    flat: np.ndarray

    @classmethod
    def of(cls, blocks):
        h = blocks.shape[1]
        pivots = blocks.reshape(3, -1)[:, ::h + 1]
        return cls(blocks, *blocks, pivots[::2], *pivots, blocks.reshape(-1))


def _allocating_round_robin_sweep(a, thresh, delay, zero_negligible):
    """The round-robin sweep with a fresh array for every step of a round,
    kept as the reference that the allocation-free sweep must match bit for
    bit."""
    n = a.shape[0]
    h = n // 2
    ring = np.r_[h, 1:h, n - 1:h:-1]
    step = np.arange(n)
    step[np.roll(ring, -1)] = ring
    top, bottom = step[:h, None], step[h:, None]

    def offset(u, v):
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        return np.where(hi < h, lo * h + hi, (h + lo) * h + hi - h)

    gather = np.concatenate([offset(top, top.T), offset(top, bottom.T),
                             offset(bottom, bottom.T)], axis=None)
    cur = _AllocatingStack.of(np.stack([a[:h, :h], a[:h, h:], a[h:, h:]]))
    nxt = _AllocatingStack.of(np.empty((3, h, h)))
    cs = np.empty((2, h))
    rotations = 0
    for _ in range(n - 1):
        blocks, x, y, z, ends, app, apq, aqq, _ = cur
        diff = aqq - app
        aq = np.abs(apq)
        rot = apq * apq > thresh
        if delay:
            rot &= np.maximum(aq, np.abs(diff)) > delay
        done = rot
        if zero_negligible:
            g = 100.0 * aq
            d = np.abs(ends)
            done = rot & (d + g != d).any(axis=0)
        count = int(np.count_nonzero(done))
        if count:
            twice = 2.0 * apq
            t = np.divide(twice, diff + np.copysign(np.hypot(diff, twice), diff),
                          out=np.zeros(h), where=done)
            np.divide(1.0, np.hypot(t, 1.0), out=cs[0])
            np.multiply(t, cs[0], out=cs[1])
            o = (cs[:, None, :, None] * cs[None, :, None, :]).reshape(4, h, h)
            cc, ss = o[0], o[3]
            xz = o[::3] * x + o[::-3] * z
            uw = o[1:3] * y
            uw += uw.transpose(0, 2, 1).copy()
            _, bx, by, bz, _, bpp, _, bqq, _ = nxt
            np.subtract(xz[0], uw[0], out=bx)
            np.add(xz[1], uw[1], out=bz)
            v = o[1:3] * blocks[::2]
            np.subtract(v[0], v[1], out=by)
            by += cc * y - (ss * y).T
            tapq = t * apq
            np.subtract(app, tapq, out=bpp)
            np.add(aqq, tapq, out=bqq)
            cur, nxt = nxt, cur
            rotations += count
        np.multiply(apq, ~rot, out=cur.apq)
        np.take(cur.blocks, gather, out=nxt.flat, mode="clip")
        cur, nxt = nxt, cur
    x, y, z = cur.blocks
    return np.block([[x, y], [y.T, z]]), rotations


# edges of graphs whose negated adjacency, -0.0 off the edges, needs a rotated
# pair's a_pq to become a zero of a_pq's sign: with +0.0 in its place the
# eigenvalues, and at orders 29 and 37 the rotation counts, come out different
_SIGNED_ZERO_GRAPHS = {
    19: ((3, 11), (3, 13), (3, 15), (4, 6), (4, 9), (4, 16), (6, 16), (8, 18)),
    29: ((3, 24), (5, 20), (7, 22), (11, 26), (14, 28), (24, 28), (26, 28)),
    31: ((3, 25), (5, 21), (7, 23), (9, 29), (16, 18), (25, 30)),
    36: ((7, 31), (9, 11), (9, 27), (11, 29), (18, 22), (31, 35)),
    37: ((11, 36), (13, 32), (14, 35), (15, 34), (20, 22), (35, 36)),
}


def _round_robin_inputs(n, rng):
    a = antiregular_adjacency(n)
    yield a.astype(float)
    yield laplacian(a).astype(float)
    yield a.astype(float) * 2.0 ** 600
    if n in _SIGNED_ZERO_GRAPHS:
        g = np.zeros((n, n))
        for p, q in _SIGNED_ZERO_GRAPHS[n]:
            g[p, q] = g[q, p] = 1.0
        yield -g
    for _ in range(2):
        bits = (0, *rng.integers(0, 2, size=n - 2), 1)
        b = adjacency_from_sequence(bits)
        yield b.astype(float)
        yield laplacian(b).astype(float)
        m = rng.normal(size=(n, n))
        yield m + m.T


@pytest.mark.parametrize("n", range(ROUND_ROBIN_MIN_ORDER, 42))
def test_round_robin_sweep_matches_allocating_rounds(monkeypatch, n):
    # repr tells -0.0 from 0.0, which == does not
    rng = np.random.default_rng(2000 + n)
    for m in _round_robin_inputs(n, rng):
        got = jacobi_eigenvalues(m)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_round_robin", lambda order: _allocating_round_robin_sweep)
            want = jacobi_eigenvalues(m)
        assert repr(got.eigenvalues) == repr(want.eigenvalues)
        assert (got.sweeps, got.rotations, repr(got.off_norm)) == (
            want.sweeps, want.rotations, repr(want.off_norm))


# orders of the pinned corpus: every order up to 64 on both sides of the
# switch, odd and even, and four of the sizes the dense checks reach
_PINNED_ORDERS = (*range(2, 65), 70, 75, 95, 120)


def _pinned_results(solved):
    """The corpus results at the orders n with solved(n).  The inputs of
    every order are drawn all the same, so each order's inputs do not
    depend on which orders are solved."""
    rng = np.random.default_rng(20261019)
    for n in _PINNED_ORDERS:
        a = antiregular_adjacency(n)
        b = adjacency_from_sequence((0, *rng.integers(0, 2, size=n - 2), 1))
        m = rng.normal(size=(n, n))
        m = m + m.T
        runs = [tuple(r) for r in rng.integers(1, 5, size=(n // 2, 2))] if n % 2 == 0 else None
        if not solved(n):
            continue
        for x in (a, laplacian(a), b, laplacian(b)):
            yield jacobi_eigenvalues(x.astype(float))
        yield jacobi_eigenvalues(m)
        # one power-of-two scaling per order, each way on both methods
        yield jacobi_eigenvalues(laplacian(b) * 2.0 ** (600 if n % 2 else -600))
        if runs:  # a quotient of order n
            yield quotient_eigenvalues(*quotient_matrix(runs))
        if n in _SIGNED_ZERO_GRAPHS:
            g = np.zeros((n, n))
            for p, q in _SIGNED_ZERO_GRAPHS[n]:
                g[p, q] = g[q, p] = 1.0
            yield jacobi_eigenvalues(-g)


def _digest(results) -> tuple[int, str]:
    # a SHA-256 over the repr, which tells -0.0 from 0.0, of every result: a
    # changed float operation, or a changed order of them, moves a last digit
    # somewhere in the corpus and so the digest
    digest = hashlib.sha256()
    count = 0
    for res in results:
        digest.update(repr((res.eigenvalues, res.sweeps, res.rotations,
                            res.off_norm)).encode())
        count += 1
    return count, digest.hexdigest()


def test_outputs_are_pinned():
    # the Jacobi results, from ROUND_ROBIN_MIN_ORDER up, including the
    # quotients that reach them through quotient_eigenvalues' own scaling;
    # computed while the cyclic sweep still ran below that order
    assert _digest(_pinned_results(lambda n: n >= ROUND_ROBIN_MIN_ORDER)) == (
        350, "23f56580797ac4ad2df468046a965d0ead38a2ebb044efbdff332d516943412d")


def test_outputs_below_the_switch_are_pinned():
    # the Householder and QL results at orders 2-15, computed when that
    # path replaced the cyclic sweep; both run on Python floats
    assert _digest(_pinned_results(lambda n: n < ROUND_ROBIN_MIN_ORDER)) == (
        91, "90cbfeb6226f5dad261ce5cd531a778b2aacd36b813bc3ade6d2313da4c804a0")
