"""The dense eigensolver has to stand on its own, so these tests pin it
against hand-computable spectra, internal consistency identities and a
40-digit mpmath reference."""

import hashlib
import math
import sys
import tracemalloc
import warnings

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
    ConvergenceError,
    char_poly_eval,
    jacobi_eigenvalues,
    quotient_eigenvalues,
)
from arspec.threshold import quotient_matrix, threshold_spectrum


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
    # "crossover" names the order-16 switch to Jacobi sweeps the oracle once had
    d = [float((7 * i) % 17) - 5.0 for i in range(17)]
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


def test_two_by_two_tie_of_the_diagonal_gap_and_twice_b():
    # scaled by 1/2 to a = 1/2, b = 1/4, c = 0, so |a - c| = |2b| and the
    # closed form takes its tie branch, rt = |2b| sqrt(2)
    res = jacobi_eigenvalues([[1.0, 0.5], [0.5, 0.0]])
    with mpmath.workdps(40):
        want = [(1 - mpmath.sqrt(2)) / 2, (1 + mpmath.sqrt(2)) / 2]
        for got, exact in zip(res.eigenvalues, want):
            assert abs(got - exact) <= math.ulp(float(exact))


def test_trace_preserved():
    rng = np.random.default_rng(20260814)
    for n in (3, 8, 15, 17, 40):
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
    # "crossover" names the order-16 switch to Jacobi sweeps the oracle once had
    n = 35
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


@pytest.mark.parametrize("n", [*range(2, 17), 20, 24, 32, 40])
def test_eigenvalues_below_the_switch_match_a_40_digit_reference(n):
    # "the switch" is the order-16 switch to Jacobi sweeps the oracle once
    # had.  Every eigenvalue is within 8 eps ||A||_F of mpmath's eigsy at 40
    # digits, where A is the symmetric matrix solved (D^1/2 M D^-1/2 for a
    # quotient M); the worst over these 259 matrices is 6.04 in those units,
    # at order 40, and 4.15 at orders 2-15
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


@pytest.mark.parametrize("n", [2, 3, 17])
def test_eigenvalue_beyond_the_float_range_is_rejected(n):
    # the largest eigenvalue is n * 1e308; scaling it back used to return inf
    # with an "overflow encountered in ldexp" RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="beyond the float range"):
            jacobi_eigenvalues(np.full((n, n), 1e308))


def test_largest_eigenvalue_near_the_float_range_is_kept():
    n = 17
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = jacobi_eigenvalues(np.full((n, n), 1e307))
    assert res.eigenvalues[-1] == pytest.approx(n * 1e307, rel=1e-12)
    assert math.isfinite(res.eigenvalues[-1])


@pytest.mark.parametrize("tiny", [1e-200, 1e-300, 5e-324])
def test_tiny_entries_do_not_underflow_the_norm(tiny):
    # the squared norm of these matrices underflows to 0; the 2 x 2 block is
    # solved in closed form, one rotation and no QL iteration
    padded = np.zeros((17, 17))
    padded[0, 1] = padded[1, 0] = tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = jacobi_eigenvalues([[0.0, tiny], [tiny, 0.0]])
        big = jacobi_eigenvalues(padded)
    assert res.eigenvalues == [-tiny, tiny]
    assert (res.sweeps, res.rotations) == (0, 1)
    assert big.eigenvalues == [-tiny, *[0.0] * 15, tiny]


@pytest.mark.parametrize("n", [15, 17])
def test_power_of_two_scaling_is_exact(n):
    # a matrix times a power of two gives the same eigenvalues times that
    # power, bit for bit, near 1 and far from it alike
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


def _solved(a):
    result = jacobi_eigenvalues(a)
    return repr((result.eigenvalues, result.sweeps, result.rotations, result.off_norm))


def test_nearly_symmetric_input_solves_as_its_average():
    # a bitwise symmetric matrix is solved as given, any other one as its
    # average: -0.0 above the diagonal against +0.0 below, or entries apart
    # by less than SYMMETRY_TOL, give the bits of their average passed in.
    # The zeros sit where Householder takes the sign of its reflection from
    # them.  Every largest entry lies in [2, 4), so all share one power of two
    rng = np.random.default_rng(11)
    upper = np.triu(rng.uniform(2.0, 3.5, (7, 7)))
    upper[0, 1] = upper[2, 3] = upper[1, 5] = 0.0
    sym = upper + np.triu(upper, 1).T
    signed = sym.copy()
    signed[np.triu(sym == 0.0, 1)] = -0.0
    assert (np.signbit(signed) != np.signbit(signed.T)).any()
    skewed = sym.copy()
    skewed[0, 1:] *= 1.0 + 1e-13
    assert 0 < np.max(np.abs(skewed - skewed.T)) <= oracle.SYMMETRY_TOL * np.max(skewed)
    for a in (signed, skewed):
        average = 0.5 * (a + a.T)
        assert math.frexp(np.max(a))[1] == math.frexp(np.max(average))[1] == 2
        assert _solved(a) == _solved(average)
    # past the tolerance the verdict and its message are as before
    past = sym.copy()
    past[0, 1] = sym[1, 0] + 2.0 ** -30
    with pytest.raises(ValueError, match=r"not symmetric \(max asymmetry 9\.313e-10\)"):
        jacobi_eigenvalues(past)


def _with_entry(n, i, j, value):
    a = path_adjacency(n).astype(float)
    a[i, j] = a[j, i] = value
    return a


@pytest.mark.parametrize("n", [3, 17])
def test_nan_entries_are_rejected(n):
    # NaN used to run the iteration cap and end in a ConvergenceError
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigenvalues(_with_entry(n, 0, 2, math.nan))
    with pytest.raises(ValueError, match="non-finite"):
        quotient_eigenvalues(_with_entry(n, 1, 0, math.nan), [1] * n)
    with pytest.raises(ValueError, match="non-finite"):
        char_poly_eval(_with_entry(n, 1, 1, math.nan), 0.5)


@pytest.mark.parametrize("n", [3, 17])
def test_infinite_diagonal_is_rejected(n):
    # an infinite diagonal entry used to come back as an eigenvalue
    for value in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigenvalues(_with_entry(n, 1, 1, value))
        with pytest.raises(ValueError, match="non-finite"):
            quotient_eigenvalues(_with_entry(n, 0, 0, value), [1] * n)
        with pytest.raises(ValueError, match="non-finite"):
            char_poly_eval(_with_entry(n, 2, 2, value), 0.0)


@pytest.mark.parametrize("n", [3, 17])
def test_infinite_off_diagonal_is_rejected(n):
    # the scale's max|a_ij| decides finiteness too: -inf enters it as inf
    for value in (-math.inf, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigenvalues(_with_entry(n, 0, n - 1, value))
        with pytest.raises(ValueError, match="non-finite"):
            quotient_eigenvalues(_with_entry(n, n - 1, 1, value), [1] * n)
        with pytest.raises(ValueError, match="non-finite"):
            char_poly_eval(_with_entry(n, 1, 2, value), 0.5)


def test_quotient_reports_non_finite_entries_before_cell_sizes():
    with pytest.raises(ValueError, match="non-finite"):
        quotient_eigenvalues([[0.0, math.nan], [1.0, 0.0]], [1.5, 1])


def test_entries_beyond_the_float_range_are_rejected():
    # converting 10**400 to a float raised OverflowError
    big = [[0, 10**400], [10**400, 0]]
    with pytest.raises(ValueError, match="beyond the float range"):
        jacobi_eigenvalues(big)
    with pytest.raises(ValueError, match="beyond the float range"):
        quotient_eigenvalues(big, [1, 1])
    with pytest.raises(ValueError, match="beyond the float range"):
        char_poly_eval([[0, -10**400], [-10**400, 0]], 0.5)


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


@pytest.mark.parametrize("n", [15, 17])
def test_convergence_error_carries_its_context(monkeypatch, n):
    # a cap of one QL iteration per eigenvalue
    monkeypatch.setattr(oracle, "_QL_ITERATIONS", 1)
    with pytest.raises(ConvergenceError) as info:
        jacobi_eigenvalues(antiregular_adjacency(n).astype(float))
    err = info.value
    assert (err.order, err.sweeps) == (n, 1)
    assert "1 on one eigenvalue, 1 in all" in str(err)


@pytest.mark.parametrize("n", [3, 15, 17])
def test_rotations_are_counted(n):
    res = jacobi_eigenvalues(path_adjacency(n).astype(float))
    assert res.rotations > 0


# a connected threshold graph of order 70 whose adjacency matrix ran out of
# QL iterations while deflation compared each subdiagonal entry only with
# its two diagonal neighbours
_STALLED_SEQUENCE = "0000000000100000001001011101010111110101000011111001111001000101100101"


@pytest.mark.parametrize("n", [50, 70, 75, 100, 120])
def test_threshold_graphs_converge_despite_repeated_eigenvalues(n):
    # 0 repeats once per surplus independent vertex; inside that cluster the
    # diagonal and subdiagonal of the tridiagonal form shrink to rounding
    # level together, and only a norm-relative deflation test drops them
    rng = np.random.default_rng(20261019 + n)
    sequences = [(0, *rng.integers(0, 2, size=n - 2), 1) for _ in range(6)]
    if n == len(_STALLED_SEQUENCE):
        sequences.append(tuple(map(int, _STALLED_SEQUENCE)))
    for bits in sequences:
        res = jacobi_eigenvalues(adjacency_from_sequence(bits).astype(float))
        quotient = threshold_spectrum(bits, method="quotient")
        assert res.eigenvalues == pytest.approx(quotient, abs=1e-12)


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
    for m in (7, 17, 40, 41):
        res = jacobi_eigenvalues(path_adjacency(m).astype(float))
        want = sorted(2.0 * math.cos(j * math.pi / (m + 1)) for j in range(1, m + 1))
        assert res.eigenvalues == pytest.approx(want, abs=1e-10), m


@pytest.mark.parametrize("n", [17, 34])
def test_complete_graph(n):
    res = jacobi_eigenvalues(np.ones((n, n)) - np.eye(n))
    assert res.eigenvalues == pytest.approx([-1.0] * (n - 1) + [n - 1.0], abs=1e-10)


def test_reduction_holds_one_copy_of_the_matrix():
    # the rows of A_100 as Python floats take about 0.3 MiB and the peak
    # reads 0.39 MiB; a second copy of the trailing block would pass 0.5
    a = antiregular_adjacency(100)
    tracemalloc.start()
    try:
        jacobi_eigenvalues(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19


@pytest.mark.parametrize("as_list", [False, True])
def test_solvers_leave_the_input_alone(as_list):
    a = antiregular_adjacency(20).astype(float)
    q, sizes = quotient_matrix([(1, 2), (3, 1), (2, 2)])
    for solve, m, args in ((jacobi_eigenvalues, a, ()), (quotient_eigenvalues, q, (sizes,))):
        given = m.tolist() if as_list else m.copy()
        solve(given, *args)
        assert (given == m.tolist()) if as_list else np.array_equal(given, m)


# edges of graphs whose negated adjacency, -0.0 off the edges, puts signed
# zeros into the pinned corpus
_SIGNED_ZERO_GRAPHS = {
    19: ((3, 11), (3, 13), (3, 15), (4, 6), (4, 9), (4, 16), (6, 16), (8, 18)),
    29: ((3, 24), (5, 20), (7, 22), (11, 26), (14, 28), (24, 28), (26, 28)),
    31: ((3, 25), (5, 21), (7, 23), (9, 29), (16, 18), (25, 30)),
    36: ((7, 31), (9, 11), (9, 27), (11, 29), (18, 22), (31, 35)),
    37: ((11, 36), (13, 32), (14, 35), (15, 34), (20, 22), (35, 36)),
}


# orders of the pinned corpus: every order up to 64, odd and even, and four
# of the sizes the dense checks reach
_PINNED_ORDERS = (*range(2, 65), 70, 75, 95, 120)

# the order below which the corpus has a digest of its own: the solver once
# switched methods there, and the two halves keep their separate pins
_SWITCH_ORDER = 16


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
        # one power-of-two scaling per order, up at odd orders, down at even
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
    # the results from _SWITCH_ORDER up, including the quotients that reach
    # the solver through quotient_eigenvalues' own scaling
    assert _digest(_pinned_results(lambda n: n >= _SWITCH_ORDER)) == (
        350, "b1639b34aee68916a34236d7e820ac4c8ec92835260a98436324c4196940307f")


def test_outputs_below_the_switch_are_pinned():
    # the results at orders 2-15
    assert _digest(_pinned_results(lambda n: n < _SWITCH_ORDER)) == (
        91, "083739d19013bc0312db21c6db82e2270ad4f7c1ddf85d93a29ac195c497a2a6")
