"""Self-contained dense linear algebra used as ground truth.

The point of this module is independence: the trigonometric solver in
:mod:`arspec.solver` is cross-checked against eigenvalues computed here, so
nothing here may share code or algorithms with it.  No library eigensolver
or determinant routine is called; the three entry points are

``jacobi_eigenvalues``
    all eigenvalues of a real symmetric matrix, by Householder
    tridiagonalisation (J. ACM 5, 1958) and implicit QL with Wilkinson
    shifts (Bowdler, Martin, Reinsch and Wilkinson, Numer. Math. 11, 1968),
    on Python lists of rows and floats.  It keeps the name it had when it
    swept Jacobi rotations, because the benchmark harness looks it up by
    that name until it reads result counters instead (ROADMAP item 7),
``quotient_eigenvalues``
    eigenvalues of an equitable-partition quotient matrix, obtained by the
    diagonal similarity that restores symmetry before solving it as above,
``char_poly_eval``
    det(tI - M) via LU factorization with partial pivoting.

Every matrix is solved divided, exactly, by the power of two that puts its
largest entry in [1/2, 1), so no squared norm overflows or underflows, and
symmetry is judged relative to that entry, whatever the scale.

The reduction costs O(n^3) list operations and QL O(n^2) on top: A_n took
0.12 s at order 122 and 64 s at order 1000 on 2 cores (Python 3.11).  That
is the intended working range: this is an oracle for tests, not a
production eigensolver.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

SYMMETRY_TOL = 1e-12
QUOTIENT_SYMMETRY_TOL = 1e-9
_QL_ITERATIONS = 30  # per eigenvalue, as in EISPACK


class ConvergenceError(RuntimeError):
    """QL failed to converge within _QL_ITERATIONS iterations on one
    eigenvalue.

    Carries the matrix ``order`` and the QL iterations run in all as
    ``sweeps``.
    """

    def __init__(self, message: str, order: int | None = None, sweeps: int | None = None):
        super().__init__(message)
        self.order = order
        self.sweeps = sweeps


@dataclass
class EigenResult:
    """The eigenvalues of one matrix and the work that found them.

    ``sweeps`` counts QL iterations, ``rotations`` their plane rotations
    plus one for each 2 x 2 block solved in closed form, and ``off_norm`` is
    the Frobenius norm of the subdiagonal entries QL dropped as negligible;
    Householder reflections are not counted.
    """

    order: int
    eigenvalues: list[float] = field(default_factory=list)  # ascending
    sweeps: int = 0
    off_norm: float = 0.0
    rotations: int = 0


def _scale_back(x: float, shift: int) -> float:
    """x * 2^shift: exact, or +-inf beyond the float range."""
    try:
        return math.ldexp(x, shift)
    except OverflowError:
        return math.copysign(math.inf, x)


def _check_square(m) -> np.ndarray:
    a = np.asarray(m)
    if np.iscomplexobj(a):
        # converting to float would drop the imaginary parts
        raise ValueError("matrix must be real, got complex entries")
    a = a.astype(float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square, got shape %r" % (a.shape,))
    if a.shape[0] == 0:
        raise ValueError("matrix must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _normalised(a: np.ndarray) -> tuple[np.ndarray, float, int]:
    """a 2^-e, its largest entry max|a_ij| 2^-e and e = frexp(max|a_ij|)[1]
    (0 for the zero matrix), which puts that entry in [1/2, 1).  The
    division is exact for entries of at least 2^-1021 max|a_ij|."""
    amax, shift = math.frexp(float(np.max(np.abs(a))))
    return np.ldexp(a, -shift), amax, shift


def jacobi_eigenvalues(m) -> EigenResult:
    """All eigenvalues of a real symmetric matrix, ascending.

    The input counts as symmetric if max|a_ij - a_ji| <= SYMMETRY_TOL
    max|a_ij|.  Its symmetric part is solved divided by the power of two
    that puts its largest entry in [1/2, 1), which is exact and makes the
    verdict and the results independent of the scale, and the results are
    scaled back.

    The matrix is reduced to tridiagonal form by Householder reflections
    and solved by implicit QL (see ``_householder_ql``), accurate to a few
    eps ||A||_F: the tests hold every eigenvalue at orders 2-16, 20, 24, 32
    and 40 within 8 eps ||A||_F of a 40-digit reference.  Small eigenvalues
    are not relatively accurate: the least positive eigenvalue of A_n lies
    up to 43 ulps (A_11) from the double nearest its true value for
    n <= 15, and up to 136 (A_32) for n <= 40.  ``EigenResult`` counts QL's
    work.

    Raises ValueError for non-square, asymmetric, complex or non-finite
    input and for an eigenvalue beyond the float range, and ConvergenceError
    if QL reaches its cap.
    """
    a, amax, shift = _normalised(_check_square(m))
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_TOL * amax:
        raise ValueError("matrix is not symmetric (max asymmetry %.3e)" % _scale_back(asym, shift))
    a = 0.5 * (a + a.T)
    diag, sweeps, rotations, off = _householder_ql(a.tolist())
    eigs = sorted(_scale_back(x, shift) for x in diag)
    if math.isinf(eigs[0]) or math.isinf(eigs[-1]):
        raise ValueError("matrix has an eigenvalue beyond the float range (%r)"
                         % sys.float_info.max)
    return EigenResult(order=a.shape[0], eigenvalues=eigs, sweeps=sweeps,
                       off_norm=_scale_back(off, shift), rotations=rotations)


def _householder_ql(rows: list[list[float]]) -> tuple[list[float], int, int, float]:
    """Eigenvalues of a symmetric matrix given as its rows: the eigenvalues,
    unordered, the QL iterations and plane rotations run, and the Frobenius
    norm of the subdiagonal entries dropped as negligible, on both sides of
    the diagonal.

    Householder's reduction (J. ACM 5, 1958) clears column k below the
    subdiagonal, in the form of LAPACK's dlarfg and dsytd2: the reflection
    H = I - tau v v' with v = (1, x_1 / (x_0 - beta), ...) maps
    x = a[k+1:, k] to beta e_1, beta = -sign(x_0) ||x||, so x_0 - beta does
    not cancel, and the trailing block B becomes H B H = B - v w' - w v' with
    p = tau B v and w = p - (tau/2) (p' v) v.  Each entry subtracts
    v_i w_j + w_i v_j, whose two products are the same at (j, i), so the
    block stays exactly symmetric.  A column already zero below the
    subdiagonal is left as it is.  The reduction runs on Python lists: at
    the small orders the scans solve by the thousand a numpy call costs more
    than the row it updates, though from a few tens up a numpy rank-two
    update would be faster.  Its dot
    products are summed by math.fsum, which rounds correctly and so gives
    the same bits on every Python version, where sum() adds floats left to
    right up to 3.11 and with compensation from 3.12 on.
    """
    diag, sub = [], []
    mul, fsum = operator.mul, math.fsum
    while len(rows) > 1:
        head, *rest = rows
        x = head[1:]  # the column below the diagonal, by symmetry
        beta = x[0]
        rest = [row[1:] for row in rest]
        if any(x[1:]):
            beta = -math.copysign(math.hypot(*x), x[0])
            tau = (beta - x[0]) / beta
            v = [1.0, *(xi / (x[0] - beta) for xi in x[1:])]
            p = [tau * fsum(map(mul, row, v)) for row in rest]
            k = -0.5 * tau * fsum(map(mul, p, v))
            w = [pi + k * vi for pi, vi in zip(p, v)]
            rest = [[b - (vi * wj + wi * vj) for b, vj, wj in zip(row, v, w)]
                    for row, vi, wi in zip(rest, v, w)]
        diag.append(head[0])
        sub.append(beta)
        rows = rest
    diag.append(rows[0][0])
    return diag, *_ql(diag, sub)


def _ql(d: list[float], e: list[float]) -> tuple[int, int, float]:
    """Implicit QL with Wilkinson shifts on the symmetric tridiagonal matrix
    with diagonal d and subdiagonal e, after EISPACK's imtql1 (Bowdler,
    Martin, Reinsch and Wilkinson, Numer. Math. 11, 1968): d becomes the
    eigenvalues, unordered.  Returns the iterations and plane rotations run
    and the Frobenius norm of the subdiagonal entries dropped.

    Working down from l = 0, each step finds the first m >= l whose e_m is
    negligible and drops it.  e_m is negligible next to its own two
    diagonal neighbours, |d_m| + |d_m+1| + |e_m| == |d_m| + |d_m+1|, or next
    to the whole matrix, norm + |e_m| == norm with norm = max|d| + max|e|
    taken once on entry, the test of EISPACK's tql1.  The first test alone
    never passes inside a cluster of eigenvalues at 0, such as a threshold
    graph's repeated 0, where d and e both shrink to rounding level: from
    order 70 up some connected threshold adjacency matrices then ran out of
    iterations.

    At m = l, d_l is an eigenvalue.  At m = l + 1 the 2 x 2 block is solved
    in the closed form of LAPACK's dlaev2, counted as one rotation, which is
    exact for [[0, b], [b, 0]].  Otherwise one iteration chases a bulge from
    m up to l, shifted by the eigenvalue of the leading 2 x 2 block nearer
    d_l, with m - l rotations.  More than _QL_ITERATIONS iterations on one
    eigenvalue raise ConvergenceError, carrying the order and the
    iterations run in all.
    """
    n = len(d)
    e = [*e, 0.0]
    norm = max(map(abs, d)) + max(map(abs, e))
    iterations = rotations = 0
    dropped = 0.0
    hypot, copysign = math.hypot, math.copysign
    for l in range(n):
        tries = 0
        while True:
            for m in range(l, n - 1):
                tst = abs(d[m]) + abs(d[m + 1])
                if tst + abs(e[m]) == tst or norm + abs(e[m]) == norm:
                    dropped = hypot(dropped, e[m])
                    e[m] = 0.0
                    break
            else:
                m = n - 1
            if m == l:
                break
            if m == l + 1:
                d[l], d[l + 1] = _eig2(d[l], e[l], d[l + 1])
                e[l] = 0.0
                rotations += 1
                break
            if tries == _QL_ITERATIONS:
                raise ConvergenceError(
                    "QL iterations did not converge: %d on one eigenvalue, %d in all"
                    % (tries, iterations), order=n, sweeps=iterations)
            tries += 1
            iterations += 1
            p = d[l]
            g = (d[l + 1] - p) / (2.0 * e[l])
            g = d[m] - p + e[l] / (g + copysign(hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # an underflow split the block at i + 1
                    d[i + 1] -= p
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                rotations += 1
            else:
                d[l] -= p
                e[l] = g
            e[m] = 0.0
    return iterations, rotations, math.sqrt(2.0) * dropped


def _eig2(a: float, b: float, c: float) -> tuple[float, float]:
    """The eigenvalues of [[a, b], [b, c]] as LAPACK's dlaev2 computes them:
    the one of larger magnitude by the half of the quadratic formula that
    does not cancel, the other from the determinant."""
    sm = a + c
    adf = abs(a - c)
    ab = abs(b + b)
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    if adf > ab:
        q = ab / adf
        rt = adf * math.sqrt(1.0 + q * q)
    elif adf < ab:
        q = adf / ab
        rt = ab * math.sqrt(1.0 + q * q)
    else:
        rt = ab * math.sqrt(2.0)
    if sm == 0.0:
        return 0.5 * rt, -0.5 * rt
    rt1 = 0.5 * (sm + math.copysign(rt, sm))
    return rt1, (acmx / rt1) * acmn - (b / rt1) * b


def quotient_eigenvalues(m, cell_sizes) -> EigenResult:
    """Eigenvalues of an equitable-partition quotient matrix.

    ``m[i][j]`` holds the number of neighbors a vertex of cell i has inside
    cell j, and ``cell_sizes`` the cell cardinalities.  Such a matrix is not
    symmetric, but conjugating by diag(sqrt(sizes)) restores symmetry:
    S = D^(1/2) M D^(-1/2).  If max|s_ij - s_ji| exceeds QUOTIENT_SYMMETRY_TOL
    max|s_ij|, the input did not come from an equitable partition, which is
    reported as a ValueError rather than silently returning wrong eigenvalues.

    M is divided by the power of two that puts its largest entry in
    [1/2, 1) before the similarity, S is symmetrised as S/2 + S'/2, and the
    result is multiplied back by that power of two, which
    jacobi_eigenvalues divides out again, so entries near the float range
    neither overflow nor lose a bit: every step is exact for normal numbers.
    """
    a = _check_square(m)
    sizes = list(cell_sizes)
    if len(sizes) != a.shape[0]:
        raise ValueError(
            "got %d cell sizes for order %d" % (len(sizes), a.shape[0])
        )
    # the float range first: int(inf) raises and float(10**400) overflows
    if any(not 1 <= s <= sys.float_info.max or s != int(s) for s in sizes):
        raise ValueError("cell sizes must be positive integers")
    d = np.sqrt(np.asarray(sizes, dtype=float))
    a, _, shift = _normalised(a)
    sym = a * d[:, None] / d[None, :]
    asym = float(np.max(np.abs(sym - sym.T)))
    if asym > QUOTIENT_SYMMETRY_TOL * float(np.max(np.abs(sym))):
        raise ValueError("matrix is not an equitable quotient: rebalanced asymmetry %.3e"
                         % _scale_back(asym, shift))
    # solved through jacobi_eigenvalues, at the input's scale, so that the
    # benchmark's tracer, which wraps it, counts every dense solve
    return jacobi_eigenvalues(np.ldexp(0.5 * sym + 0.5 * sym.T, shift))


def char_poly_eval(m, t: float) -> float:
    """Evaluate det(tI - M) by LU factorization with partial pivoting.

    The determinant is the product of pivots times the sign of the row
    permutation; an exactly zero pivot short-circuits to 0.0.  Raises
    ValueError for a t that is not a finite float: inf, nan, or an integer
    such as 10**400 beyond the float range.
    """
    a = _check_square(m)
    # the range first: float(10**400) overflows, and nan fails both tests
    if not -sys.float_info.max <= t <= sys.float_info.max:
        raise ValueError("t must be finite and within the float range")
    t = float(t)
    n = a.shape[0]
    a = t * np.eye(n) - a
    sign = 1.0
    det = 1.0
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot_row, col] == 0.0:
            return 0.0
        if pivot_row != col:
            a[[col, pivot_row], :] = a[[pivot_row, col], :]
            sign = -sign
        pivot = a[col, col]
        det *= pivot
        if col + 1 < n:
            factors = a[col + 1 :, col] / pivot
            a[col + 1 :, col + 1 :] -= np.outer(factors, a[col, col + 1 :])
    return sign * det
