"""Self-contained dense linear algebra used as ground truth.

The point of this module is independence: the trigonometric solver in
:mod:`arspec.solver` is cross-checked against eigenvalues computed here, so
nothing here may share code or algorithms with it.  No library eigensolver
or determinant routine is called; the three entry points are

``jacobi_eigenvalues``
    Jacobi rotations with the classical threshold strategy, for real
    symmetric matrices: cyclic-by-row order one pair at a time, on Python
    lists of rows, below order ROUND_ROBIN_MIN_ORDER, and from there up the
    round-robin order of Brent and Luk (SIAM J. Sci. Stat. Comput. 6, 1985),
    which rotates n/2 disjoint pairs per elementwise numpy step after padding
    an odd order by one zero row and column, each step a ufunc bound once per
    call writing into work arrays made once per call, so that a round costs
    its numpy calls and little else,
``quotient_eigenvalues``
    eigenvalues of an equitable-partition quotient matrix, obtained by the
    diagonal similarity that restores symmetry before calling Jacobi,
``char_poly_eval``
    det(tI - M) via LU factorization with partial pivoting.

Jacobi sweeps every matrix divided, exactly, by the power of two that puts
its largest entry in [1/2, 1), so no squared norm overflows or underflows,
and it judges symmetry relative to that entry, whatever the scale.

Jacobi is quadratically convergent once off-diagonal mass is small; with
the threshold strategy matrices up to order ~1000 converge in well under
the 100-sweep cap.  That is the intended working range: this is an oracle
for tests, not a production eigensolver.

Threshold graphs repeat 0 once per surplus independent vertex and -1 once
per surplus clique vertex.  Inside such a cluster of equal eigenvalues the
diagonal entries agree to rounding, so rotating a tiny a_pq there turns
rows p and q by 45 degrees and moves coupling the sweep has not yet removed
back into slots it already cleared; convergence then drops from quadratic
to a few-fold per sweep.  From the fourth sweep on a pair is left alone
while |a_pq| and |a_qq - a_pp| are both at most delta =
min(100 off^2 / ||A||_F, CLUSTER_CAP ||A||_F), which shrinks with off^2,
so the cluster is rotated once the coupling around it is gone.  The rule
cannot stall the loop, and it leaves anti-regular spectra alone: their
eigenvalue gaps stay at least 9 times the cap up to order 2000 (see
``jacobi_eigenvalues``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

SYMMETRY_TOL = 1e-12
JACOBI_TOL = 1e-12  # stop once the off-diagonal norm is this fraction of the input's
QUOTIENT_SYMMETRY_TOL = 1e-9
MAX_SWEEPS = 100
# Largest delay bound, as a fraction of the input's Frobenius norm: pairs
# whose a_pq and a_qq - a_pp are both this small may wait for a later sweep.
CLUSTER_CAP = 1e-10
# Smallest order swept in round-robin order.  Below it the 34 to 44 numpy calls
# of a round that rotates (8 to 18 for one that does not), none of which
# allocates or looks anything up, cost more than the cyclic loop's per-pair
# Python.  A round took 42-52 us at orders 16-32 on 2 cores, and the list sweep
# took 0.86-0.93 times round-robin's time at order 12 and 1.3 times it at 16 on
# dense random matrices (medians of 7, two runs).  On threshold Laplacians in
# creation order, which the cyclic order converges on in fewer sweeps,
# round-robin took 1.2-1.3 times the list sweep's time at 16 and 0.87-0.93
# times it at 20.  So the break-even lies near order 14 on the first and
# between 16 and 20 on the second.  Moving the switch would change the last
# digits at the orders it moves over, so it stays at 16.
ROUND_ROBIN_MIN_ORDER = 16


class ConvergenceError(RuntimeError):
    """Jacobi sweeps failed to reach the target off-diagonal norm.

    Carries the matrix ``order``, the ``sweeps`` run, the ``off_norm`` they
    left and the ``target`` it had to reach, so callers can report how far
    from convergence the run stopped.
    """

    def __init__(self, message: str, order: int | None = None, sweeps: int | None = None,
                 off_norm: float | None = None, target: float | None = None):
        super().__init__(message)
        self.order = order
        self.sweeps = sweeps
        self.off_norm = off_norm
        self.target = target


@dataclass
class EigenResult:
    order: int
    eigenvalues: list[float] = field(default_factory=list)  # ascending
    sweeps: int = 0
    off_norm: float = 0.0
    rotations: int = 0  # rotations applied; skipped and zeroed pairs not counted


def _off_norm(a: np.ndarray) -> float:
    sq = a * a
    sq.flat[::a.shape[0] + 1] = 0.0  # the diagonal
    return math.sqrt(float(np.add.reduce(sq, None)))


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


def jacobi_eigenvalues(m) -> EigenResult:
    """All eigenvalues of a real symmetric matrix by Jacobi rotation sweeps.

    Each sweep visits every off-diagonal pair (p, q) once and annihilates
    entries whose square exceeds a threshold (0.2 * off^2 / n^2 during the
    first three sweeps, zero afterwards).  Rotations that would not change
    the matrix at working precision are replaced by setting the entry to
    zero outright, which is what makes the final sweeps terminate.  The
    rotated diagonal entries are updated exactly, as a_pp - t a_pq and
    a_qq + t a_pq, and a_pq is set to zero.

    Below order ROUND_ROBIN_MIN_ORDER a sweep visits the strict upper
    triangle row by row, one pair at a time, on Python lists of rows.  From
    that order up it uses the round-robin ordering of Brent and Luk: an odd
    order gets one zero pad row and column, which no rotation touches and
    whose diagonal is not returned, and each of the N - 1 rounds of a sweep
    over the even order N rotates N/2 disjoint pairs in one elementwise
    numpy update, written into work arrays made once per call.

    From the fourth sweep on, a pair with |a_pq| <= delta and
    |a_qq - a_pp| <= delta is neither rotated nor zeroed in that sweep, where
    delta = min(100 off^2 / ||A||_F, CLUSTER_CAP ||A||_F) and off is the
    off-diagonal norm at the start of the sweep.  Such a pair sits in a
    cluster of equal eigenvalues, such as the repeated 0 and -1 of a
    threshold graph, where its rotation would be a 45 degree turn that mixes
    uncleared coupling back into cleared slots; delta falls with off^2, so
    the pair is rotated once the rest has converged.  This took random
    connected threshold graphs of order 50 to 75 from 12-19 sweeps to 8-13.
    It cannot stall: were every pair with a_pq != 0 delayed, off would be at
    most n delta, which with delta <= 100 off^2 / ||A||_F and
    delta <= CLUSTER_CAP ||A||_F = 1e-10 ||A||_F needs n >= 10^4, and
    MAX_SWEEPS still bounds the loop.  Nor does it reach anti-regular
    spectra, whose eigenvalues are simple: the cap stays below their
    smallest gap, by a factor of 9 at order 2000, the CLI's dense limit
    (1.4e-7 against 1.3e-6), 74 at order 1000 and 9000 at order 200, and
    their adjacency and Laplacian results at every order up to 200 are
    bit-identical to sweeps without the rule.

    Iteration stops once the Frobenius norm of the off-diagonal part drops
    below JACOBI_TOL times the Frobenius norm of the input.  The off-diagonal
    norm is recomputed directly each sweep; forming it by subtracting the
    diagonal from the total norm cancels catastrophically and would stall
    the loop around sqrt(eps) times the matrix norm.  The sweeps run on
    a 2^-e, e = frexp(max|a_ij|)[1] (0 for the zero matrix), which is exact
    for entries of at least 2^-1021 max|a_ij|, and the results are scaled
    back by 2^e.  The input counts as symmetric if max|a_ij - a_ji| <=
    SYMMETRY_TOL max|a_ij|, a test the division leaves unchanged.

    Raises ValueError for non-square, asymmetric, complex or non-finite
    input and for an eigenvalue beyond the float range, and ConvergenceError
    (a norm beyond it read as inf) if MAX_SWEEPS sweeps miss the target.
    """
    a = _check_square(m)
    n = a.shape[0]
    amax, shift = math.frexp(float(np.max(np.abs(a))))
    a = np.ldexp(a, -shift)
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_TOL * amax:
        raise ValueError("matrix is not symmetric (max asymmetry %.3e)" % _scale_back(asym, shift))
    a = 0.5 * (a + a.T)
    norm = math.sqrt(float(np.sum(a * a)))
    target = JACOBI_TOL * norm
    sweep = _cyclic_sweep
    if n >= ROUND_ROBIN_MIN_ORDER:
        if n % 2:
            a = np.pad(a, (0, 1))
        sweep = _round_robin(a.shape[0])
    sweeps = rotations = 0
    while True:
        off = _off_norm(a)
        if off <= target:
            eigs = sorted(_scale_back(x, shift) for x in np.diag(a)[:n].tolist())
            if math.isinf(eigs[0]) or math.isinf(eigs[-1]):
                raise ValueError("matrix has an eigenvalue beyond the float range (%r)"
                                 % sys.float_info.max)
            return EigenResult(order=n, eigenvalues=eigs, sweeps=sweeps,
                               off_norm=_scale_back(off, shift), rotations=rotations)
        if sweeps == MAX_SWEEPS:
            off, target = _scale_back(off, shift), _scale_back(target, shift)
            raise ConvergenceError(
                "off-diagonal norm %.3e still above target %.3e after %d sweeps"
                % (off, target, sweeps), order=n, sweeps=sweeps, off_norm=off, target=target)
        thresh = delay = 0.0
        if sweeps < 3:
            thresh = 0.2 * off * off / (n * n)
        else:
            delay = min(100.0 * off * (off / norm), CLUSTER_CAP * norm)
        a, done = sweep(a, thresh, delay, sweeps > 3)
        rotations += done
        sweeps += 1


def _cyclic_sweep(a: np.ndarray, thresh: float, delay: float,
                  zero_negligible: bool) -> tuple[np.ndarray, int]:
    """One cyclic-by-row sweep over ``a``; returns the rotated matrix and the
    number of rotations applied.

    The sweep runs on Python lists of rows: at these orders a numpy call
    costs more than the row it updates.  Each rotation rebuilds rows p and q
    elementwise, as rp - s (rq + tau rp) and rq + s (rp - tau rq), and
    mirrors them into columns p and q, so the matrix stays exactly symmetric
    and every entry is the double a numpy row update would give.
    """
    n = a.shape[0]
    rows = a.tolist()
    rotations = 0
    sqrt, absolute = math.sqrt, abs  # bound once, not looked up per pair
    for p in range(n - 1):
        for q in range(p + 1, n):
            rp, rq = rows[p], rows[q]
            apq = rp[q]
            if apq * apq <= thresh:
                continue
            app = rp[p]
            aqq = rq[q]
            diff = aqq - app
            if absolute(apq) <= delay and absolute(diff) <= delay:
                continue  # inside a cluster of equal eigenvalues: wait
            g = 100.0 * absolute(apq)
            if (zero_negligible and absolute(app) + g == absolute(app)
                    and absolute(aqq) + g == absolute(aqq)):
                rp[q] = rq[p] = 0.0
                continue
            if absolute(diff) + g == absolute(diff):
                t = apq / diff  # tan(2 phi) tiny, rotation angle ~ apq/diff
            else:
                phi = diff / (2.0 * apq)
                t = (1.0 if phi >= 0.0 else -1.0) / (absolute(phi) + sqrt(phi * phi + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            new_p = [x - s * (y + tau * x) for x, y in zip(rp, rq)]
            new_q = [y + s * (x - tau * y) for x, y in zip(rp, rq)]
            new_p[p] = app - t * apq
            new_q[q] = aqq + t * apq
            new_p[q] = new_q[p] = 0.0
            rows[p], rows[q] = new_p, new_q
            for row, vp, vq in zip(rows, new_p, new_q):
                row[p] = vp
                row[q] = vq
            rotations += 1
    return np.array(rows), rotations


def _stack(h: int) -> tuple[np.ndarray, ...]:
    """A (3, h, h) stack of the round-robin sweep, as the views its rounds use:
    the blocks X, Y and Z, X and Z together, the pivot rows (their diagonals)
    a_pp and a_qq together and one by one with a_pq between them, the stack
    and the stack flat."""
    blocks = np.empty((3, h, h))
    pivots = blocks.reshape(3, -1)[:, ::h + 1]
    return (*blocks, blocks[::2], pivots[::2], *pivots, blocks, blocks.reshape(-1))


def _round_robin(n: int):
    """The round-robin sweep over matrices of even order N = n = 2h: a
    function of the same form as ``_cyclic_sweep`` that returns the rotated
    matrix, in the input's row order, and the rotations applied.

    Round by round, index slot i of the top half [0, h) is paired with slot
    i of the bottom half [h, N).  The sweep keeps the three blocks
    X = a[top, top], Y = a[top, bottom] and Z = a[bottom, bottom] as one
    contiguous (3, h, h) stack, so the pivots a_pp, a_pq and a_qq are their
    diagonals.  With CC, CS, SC and SS the outer products c c', c s', s c'
    and s s' of the per-pair cosines and sines, a round is

        X <- (CC*X + SS*Z) - (U + U'),  U = CS*Y
        Z <- (SS*X + CC*Z) + (W + W'),  W = SC*Y
        Y <- (CS*X - SC*Z) + (CC*Y - (SS*Y)')

    which keeps X and Z exactly symmetric, followed by the exact pivot
    updates.  Between rounds every slot but slot 0 passes its index one step
    around the ring h, 1, 2, .., h-1, N-1, N-2, .., h+1, so every pair meets
    once in N - 1 rounds and the sweep ends in its starting order.

    The ring's gather plan, every work array and the views of them that a
    round reads are made here, once per ``jacobi_eigenvalues`` call, and
    each step of a round writes into one of them, so a round allocates
    nothing and costs little beyond its numpy calls.
    """
    h = n // 2
    ring = np.r_[h, 1:h, n - 1:h:-1]
    step = np.arange(n)
    step[np.roll(ring, -1)] = ring
    top, bottom = step[:h, None], step[h:, None]

    def offset(u, v):
        # position of a[u, v] in the flattened (X, Y, Z) stack
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        return np.where(hi < h, lo * h + hi, (h + lo) * h + hi - h)

    gather = np.concatenate([offset(top, top.T), offset(top, bottom.T),
                             offset(bottom, bottom.T)], axis=None)
    stacks = _stack(h), _stack(h)
    full = np.empty((n, n))
    # per-pair vectors: a_qq - a_pp, |a_pq|, a_pq^2 and max(|a_pq|, |diff|),
    # 100 |a_pq|, 2 a_pq, the denominator of t, t and t a_pq
    diff, aq, sq, wide, g, twice, den, t, tapq = np.empty((9, h))
    # the operands 2, 100 and 1 and the sweep's thresh and delay, one per
    # pair: a float scalar costs a ufunc call more than an h-vector does
    two, hundred, one = np.full((3, h), [[2.0], [100.0], [1.0]])
    thresholds, delays = np.empty((2, h))
    rot, outside, moves, keep = np.empty((4, h), dtype=bool)
    d, dg = np.empty((2, 2, h))  # |a_pp|, |a_qq| and those plus g
    moved = np.empty((2, h), dtype=bool)
    moved_p, moved_q = moved
    cs = np.empty((2, h))
    c, s = cs
    cs_rows, cs_cols = cs[:, None, :, None], cs[None, :, None, :]
    o = np.empty((4, h, h))
    outer = o.reshape(2, 2, h, h)
    cc, ss, cc_ss, ss_cc, cs_sc = o[0], o[3], o[::3], o[::-3], o[1:3]
    # X and Z partial stacks: the sums CC*X + SS*Z and SS*X + CC*Z, their
    # second terms and then CS*X and SC*Z, U and W, U + U' and W + W'
    mixed, terms, uw, uw_sym = np.empty((4, 2, h, h))
    mixed_x, mixed_z = mixed
    terms_x, terms_z = terms
    uw_x, uw_z = uw_sym
    uw_t = uw.transpose(0, 2, 1)
    ccy, ssy = uw
    ssy_t = ssy.T

    # every ufunc a round calls, bound once: at the orders swept here a call
    # costs more than its arithmetic on h elements or an h x h block, and a
    # keyword out costs more than a positional one
    subtract, absolute, multiply, add, divide = (
        np.subtract, np.absolute, np.multiply, np.add, np.divide)
    greater, maximum, not_equal = np.greater, np.maximum, np.not_equal
    logical_and, logical_or, logical_not = np.logical_and, np.logical_or, np.logical_not
    hypot, copysign, count_nonzero = np.hypot, np.copysign, np.count_nonzero
    clear_t = t.fill

    def sweep(a: np.ndarray, thresh: float, delay: float,
              zero_negligible: bool) -> tuple[np.ndarray, int]:
        cur, nxt = stacks
        x, y, z, *_ = cur
        x[...] = a[:h, :h]
        y[...] = a[:h, h:]
        z[...] = a[h:, h:]
        thresholds.fill(thresh)
        delays.fill(delay)
        rotations = 0
        for _ in range(n - 1):
            x, y, z, xz, ends, app, apq, aqq, _, _ = cur
            subtract(aqq, app, diff)
            absolute(apq, aq)
            multiply(apq, apq, sq)
            greater(sq, thresholds, rot)
            if delay:  # pairs inside a cluster of equal eigenvalues wait
                absolute(diff, wide)
                maximum(aq, wide, out=wide)  # a positional out is deprecated here
                greater(wide, delays, outside)
                logical_and(rot, outside, rot)
            done = rot
            if zero_negligible:  # a pair that moves neither pivot is zeroed
                multiply(hundred, aq, g)
                absolute(ends, d)
                add(d, g, dg)
                not_equal(dg, d, moved)
                logical_or(moved_p, moved_q, moves)
                logical_and(rot, moves, moves)
                done = moves
            count = int(count_nonzero(done))
            if count:
                # t = tan(phi) of the smaller rotation annihilating a_pq, left
                # at 0 for the pairs not rotated; hypot keeps diff^2 from
                # overflowing
                multiply(two, apq, twice)
                hypot(diff, twice, den)
                copysign(den, diff, den)
                add(diff, den, den)
                clear_t(0.0)
                divide(twice, den, out=t, where=done)
                hypot(t, one, c)
                divide(one, c, c)
                multiply(t, c, s)
                multiply(cs_rows, cs_cols, outer)
                multiply(cc_ss, x, mixed)
                multiply(ss_cc, z, terms)
                add(mixed, terms, mixed)
                multiply(cs_sc, y, uw)
                add(uw, uw_t, uw_sym)
                bx, by, bz, _, _, bpp, _, bqq, _, _ = nxt
                subtract(mixed_x, uw_x, bx)
                add(mixed_z, uw_z, bz)
                multiply(cs_sc, xz, terms)
                subtract(terms_x, terms_z, by)
                multiply(cc, y, ccy)
                multiply(ss, y, ssy)
                subtract(ccy, ssy_t, ccy)
                add(by, ccy, by)
                multiply(t, apq, tapq)
                subtract(app, tapq, bpp)
                add(aqq, tapq, bqq)
                cur, nxt = nxt, cur
                rotations += count
            # a_pq of every pair rotated or found negligible becomes exactly 0,
            # by a multiply that keeps its sign, not a store of +0.0: a later
            # unrotated pair's pivot a_pp - 0 a_pq takes the sign of such a
            # zero, and a pair whose a_qq - a_pp is then +-0 turns by +45 or
            # -45 degrees through copysign, which moves the eigenvalues
            logical_not(rot, keep)
            multiply(apq, keep, cur[6])  # into cur's a_pq
            # cur's blocks into nxt's flat view; every index is valid, and
            # mode="raise" would buffer the output
            cur[8].take(gather, out=nxt[9], mode="clip")
            cur, nxt = nxt, cur
        x, y, z, *_ = cur
        full[:h, :h] = x
        full[:h, h:] = y
        full[h:, :h] = y.T
        full[h:, h:] = z
        return full, rotations

    return sweep


def quotient_eigenvalues(m, cell_sizes) -> EigenResult:
    """Eigenvalues of an equitable-partition quotient matrix.

    ``m[i][j]`` holds the number of neighbors a vertex of cell i has inside
    cell j, and ``cell_sizes`` the cell cardinalities.  Such a matrix is not
    symmetric, but conjugating by diag(sqrt(sizes)) restores symmetry:
    S = D^(1/2) M D^(-1/2).  If max|s_ij - s_ji| exceeds QUOTIENT_SYMMETRY_TOL
    max|s_ij|, the input did not come from an equitable partition, which is
    reported as a ValueError rather than silently returning wrong eigenvalues.
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
    sym = a * d[:, None] / d[None, :]
    asym = float(np.max(np.abs(sym - sym.T)))
    if asym > QUOTIENT_SYMMETRY_TOL * float(np.max(np.abs(sym))):
        raise ValueError("matrix is not an equitable quotient: rebalanced asymmetry %.3e" % asym)
    return jacobi_eigenvalues(0.5 * (sym + sym.T))


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
