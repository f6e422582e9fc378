"""Eigenvalues of anti-regular graphs by trigonometric root isolation.

Away from the single trivial eigenvalue (-1 for even order, 0 for odd), each
eigenvalue lambda of the anti-regular graph corresponds to an angle theta in
[0, pi] through cos(theta) = (1 - 2 lambda - 2 lambda^2) / (2 lambda (lambda
+ 1)).  Inverting the substitution gives two branch curves

    branch_positive(theta) = (-1 + sqrt((c + 3)/(c + 1))) / 2,
    branch_negative(theta) = (-1 - sqrt((c + 3)/(c + 1))) / 2,

with c = cos(theta); their sum is identically -1 and their ranges are the
two components of the complement of the forbidden interval

    [(-1 - sqrt(2))/2, (-1 + sqrt(2))/2],

which contains no nontrivial eigenvalue.  An angle theta belongs to the
spectrum exactly when a ratio of sines equals the branch value: for order
2k the ratio is sin(k theta) / (sin(k theta) + sin((k-1) theta)), for order
2k+1 the condition reads sin((k-1) theta) / sin(k theta) equated to the
branch image of (2 - lambda^2) / (lambda (lambda + 1)).

The ratio has k - 1 (even) or k - 1 (odd, interior) poles that split (0, pi)
into brackets, and each bracket carries exactly one root per branch (the
even case loses the negative-branch root of the last bracket).  The sign of
the residual next to each bracket end follows from the parity alone:
positive just right of the left end for even order, negative for odd, and
the opposite sign at the right end.  The solver therefore bisects each whole
bracket from that known sign, never evaluating an end, until the
floating-point midpoint collides with an end, so the residual is limited
only by evaluation noise.  No step cap is needed: each step moves an end to
a double strictly inside the bracket, so fewer doubles remain every time.
One kernel bisects every listed bracket of one order and branch, with the
residual written out inside its loop from one cos(theta / 2) and the float
operations of the public functions in their order, so each residual equals
the sine ratio minus the branch curve taken through those functions, bit
for bit.  It counts its evaluations and takes each bracket from
bracket_poles.

Everything is plain float arithmetic with two guards on sin(k theta),
whose naive product loses about log2(k) bits of the angle: above pi/2 the
multiple is taken of the exact supplement pi - theta, which keeps odd
orders accurate next to pi, and for k above one million the reduction of
k * theta modulo 2 pi is done exactly in integers, against 2 pi held to 192
fractional bits (the exact radian reduction of Payne and Hanek, 1983).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

FORBIDDEN_LO = -(1.0 + math.sqrt(2.0)) / 2.0
FORBIDDEN_HI = (math.sqrt(2.0) - 1.0) / 2.0

# Largest sine multiplier evaluated as a plain float product.
_DIRECT_MULT_LIMIT = 1_000_000

# Largest half order k and order n = 2k + 1 taken: up to them 2k - 1 and
# n - 1 are exact doubles, and nothing overflows on the way to the angles.
_MAX_K = 2 ** 52
_MAX_ORDER = 2 * _MAX_K + 1

# Largest half order closure_witness returns.
_WITNESS_MAX_K = 2 ** 23

# pi minus its double rounding math.pi; half of math.pi, exact.
_PI_LO = 1.2246467991473532e-16
_HALF_PI = 0.5 * math.pi

# floor(2 pi * 2^_TWO_PI_BITS), from 2 pi to 60 significant digits, for exact
# integer argument reduction.
_TWO_PI_BITS = 192
_TWO_PI_INT = (628318530717958647692528676655900576839433879875021164194989
               << _TWO_PI_BITS) // 10 ** 59


class BracketRootError(RuntimeError):
    """A bracket failed to produce the expected root.

    Carries ``bracket_index`` (1-based), ``order`` and ``sign`` (1 for the
    positive branch, -1 for the negative one), each None when unknown, so
    callers can report which interval between consecutive poles went wrong.
    """

    def __init__(self, message: str, bracket_index: int | None = None,
                 order: int | None = None, sign: int | None = None):
        super().__init__(message)
        self.bracket_index = bracket_index
        self.order = order
        self.sign = sign


def bracket_poles(n: int, j: int) -> tuple[float, float]:
    """Bracket j = 1..n//2 of the order-n sine ratio as (lo, hi).

    The ends are consecutive poles (j - 1) * step and j * step, except that
    theta = 0 opens the first bracket and pi closes the last one.  The step
    is 2 pi / (n - 1) at both parities: 2 pi / (2k - 1) for even order 2k,
    and for odd order 2k + 1 the double 2 pi / (2k), which equals pi / k.
    """
    n = _checked_int("n", n, 2, _MAX_ORDER)
    k = n // 2
    j = _checked_int("bracket index j", j, 1, k)
    step = 2.0 * math.pi / (n - 1)
    return (j - 1) * step, (j * step if j < k else math.pi)


def _checked_int(name: str, value, lo: int, hi: float = math.inf) -> int:
    """value as an int in lo..hi, else ValueError: 7.9, "8", inf and nan are
    refused, not truncated, parsed or let through; 8.0 and numpy integers pass.
    Every integer argument of the package is checked here.  A hi of _MAX_K
    or more only keeps orders from overflowing, so the message names the
    side that was crossed instead of the range."""
    if type(value) is not int:  # ints skip this; bracket_poles runs once per root
        try:
            whole = int(value)
        except (TypeError, ValueError, OverflowError):
            whole = None
        if whole is None or whole != value:
            raise ValueError("%s must be an integer, got %r" % (name, value))
        value = whole
    if not lo <= value <= hi:
        if hi < _MAX_K:
            bound = "lie in %d..%d" % (lo, hi)
        else:
            bound = "be >= %d" % lo if value < lo else "be <= %d" % hi
        raise ValueError("%s must %s, got %d" % (name, bound, value))
    return value


def theta_of_lambda(lam: float) -> float:
    """Angle in [0, pi] associated with an eigenvalue outside the gap.

    Raises ValueError for lam strictly inside the forbidden interval, where
    the cosine argument leaves [-1, 1] (the denominator vanishes at the
    trivial eigenvalues 0 and -1, which also lie inside).  Non-finite lam
    has no angle either; huge finite lam tends to pi.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("no angle: %r is not finite" % (lam,))
    if abs(lam) > 1e150:
        inv = 1.0 / lam  # the formula below divided through by lam^2, which overflows
        return math.acos((inv * inv - 2.0 * inv - 2.0) / (2.0 + 2.0 * inv))
    den = 2.0 * lam * (lam + 1.0)
    arg = (1.0 - 2.0 * lam - 2.0 * lam * lam) / den if den else math.inf
    if abs(arg) > 1.0 + 1e-12:  # rounding alone stays within 1e-12 of [-1, 1]
        raise ValueError("no angle: %r lies inside the forbidden interval" % (lam,))
    return math.acos(min(max(arg, -1.0), 1.0))


def _cos_plus_one(theta: float) -> float:
    # cos(theta) + 1 without cancellation near theta = pi
    c = math.cos(0.5 * theta)
    return 2.0 * c * c


def branch_positive(theta: float) -> float:
    """Positive eigenvalue branch; increasing from (sqrt(2)-1)/2 at theta=0."""
    if not 0.0 <= theta < math.pi:
        raise ValueError("positive branch needs theta in [0, pi), got %r" % (theta,))
    c1 = _cos_plus_one(theta)
    return 0.5 * (math.sqrt((c1 + 2.0) / c1) - 1.0)


def branch_negative(theta: float) -> float:
    """Negative eigenvalue branch, equal to -1 - branch_positive(theta)."""
    if not 0.0 <= theta < math.pi:
        raise ValueError("negative branch needs theta in [0, pi), got %r" % (theta,))
    c1 = _cos_plus_one(theta)
    return -0.5 * (math.sqrt((c1 + 2.0) / c1) + 1.0)


def branch_positive_derivative(theta: float) -> float:
    """d branch_positive / d theta, for theta strictly inside (0, pi).

    Increasing on the whole interval, which is what makes it usable as a
    per-bracket Lipschitz constant when evaluated at the right endpoint.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("derivative needs theta in (0, pi), got %r" % (theta,))
    c1 = _cos_plus_one(theta)
    return math.sin(theta) / (2.0 * c1 * math.sqrt(c1 * (c1 + 2.0)))


def _sin_mult(j: int, theta: float) -> float:
    # sin(j * theta); exact integer reduction once j would erase too many
    # low bits of the angle in the float product.  Above pi/2 the product
    # is taken on the supplement instead, pi - theta being exact there:
    # sin(j theta) = (-1)^(j+1) sin(j (pi - theta)), which keeps the low
    # bits of the angle as theta approaches pi.
    if j <= _DIRECT_MULT_LIMIT:
        if theta <= _HALF_PI:
            return math.sin(j * theta)
        s = math.sin(j * ((math.pi - theta) + _PI_LO))
        return s if j % 2 else -s
    return math.sin(_reduce_two_pi(j, theta))


def _reduce_two_pi(j: int, theta: float) -> float:
    # j * theta mod 2 pi, rounded once.  theta is m / d with d a power of
    # two, so the remainder is (j m 2^B mod T d) / (d 2^B) for
    # T = _TWO_PI_INT and B = _TWO_PI_BITS; int / int rounds correctly,
    # subnormal quotients included.
    m, d = theta.as_integer_ratio()
    return ((j * m) << _TWO_PI_BITS) % (_TWO_PI_INT * d) / (d << _TWO_PI_BITS)


def sine_ratio_even(theta: float, k: int) -> float:
    """sin(k t) / (sin(k t) + sin((k-1) t)) for the order-2k eigenvalue test.

    The denominator is evaluated in the product form
    2 sin((2k-1) t / 2) cos(t / 2), which keeps full relative accuracy next
    to its zeros instead of cancelling.  The removable endpoint values are
    k/(2k-1) at 0 and k at pi.  No double is a pole: the denominator is
    never exactly 0 once t / 2 is nonzero, so next to a pole the ratio is
    large but finite.
    """
    k = _checked_int("k", k, 1, _MAX_K)
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi], got %r" % (theta,))
    if 0.5 * theta == 0.0:  # theta = 0, or 5e-324, whose half rounds to 0
        return k / (2.0 * k - 1.0)
    if theta == math.pi:
        return float(k)
    den = 2.0 * _sin_mult(2 * k - 1, 0.5 * theta) * math.cos(0.5 * theta)
    return _sin_mult(k, theta) / den


def sine_ratio_odd(theta: float, k: int) -> float:
    """sin((k-1) t) / sin(k t) for the order-(2k+1) eigenvalue test.

    Removable endpoint values are (k-1)/k at 0 and -(k-1)/k at pi.  The
    k-1 interior poles sit at multiples of pi/k, none of them a double: the
    sine of a nonzero double is never exactly 0, so next to a pole the ratio
    is large but finite.
    """
    k = _checked_int("k", k, 1, _MAX_K)
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi], got %r" % (theta,))
    if theta == 0.0:
        return (k - 1.0) / k
    if theta == math.pi:
        return -(k - 1.0) / k
    return _sin_mult(k - 1, theta) / _sin_mult(k, theta)


def odd_ratio_positive(theta: float) -> float:
    """(2 - lam^2)/(lam (lam + 1)) along lam = branch_positive(theta)."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi], got %r" % (theta,))
    c1 = _cos_plus_one(theta)
    return 3.0 * c1 - 1.0 + math.sqrt(c1 * (c1 + 2.0))


def odd_ratio_negative(theta: float) -> float:
    """(2 - lam^2)/(lam (lam + 1)) along lam = branch_negative(theta)."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi], got %r" % (theta,))
    c1 = _cos_plus_one(theta)
    return 3.0 * c1 - 1.0 - math.sqrt(c1 * (c1 + 2.0))


# ---------------------------------------------------------------------------
# root isolation


def _bracket_roots(n: int, sign: int, js) -> tuple[list, list, list, list]:
    """The order-n roots in the brackets ``js`` on the branch of ``sign``, as
    four columns: angles, eigenvalues, |residuals| and evaluation counts.

    sign 1 is the positive branch, lam = branch_positive(theta), and sign -1
    the negative one, lam = branch_negative(theta); the branch curve is
    applied here and nowhere else.  The residual is the sine ratio minus the
    branch curve (even n) or minus the branch image of
    (2 - lambda^2) / (lambda (lambda + 1)) (odd n), written out in the loop
    from one cos(theta / 2) with the float operations of the public
    functions in the same order, so it equals sine_ratio_even(theta, k) -
    branch_positive(theta) and its three siblings bit for bit.  Next to the
    left end of bracket_poles(n, j) it is positive for even n (R(0) - B(0) >
    0 in bracket 1, the ratio tends to +inf past each pole) and negative for
    odd n; next to the right end it has the other sign (the ratio tends to
    -inf or +inf before a pole; at pi the odd residual is 1/k and the
    positive even branch tends to +inf).  Each bracket is bisected from that
    sign without evaluating either end, until the midpoint collides with an
    end.  That needs no step cap: a midpoint strictly inside (a, b) becomes
    one of its ends, so each step leaves strictly fewer doubles inside the
    bracket (no bracket took more than 54 evaluations, at orders up to
    10^5 + 1 or k up to 2^23 + 1).  An end that never moved means no sign
    change and raises BracketRootError.
    """
    sin, cos, sqrt, sin_mult = math.sin, math.cos, math.sqrt, _sin_mult
    pi, half_pi, pi_lo = math.pi, _HALF_PI, _PI_LO
    k, odd = n // 2, n % 2 == 1
    # the ratio is sin(p x) / sin(k theta) at odd order, with x = theta, and
    # sin(k theta) / (2 sin(p x) cos(x)) at even order, with x = theta / 2
    p = k - 1 if odd else 2 * k - 1
    big = max(k, p) > _DIRECT_MULT_LIMIT
    kf, pf = float(k), float(p)
    # above pi/2, sin(j theta) = (-1)^(j+1) sin(j (pi - theta)), as in _sin_mult
    flip_k, flip_p = k % 2 == 0, p % 2 == 0
    branch = branch_positive if sign > 0 else branch_negative
    sg = 1.0 if sign > 0 else -1.0  # sign as a float: the same products, faster
    thetas, lams, resids, counts = [], [], [], []
    for j in js:
        a, b = bracket_poles(n, j)
        fa = fb = None
        evals = 0
        mid = 0.5 * (a + b)
        while a < mid < b:
            half = 0.5 * mid
            c = cos(half)
            c1 = 2.0 * c * c
            x = mid if odd else half
            if big:
                sk, sp = sin_mult(k, mid), sin_mult(p, x)
            elif mid <= half_pi:
                sk, sp = sin(kf * mid), sin(pf * x)
            else:
                sup = (pi - mid) + pi_lo
                sk = -sin(kf * sup) if flip_k else sin(kf * sup)
                if odd:
                    sp = -sin(pf * sup) if flip_p else sin(pf * sup)
                else:
                    sp = sin(pf * half)
            if odd:
                fm = sp / sk - (3.0 * c1 - 1.0 + sg * sqrt(c1 * (c1 + 2.0)))
            elif half == 0.0:  # theta = 5e-324
                fm = k / (2.0 * k - 1.0) - 0.5 * (sg * sqrt((c1 + 2.0) / c1) - 1.0)
            else:
                fm = sk / (2.0 * sp * c) - 0.5 * (sg * sqrt((c1 + 2.0) / c1) - 1.0)
            evals += 1
            if fm == 0.0:
                theta, resid = mid, 0.0
                break
            if (fm < 0.0) == odd:  # the sign next to the left end
                a, fa = mid, fm
            else:
                b, fb = mid, fm
            mid = 0.5 * (a + b)
        else:
            if fa is None or fb is None:
                raise BracketRootError(
                    "no sign change in bracket %d of order %d on the %s branch"
                    % (j, n, "positive" if sign > 0 else "negative"), j, n, sign)
            theta, resid = (a, abs(fa)) if abs(fa) <= abs(fb) else (b, abs(fb))
        thetas.append(theta)
        lams.append(branch(theta))
        resids.append(resid)
        counts.append(evals)
    return thetas, lams, resids, counts


# ---------------------------------------------------------------------------
# spectra


@dataclass
class SpectrumResult:
    """Complete spectrum of one anti-regular graph.

    ``positives`` is ascending; ``negatives`` starts next to the forbidden
    interval and descends.  Both are in bracket order, paired with their
    angles and residuals index by index: entry i (0-based) lies in
    bracket_poles(n, i + 1).  ``residuals`` on the wire is the
    concatenation positives-then-negatives.  ``evaluations`` counts the
    residual evaluations over all brackets and ``most_evaluations`` the most
    in one bracket; neither is part of the JSON or CSV.  Each column is one
    field of the roots' (theta, lam, |residual|, evaluations) records.
    """

    n: int
    trivial: float
    positives: list[float] = field(default_factory=list)
    negatives: list[float] = field(default_factory=list)
    thetas_pos: list[float] = field(default_factory=list)
    thetas_neg: list[float] = field(default_factory=list)
    residuals_pos: list[float] = field(default_factory=list)
    residuals_neg: list[float] = field(default_factory=list)
    evaluations: int = 0
    most_evaluations: int = 0

    @property
    def k(self) -> int:
        return self.n // 2

    def eigenvalues(self) -> list[float]:
        """All n eigenvalues in ascending order, trivial one included."""
        return sorted([*self.negatives, self.trivial, *self.positives])

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "trivial": self.trivial,
                "positives": self.positives,
                "negatives": self.negatives,
                "thetas_pos": self.thetas_pos,
                "thetas_neg": self.thetas_neg,
                "residuals": self.residuals_pos + self.residuals_neg,
            }
        )

    def to_csv(self) -> str:
        lines = ["index,sign_class,theta,lambda,residual,bracket_lo,bracket_hi"]
        lines.append("0,trivial,,%r,,," % self.trivial)
        pos = ("%d,positive,%r,%r,%r,%r,%r", self.thetas_pos, self.positives, self.residuals_pos)
        neg = ("%d,negative,%r,%r,%r,%r,%r", self.thetas_neg, self.negatives, self.residuals_neg)
        for row, *columns in (pos, neg):
            for j, (theta, lam, resid) in enumerate(zip(*columns), 1):
                lines.append(row % (j, theta, lam, resid, *bracket_poles(self.n, j)))
        return "\r\n".join(lines) + "\r\n"


def solve_spectrum(n: int) -> SpectrumResult:
    """Spectrum of the anti-regular graph on n vertices, n >= 2.

    Solves one root per branch per bracket and inserts the trivial
    eigenvalue analytically.  Raises BracketRootError (with the offending
    bracket index) if any bracket refuses to produce its root; this does
    not happen for any supported order.
    """
    n = _checked_int("n", n, 2, _MAX_ORDER)
    thetas_pos, positives, residuals_pos, evals_pos = _bracket_roots(n, 1, range(1, n // 2 + 1))
    thetas_neg, negatives, residuals_neg, evals_neg = _bracket_roots(n, -1, range(1, (n + 1) // 2))
    return SpectrumResult(
        n=n, trivial=0.0 if n % 2 else -1.0, positives=positives, negatives=negatives,
        thetas_pos=thetas_pos, thetas_neg=thetas_neg,
        residuals_pos=residuals_pos, residuals_neg=residuals_neg,
        evaluations=sum(evals_pos + evals_neg), most_evaluations=max(evals_pos + evals_neg),
    )


# ---------------------------------------------------------------------------
# the gap predicate, single brackets, estimates and witnesses


def forbidden_interval_check(spec: SpectrumResult) -> bool:
    """True iff every nontrivial eigenvalue clears the open forbidden interval."""
    return not (any(lam < FORBIDDEN_HI for lam in spec.positives)
                or any(lam > FORBIDDEN_LO for lam in spec.negatives))


def last_bracket_ratio(k: int) -> float:
    """Relative position of the largest eigenvalue's angle in its bracket.

    For order 2k, returns (theta_k - gamma_{k-1}) / (pi - gamma_{k-1}); the
    value drifts toward 1/2 as k grows.  Only the last bracket is solved,
    so large k stay cheap.
    """
    k = _checked_int("k", k, 2, _MAX_K)
    lo, hi = bracket_poles(2 * k, k)
    return (_bracket_roots(2 * k, 1, [k])[0][0] - lo) / (hi - lo)


def innermost_eigenvalues(k: int) -> tuple[float, float | None]:
    """First-bracket eigenvalue pair of the order-2k graph.

    These are the nontrivial eigenvalues closest to the forbidden interval;
    the positive one decreases toward its endpoint as k grows and the
    negative one increases toward the other.  k = 1 has no negative-branch
    root, reported as None.
    """
    k = _checked_int("k", k, 1, _MAX_K)
    lam_pos = _bracket_roots(2 * k, 1, [1])[1][0]
    return lam_pos, (None if k == 1 else _bracket_roots(2 * k, -1, [1])[1][0])


def eigenvalue_estimates(k: int, j: int) -> tuple[float, float, float]:
    """Closed-form estimates for the j-th even-order eigenvalue pair.

    Returns (positive estimate, negative estimate, error bound): the branch
    values at the pole gamma_j, each within
    2 pi branch_positive_derivative(gamma_j) / (2k - 1) of the true root.
    Doubling k roughly halves the bound at fixed gamma.
    """
    k = _checked_int("k", k, 1, _MAX_K)
    j = _checked_int("j", j, 1, k - 1)
    gamma = bracket_poles(2 * k, j)[1]
    bound = 2.0 * math.pi * branch_positive_derivative(gamma) / (2 * k - 1)
    return branch_positive(gamma), branch_negative(gamma), bound


def closure_witness(
    y: float, epsilon: float, parity: str = "any"
) -> tuple[int, float]:
    """Find the least order n with an eigenvalue mu of its anti-regular graph
    within epsilon of y, such that every larger order of n's parity has one.

    Any y outside the open forbidden interval works: the branch curves fill
    both complementary rays as theta sweeps [0, pi).  The root in the
    bracket holding y's angle theta' lies within one pole step of it and the
    branch is convex, so the root is closer to y than the branch value at
    theta' + step.  Half order k passes when that value is within epsilon of
    y and theta' + step is at most the last interior pole (k - 1) * step, a
    test that only gets easier as k grows.  Both conditions invert in closed
    form through theta_of_lambda, which gives the least k up to rounding;
    the test then confirms it (k passes, k - 1 fails), and a search that
    widens from that guess corrects it when rounding moved the least k in
    2..2^23 that passes.  At FORBIDDEN_HI or FORBIDDEN_LO
    that is an explicit order past which every order of its parity has an
    eigenvalue within epsilon of the gap's end.  parity "even" and "odd" fix
    the parity; "any" gives an even order.  y = 0 and y = -1 return the
    trivial witnesses (3, 0.0) and (2, -1.0).

    Raises ValueError inside the open gap (its endpoints are limits of
    eigenvalues and get witnesses) and RuntimeError if no k up to 2^23
    passes.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive, got %r" % (epsilon,))
    if parity not in ("any", "even", "odd"):
        raise ValueError("parity must be 'any', 'even' or 'odd', got %r" % (parity,))
    y = float(y)
    if y == 0.0:
        return 3, 0.0
    if y == -1.0:
        return 2, -1.0
    if FORBIDDEN_LO < y < FORBIDDEN_HI:
        raise ValueError("no witness: %r lies inside the forbidden interval" % (y,))
    theta_prime = theta_of_lambda(y)
    odd = parity == "odd"
    branch = branch_positive if y > 0.0 else branch_negative

    def passes(k: int) -> bool:
        # end <= (k - 1) * step keeps y's bracket short of the last one
        step = 2.0 * math.pi / (2 * k + odd - 1)
        end = theta_prime + step
        return end <= (k - 1) * step and abs(branch(end) - y) < epsilon

    # In exact arithmetic end <= (k - 1) * step iff k >= (4 pi - theta' (1 -
    # odd)) / (2 (pi - theta')), and, the branch being monotone, |branch(end)
    # - y| < epsilon iff step < far - theta', far being the angle of y +
    # epsilon (y - epsilon below the gap): k > pi / (far - theta') + (1 -
    # odd) / 2.  Past the float range far is pi.
    try:
        far = theta_of_lambda(y + epsilon if y > 0.0 else y - epsilon)
    except ValueError:
        far = math.pi
    room, gap = math.pi - theta_prime, far - theta_prime
    short = (4.0 * math.pi - theta_prime * (1 - odd)) / (2.0 * room) if room > 0.0 else math.inf
    near = math.pi / gap + (1 - odd) / 2 if gap > 0.0 else math.inf
    k = max(math.ceil(min(max(short, near), _WITNESS_MAX_K)), 2)
    # Rounding moves the least k off the guess, by more than 10^5 for
    # epsilon near 1e-14 at the gap ends, where branch(end) - y spans a few
    # tens of doubles.  The test is monotone, so the least k is bracketed by
    # steps that double from the guess and then bisected; a right guess
    # costs two tests.
    lo, hi, width = 1, _WITNESS_MAX_K + 1, 1  # k = 1 fails; hi passes or is past the cap
    while hi - lo > 1:
        if passes(k):
            hi, k = k, k - width
        else:
            lo, k = k, k + width
        width *= 2
        if not lo < k < hi:
            k = (lo + hi) // 2
    if hi > _WITNESS_MAX_K:
        raise RuntimeError(
            "no witness order found for y=%r at epsilon=%r within supported range"
            % (y, epsilon))
    n = 2 * hi + odd
    j = int(theta_prime // (2.0 * math.pi / (n - 1))) + 1
    mu = _bracket_roots(n, 1 if y > 0.0 else -1, [j])[1][0]
    if not abs(mu - y) < epsilon:
        raise RuntimeError("witness bound violated: |%r - %r| >= %r" % (mu, y, epsilon))
    return n, mu
