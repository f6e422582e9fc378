"""Independent references for checking arspec's outputs.

Nothing here imports arspec.  Adjacency matrices are rebuilt from the
creation-sequence definition (entry (i, j) is bit max(i, j)), spectra come
from LAPACK through ``numpy.linalg.eigvalsh``, Laplacian spectra from the
conjugate degree sequence, and the anti-regular defining equations are
evaluated in mpmath at 40 digits in their plain textbook form, without the
product-form denominators or branch formulas the solver uses.

Every check returns None when the output is correct and a one-line reason
otherwise.
"""

from __future__ import annotations

import math

import numpy as np

EIG_TOL = 1e-8  # per-eigenvalue agreement with eigvalsh
EIGVALSH_MAX_ORDER = 2000  # largest order checked against a dense eigensolve
TABLE1_TOL = 1e-6
# A returned angle is right when the defining equation changes sign within
# this share of its bracket width on either side of it.
ANGLE_REL_TOL = 1e-6
TRIVIAL_TOL = 1e-9  # eigenvalues this close to 0 or -1 are trivial
MP_DPS = 40
EPS = 2.0 ** -52

FORBIDDEN_LO = -(1.0 + math.sqrt(2.0)) / 2.0
FORBIDDEN_HI = (math.sqrt(2.0) - 1.0) / 2.0

# Last-bracket position ratios published in table 1 of the paper, by order n.
TABLE1 = {
    250: 0.5020031290,
    500: 0.5010007838,
    1000: 0.5005001962,
    2000: 0.5002500492,
    4000: 0.5001250123,
    8000: 0.5000625018,
    16000: 0.5000312567,
    32000: 0.5000156204,
}


# ---------------------------------------------------------------------------
# matrices and dense spectra


def antiregular_bits(n: int) -> list[int]:
    """Creation sequence of the connected anti-regular graph on n vertices."""
    if n % 2 == 0:
        return [0, 1] * (n // 2)
    return [0, 0, 1] + [0, 1] * (n // 2 - 1)


def adjacency(bits) -> np.ndarray:
    b = np.asarray(bits, dtype=float)
    idx = np.arange(len(b))
    a = b[np.maximum.outer(idx, idx)]
    np.fill_diagonal(a, 0.0)
    return a


def dense_spectrum(bits) -> np.ndarray:
    return np.linalg.eigvalsh(adjacency(bits))


def edge_count(bits) -> int:
    # vertex i joining as a dominating vertex adds an edge to each earlier one
    return sum(i for i, bit in enumerate(bits) if bit)


def laplacian_spectrum(bits) -> list[float]:
    """Laplacian eigenvalues of a threshold graph: its conjugate degrees."""
    n = len(bits)
    later_ones = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        later_ones[i] = later_ones[i + 1] + bits[i]
    degrees = [(i if bits[i] else 0) + later_ones[i + 1] for i in range(n)]
    return sorted(float(sum(1 for d in degrees if d >= j)) for j in range(1, n + 1))


def spectrum_mismatch(values, reference, tol: float = EIG_TOL) -> str | None:
    got = np.sort(np.asarray(values, dtype=float))
    ref = np.sort(np.asarray(reference, dtype=float))
    if got.shape != ref.shape:
        return "%d eigenvalues, expected %d" % (got.size, ref.size)
    worst = float(np.max(np.abs(got - ref))) if got.size else 0.0
    if not worst <= tol:
        return "max eigenvalue deviation %.3e exceeds %.0e" % (worst, tol)
    return None


def trace_identity_mismatch(eigs, bits) -> str | None:
    """Sum(lambda) = tr A = 0 and sum(lambda^2) = tr A^2 = 2|E|.

    The slack is what EIG_TOL per eigenvalue allows, plus the rounding of
    the squares.
    """
    s1 = math.fsum(eigs)
    s2 = math.fsum(x * x for x in eigs)
    two_e = 2 * edge_count(bits)
    slack1 = EIG_TOL * len(eigs)
    slack2 = EIG_TOL * math.fsum(2.0 * abs(x) + EIG_TOL for x in eigs) + 1e-15 * s2
    if not abs(s1) <= slack1:
        return "sum of eigenvalues %.3e, slack %.1e" % (s1, slack1)
    if not abs(s2 - two_e) <= slack2:
        return "sum of squares off 2|E| by %.3e, slack %.1e" % (s2 - two_e, slack2)
    return None


def antiregular_check(eigs, n: int) -> str | None:
    bits = antiregular_bits(n)
    reason = trace_identity_mismatch(eigs, bits)
    if reason is None and n <= EIGVALSH_MAX_ORDER:
        reason = spectrum_mismatch(eigs, dense_spectrum(bits))
    return reason


# ---------------------------------------------------------------------------
# scans


def scan_reference(n: int) -> dict:
    """Exhaustive forbidden-interval scan of all connected threshold graphs.

    Batched eigvalsh over every creation sequence 0 m 1, where m runs
    through the n - 2 middle bits.
    """
    middle = n - 2
    count = 1 << middle
    m = np.arange(count)[:, None]
    shifts = np.arange(middle - 1, -1, -1)[None, :]
    bits = np.zeros((count, n))
    bits[:, 1:-1] = (m >> shifts) & 1
    bits[:, -1] = 1
    idx = np.arange(n)
    mats = bits[:, np.maximum.outer(idx, idx)]
    mats[:, idx, idx] = 0.0
    eigs = np.linalg.eigvalsh(mats)
    trivial = (np.abs(eigs) <= TRIVIAL_TOL) | (np.abs(eigs + 1.0) <= TRIVIAL_TOL)
    inside = (eigs > FORBIDDEN_LO + TRIVIAL_TOL) & (eigs < FORBIDDEN_HI - TRIVIAL_TOL)
    pos = eigs[eigs > TRIVIAL_TOL]
    neg = eigs[(eigs < -TRIVIAL_TOL) & ~trivial]
    anti = dense_spectrum(antiregular_bits(n))
    anti_pos = anti[anti > TRIVIAL_TOL]
    anti_neg = anti[(anti < -TRIVIAL_TOL) & (np.abs(anti + 1.0) > TRIVIAL_TOL)]
    return {
        "graphs": count,
        "violations": int(np.count_nonzero(inside & ~trivial)),
        "min_positive": float(pos.min()) if pos.size else None,
        "max_negative": float(neg.max()) if neg.size else None,
        "anti_min_positive": float(anti_pos.min()) if anti_pos.size else None,
        "anti_max_negative": float(anti_neg.max()) if anti_neg.size else None,
    }


def _close(value, reference) -> bool:
    if value is None or reference is None:
        return value is None and reference is None
    return abs(value - reference) <= EIG_TOL


def scan_mismatch(report: dict, ref: dict) -> str | None:
    """Compare a scan report, as the JSON fields ScanReport emits, to ref."""
    if report["graphs_scanned"] != ref["graphs"]:
        return "scanned %d graphs, expected %d" % (report["graphs_scanned"], ref["graphs"])
    if len(report["omega_violations"]) != ref["violations"]:
        return "%d violations reported, reference has %d" % (
            len(report["omega_violations"]), ref["violations"])
    pairs = (
        ("min_positive", report["min_positive"], ref["min_positive"]),
        ("max_nontrivial_negative", report["max_nontrivial_negative"], ref["max_negative"]),
        ("antiregular_min_positive", report["antiregular_min_positive"], ref["anti_min_positive"]),
        ("antiregular_max_negative", report["antiregular_max_negative"], ref["anti_max_negative"]),
    )
    for name, got, want in pairs:
        if isinstance(got, dict):
            got = got["value"]
        if not _close(got, want):
            return "%s is %r, reference %r" % (name, got, want)
    # extremes attained: the family's extremes are the anti-regular graph's
    if not (_close(ref["min_positive"], ref["anti_min_positive"])
            and _close(ref["max_negative"], ref["anti_max_negative"])):
        return "reference extremes are not the anti-regular graph's"
    if not report["extremes_attained"]:
        return "report says extremes are not attained"
    return None


# ---------------------------------------------------------------------------
# the anti-regular defining equations, in mpmath


def _mp():
    import mpmath

    return mpmath


def _branch(mp, theta, positive: bool):
    c = mp.cos(theta)
    root = mp.sqrt((c + 3) / (c + 1))
    return (-1 + root) / 2 if positive else (-1 - root) / 2


def _equation(mp, theta, n: int, positive: bool):
    """(numerator, denominator) of the order-n equation along one branch.

    Even n = 2k: sin(k t) / (sin(k t) + sin((k-1) t)) = lambda.
    Odd n = 2k+1: sin((k-1) t) / sin(k t) = (2 - lambda^2) / (lambda (lambda + 1)).
    The equation holds where numerator / denominator changes sign while the
    denominator keeps its sign.
    """
    k = n // 2
    lam = _branch(mp, theta, positive)
    if n % 2 == 0:
        den = mp.sin(k * theta) + mp.sin((k - 1) * theta)
        return mp.sin(k * theta) - lam * den, den
    den = mp.sin(k * theta)
    return mp.sin((k - 1) * theta) - (2 - lam * lam) / (lam * (lam + 1)) * den, den


def bracket_width(n: int) -> float:
    k = n // 2
    return 2.0 * math.pi / (2 * k - 1) if n % 2 == 0 else math.pi / k


def _root_near(mp, theta, n: int, positive: bool, half_width) -> bool:
    lo_num, lo_den = _equation(mp, theta - half_width, n, positive)
    hi_num, hi_den = _equation(mp, theta + half_width, n, positive)
    if (lo_den < 0) != (hi_den < 0):
        return False
    return (lo_num / lo_den < 0) != (hi_num / hi_den < 0)


def theta_of(mp, lam):
    lam = mp.mpf(lam)
    return mp.acos((1 - 2 * lam - 2 * lam * lam) / (2 * lam * (lam + 1)))


def eigenvalue_mismatch(lam: float, n: int, bracket: int | None = None) -> str | None:
    """lam is a nontrivial eigenvalue of the order-n anti-regular graph.

    Its angle must sit where the defining equation changes sign, to within
    ANGLE_REL_TOL of a bracket width; with ``bracket`` given, the angle must
    also lie in that (1-based) bracket.
    """
    if FORBIDDEN_LO < lam < FORBIDDEN_HI:
        return "%r lies inside the forbidden interval" % lam
    mp = _mp()
    width = bracket_width(n)
    with mp.workdps(MP_DPS):
        theta = theta_of(mp, lam)
        if bracket is not None and not (bracket - 1) * width < theta < bracket * width:
            return "angle %s of %r is outside bracket %d" % (mp.nstr(theta, 12), lam, bracket)
        if not _root_near(mp, theta, n, lam > 0, ANGLE_REL_TOL * width):
            return "%r is not an eigenvalue of order %d" % (lam, n)
    return None


def last_bracket_mismatch(ratio: float, k: int) -> str | None:
    """ratio is the largest eigenvalue's position in the last bracket, order 2k."""
    mp = _mp()
    with mp.workdps(MP_DPS):
        lo = (k - 1) * 2 * mp.pi / (2 * k - 1)
        width = mp.pi - lo
        theta = lo + mp.mpf(ratio) * width
        if not _root_near(mp, theta, 2 * k, True, ANGLE_REL_TOL * width):
            return "ratio %r for k=%d misses the root" % (ratio, k)
    return None


def sine_ratio_mismatch(pairs, k: int, thetas) -> str | None:
    """(even ratio, odd ratio) pairs at the given angles, for half-order k.

    Even: sin(k t) / (sin(k t) + sin((k-1) t)); odd: sin((k-1) t) / sin(k t).
    Each sine of an exactly reduced argument is off by a few ulps of 2 pi,
    so the slack is that error relative to each sine, plus rounding.
    """
    mp = _mp()
    with mp.workdps(MP_DPS):
        for (even, odd), t in zip(pairs, thetas):
            t = mp.mpf(t)
            s_k, s_k1 = mp.sin(k * t), mp.sin((k - 1) * t)
            for name, got, num, den in (("even", even, s_k, s_k + s_k1),
                                        ("odd", odd, s_k1, s_k)):
                want = num / den
                rel = 4 * EPS * (2 + 1 / abs(num) + 1 / abs(den))
                if not abs(got - want) <= rel * abs(want):
                    return "%s sine ratio %r at k=%d, theta %r; expected %s" % (
                        name, got, k, float(t), mp.nstr(want, 17))
    if len(pairs) != len(thetas):
        return "%d ratio pairs for %d angles" % (len(pairs), len(thetas))
    return None


# ---------------------------------------------------------------------------
# figure data


def figure_row_mismatch(which: str, k: int, row: list[float]) -> str | None:
    """One CSV row of ``arspec figure-data`` against its closed form."""
    mp = _mp()
    with mp.workdps(MP_DPS):
        if which == "theta":
            # compared as cos(theta): acos is ill-conditioned next to the
            # forbidden interval, where theta -> 0 and one ulp of the
            # argument moves theta by ~1e-8
            lam, theta = row
            lam = mp.mpf(lam)
            arg = (1 - 2 * lam - 2 * lam * lam) / (2 * lam * (lam + 1))
            if not 0.0 <= theta <= math.pi or abs(mp.cos(theta) - arg) > 1e-12:
                return "theta %r does not match lambda %r" % (theta, float(lam))
            return None
        theta = mp.mpf(row[0])
        if which == "even-curves":
            num, den = mp.sin(k * theta), mp.sin(k * theta) + mp.sin((k - 1) * theta)
            dnum = k * mp.cos(k * theta)
            dden = dnum + (k - 1) * mp.cos((k - 1) * theta)
        else:
            num, den = mp.sin((k - 1) * theta), mp.sin(k * theta)
            dnum, dden = (k - 1) * mp.cos((k - 1) * theta), k * mp.cos(k * theta)
        ratio = num / den if den != 0 else dnum / dden  # removable endpoint
        # Next to a pole, or to the removable point at pi, no double-precision
        # evaluation does better than the sines' argument rounding (about
        # k pi eps each) divided by the denominator.
        noise = 8 * k * math.pi * EPS * (1 + abs(ratio)) / abs(den) if den else 0.0
        expected = [ratio]
        noises = [noise, 0.0, 0.0]
        for positive in (True, False):
            if which == "even-curves":
                expected.append(_branch(mp, theta, positive))
            else:
                lam = _branch(mp, theta, positive)
                expected.append((2 - lam * lam) / (lam * (lam + 1)))
        for name, got, want, slack in zip(("ratio", "positive", "negative"), row[1:],
                                          expected, noises):
            want = float(want)
            if not abs(got - want) <= 1e-9 * max(1.0, abs(want)) + float(slack):
                return "%s %r at theta %r, expected %r" % (name, got, row[0], want)
    return None
