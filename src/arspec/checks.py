"""Every check of a spectral statement, shared by `arspec verify` and the
acceptance tests: solver.py computes spectra, bounds and estimates, and
the PASS/FAIL/SKIP decision is made here.

Each check takes what its caller computed (spectra keyed by ascending
order, innermost pairs keyed by ascending k, or a range of orders) and
returns a CheckResult; a FAIL names the order (and pair index j) at fault,
oracle-equivalence its largest difference.  eventual-containment, which
verify leaves out, solves its own orders past a witness order instead,
drawing some of them from the caller's random source.  solver, oracle
and graphs are looked up as module attributes at call time because
perfbench/tracer.py wraps these calls by rebinding those attributes (tests
rebind them too); ROADMAP item 7, counters on the results, retires that
constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import graphs, oracle, solver

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS, FAIL or SKIP
    detail: str
    worst: float | None = None  # oracle delta or defect/bound ratio, when a caller prints it

    def line(self) -> str:
        return "%s: %s (%s)" % (self.name, self.status, self.detail)


def _span(keys) -> str:
    return "%d..%d" % (min(keys), max(keys))


def _even_pairs(spectra):
    """(n, spec, j) for every pair index j = 1..k-1 of the even orders."""
    return [(n, s, j) for n, s in spectra.items() if n % 2 == 0 for j in range(1, s.k)]


def oracle_equivalence(spectra, tol: float) -> CheckResult:
    """Solver eigenvalues within tol of the dense oracle's."""
    if not spectra:
        return CheckResult("oracle-equivalence", SKIP, "needs a solved order")
    worst = 0.0
    for n, spec in spectra.items():
        dense = oracle.jacobi_eigenvalues(graphs.antiregular_adjacency(n)).eigenvalues
        worst = max(worst, max(abs(c - d) for c, d in zip(spec.eigenvalues(), dense)))
    detail = "max delta %.3e over n=%s (tol %.1e)" % (worst, _span(spectra), tol)
    return CheckResult("oracle-equivalence", PASS if worst <= tol else FAIL, detail, worst)


def forbidden_interval(spectra) -> CheckResult:
    """No nontrivial eigenvalue inside the forbidden interval."""
    if not spectra:
        return CheckResult("forbidden-interval", SKIP, "needs a solved order")
    for n, spec in spectra.items():
        if not solver.forbidden_interval_check(spec):
            return CheckResult("forbidden-interval", FAIL, "violation at n=%d" % n)
    return CheckResult("forbidden-interval", PASS, "clean for n=%s" % _span(spectra))


def bracket_containment(spectra) -> CheckResult:
    """Root counts, angles strictly inside their brackets and, for even order,
    eigenvalues strictly between the branch values at their bracket ends."""
    name = "bracket-containment"
    if not spectra:
        return CheckResult(name, SKIP, "needs a solved order")

    def fail(detail):
        return CheckResult(name, FAIL, detail)

    for n, spec in spectra.items():
        # k positive roots; k - 1 negative ones for even n = 2k, k for odd
        if len(spec.positives) != spec.k or len(spec.negatives) != (n - 1) // 2:
            return fail("root count off at n=%d" % n)
        for thetas in (spec.thetas_pos, spec.thetas_neg):
            for j, theta in enumerate(thetas, start=1):
                lo, hi = solver.bracket_poles(n, j)
                if not lo < theta < hi:
                    return fail("angle %r escapes (%r, %r) at n=%d" % (theta, lo, hi, n))
        if n % 2:
            continue
        for j in range(1, spec.k + 1):
            lo, hi = solver.bracket_poles(n, j)
            # the last bracket ends at pi, where the positive branch is unbounded
            upper = solver.branch_positive(hi) if j < spec.k else float("inf")
            if not solver.branch_positive(lo) < spec.positives[j - 1] < upper:
                return fail("positive bound fails at n=%d j=%d" % (n, j))
            if j < spec.k and not (
                solver.branch_negative(hi) < spec.negatives[j - 1] < solver.branch_negative(lo)
            ):
                return fail("negative bound fails at n=%d j=%d" % (n, j))
    detail = "angles and eigenvalue bounds hold for n=%s" % _span(spectra)
    return CheckResult(name, PASS, detail)


def pair_symmetry_bound(spectra) -> CheckResult:
    """|lambda_plus_j + lambda_minus_j + 1| within its bound, even orders."""
    name = "pair-symmetry-bound"
    pairs = _even_pairs(spectra)
    if not pairs:
        return CheckResult(name, SKIP, "needs an even order >= 4")
    worst = 0.0
    for n, spec, j in pairs:
        defect = abs(spec.positives[j - 1] + spec.negatives[j - 1] + 1.0)
        # each paired root lies within the estimate bound of its branch value,
        # and the two branch values sum to -1
        bound = 2.0 * solver.eigenvalue_estimates(spec.k, j)[2]
        if defect > bound:
            return CheckResult(name, FAIL, "defect exceeds bound at n=%d j=%d" % (n, j))
        worst = max(worst, defect / bound)
    return CheckResult(name, PASS, "%d pair defects within bound" % len(pairs), worst)


def eigenvalue_estimate_bound(spectra) -> CheckResult:
    """Closed-form estimates of each even-order pair within their bound."""
    name = "eigenvalue-estimate-bound"
    pairs = _even_pairs(spectra)
    if not pairs:
        return CheckResult(name, SKIP, "needs an even order >= 4")
    worst = 0.0
    for n, spec, j in pairs:
        est_pos, est_neg, bound = solver.eigenvalue_estimates(spec.k, j)
        dp = abs(spec.positives[j - 1] - est_pos)
        dn = abs(spec.negatives[j - 1] - est_neg)
        if dp > bound:
            return CheckResult(name, FAIL, "positive estimate off at n=%d j=%d" % (n, j))
        if dn > bound:
            return CheckResult(name, FAIL, "negative estimate off at n=%d j=%d" % (n, j))
        worst = max(worst, dp / bound, dn / bound)
    return CheckResult(name, PASS, "%d estimates within bound" % len(pairs), worst)


def extreme_bounds(spectra) -> CheckResult:
    """lambda_max > n/2 and lambda_min above the negative branch at the last
    pole (n - 2) pi / (n - 1), for every even order n >= 4."""
    name = "extreme-bounds"
    orders = [n for n in spectra if n % 2 == 0 and n >= 4]
    if not orders:
        return CheckResult(name, SKIP, "needs an even order >= 4")
    for n in orders:
        lam_max, max_bound = spectra[n].positives[-1], n / 2.0
        if not lam_max > max_bound:
            detail = "largest eigenvalue %r fails bound %r at n=%d" % (lam_max, max_bound, n)
            return CheckResult(name, FAIL, detail)
        lam_min = min(spectra[n].negatives)
        min_bound = solver.branch_negative((n - 2.0) * math.pi / (n - 1.0))
        if not lam_min > min_bound:
            detail = "smallest eigenvalue %r fails bound %r at n=%d" % (lam_min, min_bound, n)
            return CheckResult(name, FAIL, detail)
    return CheckResult(name, PASS, "extreme bounds hold for even n=%s" % _span(orders))


def laplacian_integer_spectrum(orders, tol: float) -> CheckResult:
    """Dense Laplacian spectrum within tol of 0..n without (n + 1) // 2."""
    name = "laplacian-integer-spectrum"
    if not orders:
        return CheckResult(name, SKIP, "needs an order")
    for n in orders:
        lap = graphs.laplacian(graphs.antiregular_adjacency(n))
        eigs = oracle.jacobi_eigenvalues(lap).eigenvalues
        expected = sorted(set(range(n + 1)) - {(n + 1) // 2})
        off = max(abs(e - x) for e, x in zip(eigs, expected))
        if off > tol:
            return CheckResult(name, FAIL, "Laplacian spectrum off by %.3e at n=%d" % (off, n))
    return CheckResult(name, PASS, "integer Laplacian spectra for n=%s" % _span(orders))


def monotone_innermost(pairs) -> CheckResult:
    """pairs maps k to its innermost pair, the negative one None at k = 1;
    positives strictly decrease and negatives strictly increase in k."""
    name = "monotone-innermost"
    if len(pairs) < 2:
        return CheckResult(name, SKIP, "needs k >= 2")
    prev_pos = prev_neg = None
    for k, (lam_pos, lam_neg) in pairs.items():
        if prev_pos is not None and not lam_pos < prev_pos:
            return CheckResult(name, FAIL, "positive sequence not decreasing at k=%d" % k)
        prev_pos = lam_pos
        if lam_neg is not None:
            if prev_neg is not None and not lam_neg > prev_neg:
                return CheckResult(name, FAIL, "negative sequence not increasing at k=%d" % k)
            prev_neg = lam_neg
    return CheckResult(name, PASS, "innermost pair monotone for k=%s" % _span(pairs))


def eventual_containment(epsilon: float, parity: str, rng) -> CheckResult:
    """From the witness order N = closure_witness(end, epsilon, parity) on,
    each order of N's parity has its first-bracket eigenvalue on the branch
    of end within epsilon of end and outside the gap, at both ends of the
    forbidden interval: the abstract's "for all n sufficiently large", with
    N as the explicit bound.  Checked at N, N + 2, ..., N + 400 and at 20
    orders drawn by rng from N + 402..max(10^6, 2N) of N's parity."""
    name = "eventual-containment"
    witnesses = []
    for end, sign, outward in ((solver.FORBIDDEN_HI, 1, 1.0), (solver.FORBIDDEN_LO, -1, -1.0)):
        n = solver.closure_witness(end, epsilon, parity)[0]
        witnesses.append(n)
        larger = [rng.randrange(n + 402, max(10 ** 6, 2 * n) + 1, 2) for _ in range(20)]
        for m in [*range(n, n + 401, 2), *larger]:
            lam = solver._bracket_roots(m, sign, [1])[1][0]
            if not 0.0 < (lam - end) * outward < epsilon:
                detail = "eigenvalue %r not within %r of %r at n=%d" % (lam, epsilon, end, m)
                return CheckResult(name, FAIL, detail)
    detail = "221 orders each from N=%d (upper end) and N=%d (lower end) within %r" % (
        *witnesses, epsilon)
    return CheckResult(name, PASS, detail)
