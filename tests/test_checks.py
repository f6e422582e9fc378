"""Negative controls for the check registry: fed one corrupted input, each
check must FAIL and name the order or index where the input went wrong."""

import math
from dataclasses import replace
from functools import partial

import pytest

from arspec import checks, oracle
from arspec.solver import branch_negative, innermost_eigenvalues, solve_spectrum

SPECTRA = {n: solve_spectrum(n) for n in range(2, 13)}
MIN_BOUND_10 = branch_negative(8.0 * math.pi / 9.0)  # lambda_min bound of order 10


def corrupt(n, field, index, edit):  # SPECTRA with one entry of order n edited
    values = list(getattr(SPECTRA[n], field))
    values[index] = edit(values[index])
    return {**SPECTRA, n: replace(SPECTRA[n], **{field: values})}


def assert_fails(result, fragment):
    assert result.status == checks.FAIL and fragment in result.detail, result.line()


@pytest.mark.parametrize(
    "check, n, field, index, edit, fragment",
    [
        (partial(checks.oracle_equivalence, tol=1e-8), 6, "positives", 1,
         lambda v: v + 1e-6, "max delta 1.000e-06 over n=2..12"),
        (checks.forbidden_interval, 7, "positives", 0, lambda v: 0.1, "violation at n=7"),
        (checks.bracket_containment, 9, "thetas_neg", 2, lambda v: v + 1.0, ") at n=9"),
        (checks.bracket_containment, 10, "positives", 4, lambda v: 1.0,  # largest root
         "positive bound fails at n=10 j=5"),
        (checks.bracket_containment, 10, "negatives", 1, lambda v: v - 1.0,
         "negative bound fails at n=10 j=2"),
        (checks.pair_symmetry_bound, 10, "negatives", 0, lambda v: v - 0.2,
         "defect exceeds bound at n=10 j=1"),
        (checks.eigenvalue_estimate_bound, 10, "positives", 1, lambda v: v + 0.2,
         "positive estimate off at n=10 j=2"),
        (checks.eigenvalue_estimate_bound, 10, "negatives", 1, lambda v: v - 0.2,
         "negative estimate off at n=10 j=2"),
        # each bound is strict: an eigenvalue exactly on it fails
        (checks.extreme_bounds, 10, "positives", -1, lambda v: 5.0,
         "largest eigenvalue 5.0 fails bound 5.0 at n=10"),
        (checks.extreme_bounds, 10, "negatives", -1, lambda v: MIN_BOUND_10,  # smallest root
         "smallest eigenvalue %r fails bound %r at n=10" % (MIN_BOUND_10, MIN_BOUND_10)),
    ],
)
def test_check_fails_on_a_corrupted_spectrum(check, n, field, index, edit, fragment):
    assert_fails(check(corrupt(n, field, index, edit)), fragment)


def test_extreme_bounds_skips_without_an_even_order_from_4():
    result = checks.extreme_bounds({2: SPECTRA[2], 9: SPECTRA[9]})
    assert result.status == checks.SKIP, result.line()


def test_bracket_containment_catches_a_missing_root():
    spec = SPECTRA[9]
    short = replace(spec, negatives=spec.negatives[:-1], thetas_neg=spec.thetas_neg[:-1])
    assert_fails(checks.bracket_containment({**SPECTRA, 9: short}), "root count off at n=9")


def test_laplacian_catches_an_eigenvalue_off_by_1e3(monkeypatch):
    exact = oracle.jacobi_eigenvalues

    def off_at_order_7(a):
        result = exact(a)
        if result.order == 7:
            result.eigenvalues[3] += 1e-3
        return result

    monkeypatch.setattr(oracle, "jacobi_eigenvalues", off_at_order_7)
    assert_fails(checks.laplacian_integer_spectrum(range(2, 11), 1e-6), "off by 1.000e-03 at n=7")


def test_monotone_innermost_catches_a_non_monotone_sequence():
    pairs = {k: innermost_eigenvalues(k) for k in range(1, 6)}
    bad_pos = {**pairs, 3: (pairs[2][0] + 0.01, pairs[3][1])}
    assert_fails(checks.monotone_innermost(bad_pos), "positive sequence not decreasing at k=3")
    bad_neg = {**pairs, 4: (pairs[4][0], pairs[3][1] - 0.01)}
    assert_fails(checks.monotone_innermost(bad_neg), "negative sequence not increasing at k=4")
