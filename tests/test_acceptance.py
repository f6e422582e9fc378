"""Release gate: the twelve checks that must hold before shipping.

Each test prints one summary line on success; shared spectra are solved
once per module in fixtures.  Tolerances are pinned here on purpose, do
not loosen them to make a failure go away.
"""

import math
import time

import numpy as np
import pytest

from arspec import checks
from arspec.chebyshev import chebyshev_u, chebyshev_u_roots, chebyshev_u_trig, toeplitz_char_poly
from arspec.graphs import (
    antiregular_adjacency,
    apply_permutation,
    block_adjacency,
    block_permutation,
    inverse_block_adjacency,
    path_adjacency,
)
from arspec.oracle import char_poly_eval
from arspec.solver import (
    FORBIDDEN_HI,
    FORBIDDEN_LO,
    branch_positive,
    closure_witness,
    innermost_eigenvalues,
    last_bracket_ratio,
    solve_spectrum,
)
from arspec.threshold import omega_scan

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


@pytest.fixture(scope="module")
def spectra_500():
    return {n: solve_spectrum(n) for n in range(2, 501)}


@pytest.fixture(scope="module")
def spectrum_1000():
    return solve_spectrum(1000)


def test_criterion_01_reference_table():
    start = time.perf_counter()
    worst = 0.0
    for n, reference in TABLE1.items():
        ratio = last_bracket_ratio(n // 2)
        worst = max(worst, abs(ratio - reference))
        assert abs(ratio - reference) <= 1e-6, "row n=%d off by %.3e" % (n, ratio - reference)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print("criterion 01 PASS: 8 table rows within 1e-6 (worst %.3e, %.2fs)" % (worst, elapsed))


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    result = checks.oracle_equivalence({n: solve_spectrum(n) for n in range(2, 201)}, 1e-8)
    elapsed = time.perf_counter() - start
    assert result.status == checks.PASS, result.line()
    assert elapsed < 300.0
    print("criterion 02 PASS: solver matches oracle for n=2..200 (worst %.3e, %.1fs)" % (result.worst, elapsed))


def test_criterion_03_forbidden_interval(spectra_500):
    result = checks.forbidden_interval(spectra_500)
    assert result.status == checks.PASS, result.line()
    print("criterion 03 PASS: forbidden interval clean for n=2..500")


def test_criterion_04_monotone_innermost():
    pairs = {k: innermost_eigenvalues(k) for k in range(1, 501)}
    result = checks.monotone_innermost(pairs)
    assert result.status == checks.PASS, result.line()
    lam_pos, lam_neg = pairs[500]
    gap = branch_positive(2.0 * math.pi / 999.0) - branch_positive(0.0)
    assert 0.0 < lam_pos - FORBIDDEN_HI < gap
    assert 0.0 < FORBIDDEN_LO - lam_neg < gap
    print(
        "criterion 04 PASS: innermost pair strictly monotone for k=1..500,"
        " limits within %.3e" % gap
    )


def test_criterion_05_bracket_containment():
    result = checks.bracket_containment({2 * k: solve_spectrum(2 * k) for k in (8, 16, 125, 500)})
    assert result.status == checks.PASS, result.line()
    print("criterion 05 PASS: strict bracket bounds and root counts for k in {8,16,125,500}")


def test_criterion_06_pair_symmetry_bound(spectrum_1000):
    result = checks.pair_symmetry_bound({1000: spectrum_1000})
    assert result.status == checks.PASS, result.line()
    print("criterion 06 PASS: n=1000 pair defects within bound (worst ratio %.3f)" % result.worst)


def test_criterion_07_eigenvalue_estimates(spectrum_1000):
    result = checks.eigenvalue_estimate_bound({1000: spectrum_1000})
    assert result.status == checks.PASS, result.line()
    print("criterion 07 PASS: n=1000 estimates within bound (worst ratio %.3f)" % result.worst)


def test_criterion_08_extreme_bounds(spectra_500):
    result = checks.extreme_bounds({n: spectra_500[n] for n in range(4, 501, 2)})
    assert result.status == checks.PASS, result.line()
    print("criterion 08 PASS: extreme eigenvalue bounds hold for even n=4..500")


def test_criterion_09_closure_witnesses():
    grid = [0.21 + (10.0 - 0.21) * i / 24.0 for i in range(25)]
    grid += [-10.0 + (10.0 - 1.21) * i / 24.0 for i in range(25)]
    worst_n = 0
    for y in grid:
        n, mu = closure_witness(y, 1e-3)
        assert abs(mu - y) < 1e-3, "witness misses y=%r" % y
        assert n <= 10 ** 6, "witness order %d too large for y=%r" % (n, y)
        worst_n = max(worst_n, n)
    print("criterion 09 PASS: 50 closure witnesses within 1e-3 (largest order %d)" % worst_n)


def test_criterion_10_exhaustive_scans():
    start = time.perf_counter()
    for n in range(2, 15):
        report = omega_scan(n)
        assert report.graphs_scanned == 2 ** (n - 2)
        assert report.omega_violations == [], "violations at n=%d" % n
        assert report.extremes_attained(), "extremes not attained at n=%d" % n
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print("criterion 10 PASS: scans clean and extremes attained for n=2..14 (%.1fs)" % elapsed)


def test_criterion_11_structural_identities():
    for k in range(1, 101):
        a = block_adjacency(k)
        inv = inverse_block_adjacency(k)
        assert np.array_equal(a @ inv, np.eye(2 * k, dtype=np.int64))
    for n in range(2, 201, 2):
        conj = apply_permutation(antiregular_adjacency(n), block_permutation(n))
        assert np.array_equal(conj, block_adjacency(n // 2))
    result = checks.laplacian_integer_spectrum(range(2, 51), 1e-6)
    assert result.status == checks.PASS, result.line()
    print(
        "criterion 11 PASS: exact inverses (k<=100), block conjugation (n<=200),"
        " integer Laplacian spectra (n<=50)"
    )


def test_criterion_12_chebyshev_suite():
    for m in range(0, 51):
        for i in range(1, 40):
            theta = math.pi * i / 40.0
            lhs = chebyshev_u(m, math.cos(theta))
            rhs = chebyshev_u_trig(m, theta)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        if m >= 1:
            for r in chebyshev_u_roots(m):
                assert abs(chebyshev_u(m, r)) < 1e-9
        xs = np.linspace(-1.0, 1.0, 1001)
        assert float(np.max(np.abs(chebyshev_u(m, xs)))) <= (m + 1) * (1.0 + 1e-12)
        if m >= 1:
            a = path_adjacency(m)
            for t in (-2.5, -1.1, 0.0, 0.6, 1.7, 2.9):
                poly = toeplitz_char_poly(m, t)
                lu = char_poly_eval(a, t)
                assert abs(poly - lu) <= 1e-9 * max(1.0, abs(poly))
    print("criterion 12 PASS: recurrence, roots, bound and determinant identity for m<=50")
