import dataclasses
import json
import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from arspec import checks, solver
from arspec.chebyshev import chebyshev_u, chebyshev_u_roots, chebyshev_u_trig, toeplitz_char_poly
from arspec.graphs import (
    antiregular_adjacency,
    antiregular_sequence,
    apply_permutation,
    block_adjacency,
    block_permutation,
    inverse_block_adjacency,
    path_adjacency,
)
from arspec.oracle import jacobi_eigenvalues
from arspec.threshold import enumerate_connected_threshold, omega_scan, quotient_matrix
from arspec.solver import (
    FORBIDDEN_HI,
    FORBIDDEN_LO,
    BracketRootError,
    _bracket_roots,
    bracket_poles,
    branch_negative,
    branch_positive,
    branch_positive_derivative,
    closure_witness,
    eigenvalue_estimates,
    forbidden_interval_check,
    innermost_eigenvalues,
    last_bracket_ratio,
    odd_ratio_negative,
    odd_ratio_positive,
    sine_ratio_even,
    sine_ratio_odd,
    solve_spectrum,
    theta_of_lambda,
)

SQRT2 = math.sqrt(2.0)


# --- angle substitution and branches -------------------------------------


def test_forbidden_interval_endpoints():
    assert FORBIDDEN_LO == pytest.approx(-(1.0 + SQRT2) / 2.0, abs=0)
    assert FORBIDDEN_HI == pytest.approx((SQRT2 - 1.0) / 2.0, abs=0)


def test_theta_of_lambda_reference_point():
    # lambda = 1 gives cos(theta) = -3/4
    assert theta_of_lambda(1.0) == pytest.approx(math.acos(-0.75), abs=1e-12)
    assert theta_of_lambda(1.0) == pytest.approx(2.41885841, abs=1e-8)


def test_theta_of_lambda_boundary_clamps_to_zero():
    assert theta_of_lambda(FORBIDDEN_HI) == pytest.approx(0.0, abs=1e-7)
    assert theta_of_lambda(FORBIDDEN_LO) == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("lam", [0.0, -1.0, 0.1, -0.5, -1.2, 0.2, math.inf, math.nan])
def test_theta_of_lambda_rejects_gap(lam):
    with pytest.raises(ValueError):
        theta_of_lambda(lam)


@pytest.mark.parametrize("lam, expected", [
    # the cosine argument rounds to 1 - 4 ulp, 1 - 2 ulp, 1 + 2 ulp and 1 + 16 ulp:
    # one ulp inside the gap still gets an angle, within the 1e-12 clamp
    (FORBIDDEN_HI, 2.9802322387695312e-08),
    (math.nextafter(FORBIDDEN_HI, 0.0), 2.1073424255447017e-08),
    (FORBIDDEN_LO, 0.0),
    (math.nextafter(FORBIDDEN_LO, 0.0), 0.0),
    (0.0, "no angle: 0.0 lies inside the forbidden interval"),  # zero denominator
    (-0.0, "no angle: -0.0 lies inside the forbidden interval"),
    (-1.0, "no angle: -1.0 lies inside the forbidden interval"),
    (1e151, math.pi),  # the path divided through by lam^2
    (-1e151, math.pi),
    (math.inf, "no angle: inf is not finite"),
    (-math.inf, "no angle: -inf is not finite"),
    (math.nan, "no angle: nan is not finite"),
])
def test_theta_of_lambda_edges_are_pinned(lam, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match="^%s$" % re.escape(expected)):
            theta_of_lambda(lam)
    else:
        assert repr(theta_of_lambda(lam)) == repr(expected)


def test_theta_of_lambda_clamps_to_pi():
    # the cosine argument rounds to just below -1 here; the clamp maps it to pi
    lam = 7e11
    assert (1.0 - 2.0 * lam - 2.0 * lam * lam) / (2.0 * lam * (lam + 1.0)) < -1.0
    assert theta_of_lambda(lam) == math.pi


def test_theta_of_lambda_huge():
    # lam * lam overflows here; the angle still tends to pi
    assert theta_of_lambda(1e300) == pytest.approx(math.pi, rel=1e-15)
    with pytest.raises(RuntimeError, match="no witness order found"):
        closure_witness(1e300, 1e-3)


def test_branch_values_at_zero():
    assert branch_positive(0.0) == pytest.approx((SQRT2 - 1.0) / 2.0, abs=1e-15)
    assert branch_negative(0.0) == pytest.approx(-(SQRT2 + 1.0) / 2.0, abs=1e-15)


def test_branches_sum_to_minus_one():
    for i in range(10000):
        theta = math.pi * (i + 0.5) / 10001.0
        assert abs(branch_positive(theta) + branch_negative(theta) + 1.0) <= 1e-12


def test_branch_round_trip():
    for lam in (FORBIDDEN_HI, 0.3, 1.0, 2.0, 17.5):
        assert branch_positive(theta_of_lambda(lam)) == pytest.approx(lam, rel=1e-12)
    for lam in (FORBIDDEN_LO, -1.3, -2.0, -17.5):
        assert branch_negative(theta_of_lambda(lam)) == pytest.approx(lam, rel=1e-12)


def test_branch_growth_near_pi():
    # branch_positive(theta) ~ 1/(pi - theta) close to the pole
    for eps in (1e-2, 1e-4, 1e-6):
        assert branch_positive(math.pi - eps) == pytest.approx(1.0 / eps, rel=2e-2)


def test_branch_domain_errors():
    for bad in (-0.1, math.pi, 4.0):
        with pytest.raises(ValueError):
            branch_positive(bad)
        with pytest.raises(ValueError):
            branch_negative(bad)


def test_derivative_closed_point():
    assert branch_positive_derivative(math.pi / 2) == pytest.approx(
        1.0 / (2.0 * math.sqrt(3.0)), abs=1e-12
    )


def test_derivative_matches_finite_differences():
    h = 1e-6
    for i in range(100):
        theta = 0.01 + (math.pi - 0.02) * i / 99.0
        fd = (branch_positive(theta + h) - branch_positive(theta - h)) / (2.0 * h)
        assert branch_positive_derivative(theta) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_derivative_is_increasing():
    prev = 0.0
    for i in range(1, 200):
        theta = math.pi * i / 200.0
        val = branch_positive_derivative(theta)
        assert val > prev
        prev = val


def test_derivative_domain():
    with pytest.raises(ValueError):
        branch_positive_derivative(0.0)
    with pytest.raises(ValueError):
        branch_positive_derivative(math.pi)


# --- sine ratios ----------------------------------------------------------


def test_even_ratio_endpoints():
    assert sine_ratio_even(0.0, 8) == pytest.approx(8.0 / 15.0, abs=1e-15)
    assert sine_ratio_even(math.pi, 8) == 8.0
    assert sine_ratio_even(0.0, 1) == 1.0


def test_even_ratio_denominator_identity():
    # sin(k t) + sin((k-1) t) = 2 sin((2k-1) t/2) cos(t/2)
    k = 8
    for i in range(1, 200):
        theta = math.pi * i / 200.0
        direct = math.sin(k * theta) + math.sin((k - 1) * theta)
        product = 2.0 * math.sin((2 * k - 1) * 0.5 * theta) * math.cos(0.5 * theta)
        assert abs(direct - product) <= 1e-12
        num = math.sin(k * theta)
        if abs(product) > 1e-6:
            assert sine_ratio_even(theta, k) == pytest.approx(num / product, rel=1e-9)


def test_even_ratio_out_of_range_and_pole_blowup():
    k = 8
    with pytest.raises(ValueError):
        sine_ratio_even(-0.5, k)
    with pytest.raises(ValueError):
        sine_ratio_even(4.0, k)
    # the poles sit at irrational angles, so floats only graze them
    gamma_1 = 2.0 * math.pi / 15.0
    assert abs(sine_ratio_even(gamma_1 * (1.0 + 1e-12), k)) > 1e10


def test_odd_ratio_reference_values():
    assert sine_ratio_odd(0.0, 8) == pytest.approx(7.0 / 8.0, abs=1e-15)
    assert sine_ratio_odd(math.pi, 8) == pytest.approx(-7.0 / 8.0, abs=1e-15)
    assert sine_ratio_odd(0.3, 8) == pytest.approx(math.sin(2.1) / math.sin(2.4), rel=1e-12)
    assert sine_ratio_odd(0.3, 8) == pytest.approx(1.2779, abs=1e-4)


def test_odd_ratio_pole_magnitude():
    # theta = pi/2 sits on an asymptote for k = 2
    assert abs(sine_ratio_odd(math.pi / 2 * (1.0 + 1e-12), 2)) > 1e10


@pytest.mark.parametrize("k", [1, 2, 8, 10**6 + 3])
def test_even_ratio_at_the_smallest_angle(k):
    # half of 5e-324 rounds to 0, so it takes the theta = 0 value
    assert sine_ratio_even(5e-324, k) == k / (2 * k - 1)


def test_no_double_is_a_pole():
    # the denominators are exactly 0 only where theta / 2 rounds to 0; next
    # to a pole, and on the double nearest it, the ratios are finite
    thetas = [0.0, 5e-324, 1e-323, math.pi]
    for n in (4, 5, 16, 17, 2001, 2 * 10**6 + 6, 2 * 10**6 + 7):
        for j in {1, n // 4, n // 2 - 1}:
            pole = bracket_poles(n, j)[1]
            thetas += [math.nextafter(pole, 0.0), pole, math.nextafter(pole, 4.0)]
    for k in (1, 2, 8, 1000, 10**6 + 3):
        for theta in thetas:
            assert math.isfinite(sine_ratio_even(theta, k)), (theta, k)
            assert math.isfinite(sine_ratio_odd(theta, k)), (theta, k)


def test_odd_branch_ratio_endpoints():
    assert odd_ratio_positive(0.0) == pytest.approx(5.0 + math.sqrt(8.0), abs=1e-12)
    assert odd_ratio_negative(0.0) == pytest.approx(5.0 - math.sqrt(8.0), abs=1e-12)
    assert odd_ratio_positive(math.pi) == pytest.approx(-1.0, abs=1e-12)
    assert odd_ratio_negative(math.pi) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("fn, args", [
    (sine_ratio_even, (1.0, 0)),
    (sine_ratio_odd, (3.2, 3)),
    (odd_ratio_positive, (3.2,)),
    (odd_ratio_negative, (-0.1,)),
])
def test_ratio_input_checks(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_odd_ratio_consistent_with_branches():
    for i in range(1, 100):
        theta = math.pi * i / 101.0
        lam = branch_positive(theta)
        want = (2.0 - lam * lam) / (lam * (lam + 1.0))
        assert odd_ratio_positive(theta) == pytest.approx(want, rel=1e-9, abs=1e-9)
        lam = branch_negative(theta)
        want = (2.0 - lam * lam) / (lam * (lam + 1.0))
        assert odd_ratio_negative(theta) == pytest.approx(want, rel=1e-9, abs=1e-9)


# --- the reference bisection ----------------------------------------------
#
# The one-bracket-at-a-time loop that _bracket_roots replaced, with one
# residual function per parity.  The kernel writes the same float operations
# out inside its loop, so every angle, eigenvalue, residual and evaluation
# count must match these bit for bit.


def _reference_even_residual(theta, k, sign):
    half = 0.5 * theta
    c = math.cos(half)
    c1 = 2.0 * c * c
    curve = 0.5 * (sign * math.sqrt((c1 + 2.0) / c1) - 1.0)
    if half == 0.0:  # theta = 5e-324
        return k / (2.0 * k - 1.0) - curve
    m = 2 * k - 1  # half <= pi/2: _sin_mult's direct product unless m is big
    s = math.sin(m * half) if m <= solver._DIRECT_MULT_LIMIT else solver._sin_mult(m, half)
    return solver._sin_mult(k, theta) / (2.0 * s * c) - curve


def _reference_odd_residual(theta, k, sign):
    c = math.cos(0.5 * theta)
    c1 = 2.0 * c * c
    curve = 3.0 * c1 - 1.0 + sign * math.sqrt(c1 * (c1 + 2.0))
    return solver._sin_mult(k - 1, theta) / solver._sin_mult(k, theta) - curve


def _reference_bracket_root(n, sign, j, residuals=None):
    # the record (theta, lam, |residual|, evaluations); residuals, if given,
    # replaces the (even, odd) residual pair
    k, odd = n // 2, n % 2 == 1
    fn = (residuals or (_reference_even_residual, _reference_odd_residual))[odd]
    a, b = solver.bracket_poles(n, j)
    fa = fb = None
    evals = 0
    mid = 0.5 * (a + b)
    while a < mid < b:
        fm = fn(mid, k, sign)
        evals += 1
        if fm == 0.0:
            theta, resid = mid, 0.0
            break
        if (fm < 0.0) == odd:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
        mid = 0.5 * (a + b)
    else:
        if fa is None or fb is None:
            raise BracketRootError("no sign change in bracket %d of order %d" % (j, n), j)
        theta, resid = (a, abs(fa)) if abs(fa) <= abs(fb) else (b, abs(fb))
    lam = branch_positive(theta) if sign > 0 else branch_negative(theta)
    return theta, lam, resid, evals


def _reference_roots(n, sign, js, residuals=None):
    # the kernel's four columns, from the reference loop
    records = [_reference_bracket_root(n, sign, j, residuals) for j in js]
    return tuple([record[i] for record in records] for i in range(4))


def _bits(values):
    # one repr per value, flattened: repr tells -0.0 from 0.0 and keeps every
    # digit of a double, and a failure shows the first value that differs
    if isinstance(values, (list, tuple)):
        return [bits for value in values for bits in _bits(value)]
    return [repr(values)]


# Small half orders, those where 2k - 1 crosses the direct-product limit, and larger ones
_RESIDUAL_KS = (1, 2, 3, 499_999, 500_000, 500_001, 500_002, 10**6 + 1, 5_098_402)


@pytest.mark.parametrize("k", _RESIDUAL_KS)
def test_residuals_equal_the_layered_expressions(k):
    # the reference residuals are bit for bit the public ratio minus curve
    rng = random.Random(k)
    thetas = [rng.uniform(0.0, 0.5 * math.pi) for _ in range(60)]
    thetas += [rng.uniform(0.5 * math.pi, math.pi) for _ in range(60)]
    thetas += [5e-324, 1e-300, 0.5 * math.pi, math.nextafter(math.pi, 0.0)]
    for theta in thetas:
        assert _reference_odd_residual(theta, k, 1) == (
            sine_ratio_odd(theta, k) - odd_ratio_positive(theta)), theta
        assert _reference_odd_residual(theta, k, -1) == (
            sine_ratio_odd(theta, k) - odd_ratio_negative(theta)), theta
        assert _reference_even_residual(theta, k, 1) == (
            sine_ratio_even(theta, k) - branch_positive(theta)), theta
        assert _reference_even_residual(theta, k, -1) == (
            sine_ratio_even(theta, k) - branch_negative(theta)), theta


def test_evaluation_counters_count_every_residual():
    # the reference loop's residual calls, counted, against the kernel's counters
    calls = []

    def counted(fn):
        def residual(theta, k, sign):
            calls.append(theta)
            return fn(theta, k, sign)
        return residual

    residuals = (counted(_reference_even_residual), counted(_reference_odd_residual))
    for n in [*range(2, 61), 1001]:
        calls.clear()
        per_bracket = [*_reference_roots(n, 1, range(1, n // 2 + 1), residuals)[3],
                       *_reference_roots(n, -1, range(1, (n + 1) // 2), residuals)[3]]
        spec = solve_spectrum(n)
        assert spec.evaluations == len(calls) == sum(per_bracket) > 0, n
        assert spec.most_evaluations == max(per_bracket), n


# orders 2..400 in one group, then the larger ones one by one
_KERNEL_ORDERS = (tuple(range(2, 401)), (1001,), (4001,), (10**4,), (10**4 + 1,))


@pytest.mark.parametrize("orders", _KERNEL_ORDERS, ids=["2-400", "1001", "4001", "10000", "10001"])
def test_solve_spectrum_matches_the_reference_loop(orders):
    for n in orders:
        spec = solve_spectrum(n)
        pos = _reference_roots(n, 1, range(1, n // 2 + 1))
        neg = _reference_roots(n, -1, range(1, (n + 1) // 2))
        got = (spec.thetas_pos, spec.positives, spec.residuals_pos,
               spec.thetas_neg, spec.negatives, spec.residuals_neg)
        assert _bits(got) == _bits(pos[:3] + neg[:3]), n
        assert spec.evaluations == sum(pos[3] + neg[3]), n
        assert spec.most_evaluations == max(pos[3] + neg[3]), n


def _outcome(solve, n, sign):
    # the columns of one bracket, or the error's type and bracket index
    try:
        return _bits(solve(n, sign, [1]))
    except BracketRootError as exc:
        return type(exc), exc.bracket_index


@pytest.mark.parametrize("span", [(0.0, math.pi), (0.0, 1e-323), (1e-300, 0.5 * math.pi),
                                  (0.25 * math.pi, 0.75 * math.pi)])
def test_spans_across_poles_match_the_reference_loop(monkeypatch, span):
    # spans that no order's brackets give: the first midpoint is pi/2 itself,
    # or 5e-324, whose half rounds to 0; or the span holds several poles
    monkeypatch.setattr(solver, "bracket_poles", lambda n, j: span)
    for n in (2, 3, 8, 9, 40, 41, 1001, 1002, 2 * 10**6 + 4, 2 * 10**6 + 5):
        for sign in (1, -1):
            assert _outcome(_bracket_roots, n, sign) == _outcome(_reference_roots, n, sign), (
                n, sign)


# Table 1's half orders, then half orders whose sine multipliers pass 10^6
_RATIO_KS = (125, 250, 500, 1000, 2000, 4000, 8000, 16000,
             2_483_630, 5_098_402, 8 * 10**6, 2**23 + 1)


@pytest.mark.parametrize("k", _RATIO_KS)
def test_last_bracket_ratio_matches_the_reference_loop(k):
    lo, hi = bracket_poles(2 * k, k)
    want = (_reference_bracket_root(2 * k, 1, k)[0] - lo) / (hi - lo)
    assert _bits(last_bracket_ratio(k)) == _bits(want)


def test_innermost_eigenvalues_match_the_reference_loop():
    for k in range(1, 301):
        want = (_reference_bracket_root(2 * k, 1, 1)[1],
                None if k == 1 else _reference_bracket_root(2 * k, -1, 1)[1])
        assert _bits(innermost_eigenvalues(k)) == _bits(want), k


def test_closure_witnesses_match_the_reference_loop(monkeypatch):
    rng = random.Random(2026)
    calls = []
    for _ in range(300):
        y = rng.uniform(0.2, 8.0) if rng.random() < 0.5 else -rng.uniform(1.2, 9.0)
        calls.append((y, 10 ** rng.uniform(-4, -1), rng.choice(("any", "even", "odd"))))
    got = [closure_witness(*call) for call in calls]
    monkeypatch.setattr(solver, "_bracket_roots", _reference_roots)
    assert _bits(got) == _bits([closure_witness(*call) for call in calls])


def test_no_bracket_takes_more_than_54_evaluations():
    assert max(solve_spectrum(n).most_evaluations for n in range(2, 400)) <= 54


# --- brackets ---------------------------------------------------------------


def test_bracket_positions_even():
    step = 2.0 * math.pi / 15.0
    ivs = [bracket_poles(16, j) for j in range(1, 9)]
    assert ivs == [(j * step, (j + 1) * step) for j in range(7)] + [(7 * step, math.pi)]
    assert bracket_poles(16, 4)[0] == pytest.approx(6.0 * math.pi / 15.0, rel=1e-15)


def test_bracket_positions_odd():
    ivs = [bracket_poles(11, j) for j in range(1, 6)]
    assert [lo for lo, _ in ivs] == [j * math.pi / 5.0 for j in range(5)]
    assert [hi for _, hi in ivs] == [j * math.pi / 5.0 for j in range(1, 5)] + [math.pi]


def test_pole_grid_matches_per_parity_steps():
    # reference: the steps as once worked out per parity, 2 pi / (2k - 1)
    # for even order 2k and pi / k for odd order 2k + 1
    for n in range(3, 3001):
        k = n // 2
        step = math.pi / k if n % 2 else 2.0 * math.pi / (2 * k - 1)
        want = [((j - 1) * step, j * step) for j in range(1, k)] + [((k - 1) * step, math.pi)]
        assert [bracket_poles(n, j) for j in range(1, k + 1)] == want, n


def test_bracket_degenerate_and_errors():
    assert bracket_poles(2, 1) == (0.0, math.pi)
    assert bracket_poles(3, 1) == (0.0, math.pi)
    for n, j in ((1, 1), (8, 0), (8, 5), (9, 5)):
        with pytest.raises(ValueError):
            bracket_poles(n, j)


# --- full spectra -----------------------------------------------------------


def test_single_edge_spectrum():
    spec = solve_spectrum(2)
    assert spec.trivial == -1.0
    assert spec.negatives == []
    assert spec.positives == pytest.approx([1.0], abs=1e-10)
    assert spec.eigenvalues() == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_three_vertex_star_spectrum():
    spec = solve_spectrum(3)
    assert spec.trivial == 0.0
    assert spec.eigenvalues() == pytest.approx([-SQRT2, 0.0, SQRT2], abs=1e-10)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 10, 17, 40, 81])
def test_spectrum_matches_dense_oracle(n):
    cheb = solve_spectrum(n).eigenvalues()
    dense = jacobi_eigenvalues(antiregular_adjacency(n).astype(float)).eigenvalues
    assert cheb == pytest.approx(dense, abs=1e-8)


@pytest.mark.parametrize("n", [2, 9, 30, 501, 1000])
def test_residuals_stay_small(n):
    spec = solve_spectrum(n)
    worst = max(spec.residuals_pos + spec.residuals_neg)
    assert worst < 1e-9


def test_root_counts_and_containment():
    for n in range(2, 60):
        spec = solve_spectrum(n)
        k = n // 2
        assert len(spec.positives) == k
        assert len(spec.negatives) == (k if n % 2 else k - 1)
        for thetas in (spec.thetas_pos, spec.thetas_neg):
            for j, theta in enumerate(thetas, start=1):
                lo, hi = bracket_poles(n, j)
                assert lo < theta < hi


def test_positives_ascend_negatives_descend():
    spec = solve_spectrum(24)
    assert spec.positives == sorted(spec.positives)
    assert spec.negatives == sorted(spec.negatives, reverse=True)
    assert spec.negatives[0] == max(spec.negatives)


def test_solve_spectrum_validation():
    with pytest.raises(ValueError):
        solve_spectrum(1)


# every entry point of the package that takes an integer: an order n, a half
# order k, a bracket index j, a degree, a vertex image, a run length or a
# worker count
INTEGER_ARGUMENTS = {
    "bracket_poles n": lambda v: bracket_poles(v, 1),
    "bracket_poles j": lambda v: bracket_poles(16, v),
    "solve_spectrum": solve_spectrum,
    "sine_ratio_even": lambda v: sine_ratio_even(1.0, v),
    "sine_ratio_odd": lambda v: sine_ratio_odd(1.0, v),
    "innermost_eigenvalues": innermost_eigenvalues,
    "eigenvalue_estimates k": lambda v: eigenvalue_estimates(v, 1),
    "eigenvalue_estimates j": lambda v: eigenvalue_estimates(16, v),
    "last_bracket_ratio": last_bracket_ratio,
    "antiregular_sequence": antiregular_sequence,
    "path_adjacency": path_adjacency,
    "block_adjacency": block_adjacency,
    "inverse_block_adjacency": inverse_block_adjacency,
    "block_permutation": block_permutation,
    "apply_permutation image": lambda v: apply_permutation(np.arange(64).reshape(8, 8),
                                                           (v, 1, 2, 3, 4, 5, 6, 7)),
    "chebyshev_u": lambda v: chebyshev_u(v, 0.3),
    "chebyshev_u_trig": lambda v: chebyshev_u_trig(v, 1.0),
    "chebyshev_u_roots": chebyshev_u_roots,
    "toeplitz_char_poly": lambda v: toeplitz_char_poly(v, 0.5),
    "enumerate_connected_threshold": lambda v: list(enumerate_connected_threshold(v)),
    "omega_scan n": lambda v: omega_scan(v).to_json(),
    "omega_scan workers": lambda v: omega_scan(5, workers=v).to_json(),
    "quotient_matrix s": lambda v: quotient_matrix(((v, 1), (2, 3))),
    "quotient_matrix t": lambda v: quotient_matrix(((1, v), (2, 3))),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_are_not_truncated(entry):
    fn = INTEGER_ARGUMENTS[entry]
    want = repr(fn(8))
    for value in (8.0, np.int64(8)):
        assert repr(fn(value)) == want
    for value in (7.9, 8.5, "8", math.inf, math.nan):
        with pytest.raises(ValueError):
            fn(value)


# the entries that take an order n or a half order k, with their bound
ORDER_ARGUMENTS = {
    "bracket_poles n": solver._MAX_ORDER,
    "solve_spectrum": solver._MAX_ORDER,
    "sine_ratio_even": solver._MAX_K,
    "sine_ratio_odd": solver._MAX_K,
    "innermost_eigenvalues": solver._MAX_K,
    "eigenvalue_estimates k": solver._MAX_K,
    "last_bracket_ratio": solver._MAX_K,
}


@pytest.mark.parametrize("entry", sorted(ORDER_ARGUMENTS))
def test_orders_past_the_bound_are_refused(entry):
    # a 401-digit order overflowed 2.0 * k or n - 1 into an OverflowError
    fn, bound = INTEGER_ARGUMENTS[entry], ORDER_ARGUMENTS[entry]
    for value in (bound + 1, 10 ** 400):
        with pytest.raises(ValueError, match=r"must be <= %d, got %d$" % (bound, value)):
            fn(value)


def test_orders_up_to_the_bound_are_taken():
    assert bracket_poles(solver._MAX_ORDER, 1)[0] == 0.0
    assert bracket_poles(solver._MAX_ORDER, solver._MAX_K)[1] == math.pi
    assert 0.0 < sine_ratio_even(1.0, solver._MAX_K) < 2.0
    assert 0.0 < sine_ratio_odd(1.0, solver._MAX_K) < 2.0
    assert eigenvalue_estimates(solver._MAX_K, 1)[:2] == (FORBIDDEN_HI, FORBIDDEN_LO)
    # below the bound an argument still hears only of the lower end
    with pytest.raises(ValueError, match="^k must be >= 2, got 1$"):
        last_bracket_ratio(1)


def test_bracket_error_carries_index(monkeypatch):
    # the left half of the span from a bracket's left pole to its root holds
    # no sign change
    for n, sign, j, branch in ((21, 1, 5, "positive"), (20, -1, 3, "negative")):
        lo = bracket_poles(n, j)[0]
        root = _bracket_roots(n, sign, [j])[0][0]
        with monkeypatch.context() as patch:
            patch.setattr(solver, "bracket_poles", lambda n, j: (lo, 0.5 * (lo + root)))
            with pytest.raises(BracketRootError) as info:
                _bracket_roots(n, sign, [j])
        assert (info.value.bracket_index, info.value.order, info.value.sign) == (j, n, sign)
        assert str(info.value) == (
            "no sign change in bracket %d of order %d on the %s branch" % (j, n, branch))


def test_single_bracket_entry_points_match_full_solve():
    k = 13
    spec = solve_spectrum(2 * k)
    lo, hi = bracket_poles(2 * k, k)
    assert last_bracket_ratio(k) == (spec.thetas_pos[-1] - lo) / (hi - lo)
    # verify reads the innermost pairs off the even-order spectra
    for k in range(1, 31):
        spec = solve_spectrum(2 * k)
        assert innermost_eigenvalues(k) == (spec.positives[0], spec.negatives[0] if k > 1 else None)
    for target, parity in ((0.3, "any"), (-2.0, "even"), (0.4, "odd")):
        n, mu = closure_witness(target, 1e-2, parity)
        spec = solve_spectrum(n)
        assert mu in (spec.positives if target > 0 else spec.negatives)


@pytest.mark.parametrize("k", [2_000_000, 2_483_630, 5_098_402])
def test_huge_order_argument_reduction(k):
    # one bracket solved with the exact integer sine path (k > 10^6)
    ratio = last_bracket_ratio(k)
    assert 0.5 < ratio < 0.5001


# 2 pi to 60 significant digits, as a rational
_TWO_PI_FRACTION = Fraction("6.28318530717958647692528676655900576839433879875021164194989")


def _fraction_reduction(j, theta):
    return float((Fraction(j) * Fraction(theta)) % _TWO_PI_FRACTION)


def test_integer_reduction_matches_rational_reference():
    rng = random.Random(20260)
    pairs = [(rng.randint(solver._DIRECT_MULT_LIMIT + 1, 2 ** 25), rng.uniform(0.0, math.pi))
             for _ in range(12_000)]
    assert sum(theta < 0.5 * math.pi for _, theta in pairs) > 5000
    assert sum(theta > 0.5 * math.pi for _, theta in pairs) > 5000
    edges = (0.0, 5e-324, 1e-300, 1e-20, math.pi, math.nextafter(math.pi, 0.0))
    pairs += [(j, theta) for j in (solver._DIRECT_MULT_LIMIT + 1, 8_000_000, 2 ** 25)
              for theta in edges]
    for j, theta in pairs:
        reduced = solver._reduce_two_pi(j, theta)
        assert reduced == _fraction_reduction(j, theta), (j, theta)
        assert solver._sin_mult(j, theta) == math.sin(reduced)


@pytest.mark.parametrize("k, ratio", [(8_000_000, 0.5000000327950507),
                                      (2 ** 23 + 1, 0.5000000296449201)])
def test_last_bracket_ratio_pinned_above_a_million(k, ratio):
    assert last_bracket_ratio(k) == ratio


def _reference_brackets():
    for n in (1501, 15001, 100000):
        k = n // 2
        for j in (1, 2, k // 2, k - 1, k):
            for branch in ("positive", "negative"):
                if not (branch == "negative" and j == k and n % 2 == 0):
                    yield n, branch, j
    for k in (2_483_630, 5_098_402):
        yield 2 * k, "positive", k


@pytest.mark.parametrize("n, branch, j", list(_reference_brackets()))
def test_roots_match_mpmath_reference(n, branch, j):
    # the defining equation at 40 digits, solved from the float root
    k, sign = n // 2, (1 if branch == "positive" else -1)
    (theta,), (lam_got,) = _bracket_roots(n, sign, [j])[:2]
    with mpmath.workdps(40):

        def lam(t):
            return (-1 + sign * mpmath.sqrt((mpmath.cos(t) + 3) / (mpmath.cos(t) + 1))) / 2

        def residual(t):
            if n % 2:
                return mpmath.sin((k - 1) * t) / mpmath.sin(k * t) - (2 - lam(t) ** 2) / (
                    lam(t) * (lam(t) + 1))
            return mpmath.sin(k * t) / (mpmath.sin(k * t) + mpmath.sin((k - 1) * t)) - lam(t)

        t0 = mpmath.mpf(theta)
        root = mpmath.findroot(residual, (t0, t0 * (1 + mpmath.mpf("1e-13"))))
        lo, hi = bracket_poles(n, j)
        assert lo < root < hi
        assert abs(theta - root) <= 2 * math.ulp(theta)
        lam_ref = lam(root)
        # above k = 10^6 one ulp of theta alone moves lambda by more than 1e-10
        slope = branch_positive_derivative(theta)
        assert abs(lam_got - lam_ref) <= max(1e-10 * abs(lam_ref), 2 * math.ulp(theta) * slope)


# --- wire formats -----------------------------------------------------------


def test_spectrum_json_shape():
    doc = json.loads(solve_spectrum(9).to_json())
    assert set(doc) == {
        "n",
        "trivial",
        "positives",
        "negatives",
        "thetas_pos",
        "thetas_neg",
        "residuals",
    }
    assert doc["n"] == 9
    assert doc["trivial"] == 0.0
    assert len(doc["positives"]) == 4
    assert len(doc["negatives"]) == 4
    assert len(doc["residuals"]) == 8


def test_spectrum_csv_shape():
    text = solve_spectrum(8).to_csv()
    lines = text.strip("\r\n").split("\r\n")
    assert lines[0] == "index,sign_class,theta,lambda,residual,bracket_lo,bracket_hi"
    assert lines[1].startswith("0,trivial,,")
    assert len(lines) == 1 + 1 + 4 + 3
    row = lines[2].split(",")
    assert row[1] == "positive"
    assert float(row[3]) > 0.0
    # bracket j runs from pole (j - 1) step to pole j step, the last one to pi
    for n, step in ((8, 2.0 * math.pi / 7.0), (9, math.pi / 4.0)):
        rows = [line.split(",") for line in solve_spectrum(n).to_csv().split("\r\n")[2:-1]]
        assert len(rows) == n - 1
        for row in rows:
            j = int(row[0])
            assert float(row[5]) == (j - 1) * step
            assert float(row[6]) == (j * step if j < n // 2 else math.pi)


# --- derived quantities -----------------------------------------------------


def test_forbidden_interval_margins():
    # the interval is open: eigenvalues on its endpoints clear it, one ulp inside does not
    spec = solve_spectrum(10)
    assert forbidden_interval_check(spec)
    on_ends = dataclasses.replace(spec, positives=[FORBIDDEN_HI], negatives=[FORBIDDEN_LO])
    assert forbidden_interval_check(on_ends)
    inside = math.nextafter(FORBIDDEN_HI, 0.0)
    assert not forbidden_interval_check(dataclasses.replace(spec, positives=[inside]))
    inside = math.nextafter(FORBIDDEN_LO, 0.0)
    assert not forbidden_interval_check(dataclasses.replace(spec, negatives=[inside]))


def test_extreme_bounds_even():
    spec = solve_spectrum(8)
    assert spec.positives[-1] > 4.0
    assert min(spec.negatives) > branch_negative(6.0 * math.pi / 7.0)
    result = checks.extreme_bounds({8: spec})
    assert result.status == checks.PASS, result.line()


def test_last_bracket_ratio_reference_row():
    assert last_bracket_ratio(125) == pytest.approx(0.5020031290, abs=1e-6)
    with pytest.raises(ValueError):
        last_bracket_ratio(1)


def test_last_bracket_ratio_drifts_to_half():
    assert abs(last_bracket_ratio(500) - 0.5) < 0.003


def test_innermost_pair_and_limits():
    lam_pos, lam_neg = innermost_eigenvalues(1)
    assert lam_neg is None
    assert lam_pos == pytest.approx(1.0, abs=1e-10)
    prev_pos, prev_neg = None, None
    for k in range(1, 41):
        lam_pos, lam_neg = innermost_eigenvalues(k)
        assert lam_pos > FORBIDDEN_HI
        if prev_pos is not None:
            assert lam_pos < prev_pos
        prev_pos = lam_pos
        if lam_neg is not None:
            assert lam_neg < FORBIDDEN_LO
            if prev_neg is not None:
                assert lam_neg > prev_neg
            prev_neg = lam_neg


def test_innermost_matches_full_solve():
    spec = solve_spectrum(26)
    lam_pos, lam_neg = innermost_eigenvalues(13)
    assert lam_pos == pytest.approx(spec.positives[0], abs=1e-12)
    assert lam_neg == pytest.approx(spec.negatives[0], abs=1e-12)


def test_symmetry_defect_under_bound():
    result = checks.pair_symmetry_bound({16: solve_spectrum(16)})
    assert result.status == checks.PASS and result.worst <= 1.0, result.line()


def test_estimates_bound_and_halving():
    spec = solve_spectrum(16)
    for j in range(1, 8):
        est_pos, est_neg, bound = eigenvalue_estimates(8, j)
        assert abs(spec.positives[j - 1] - est_pos) <= bound
        assert abs(spec.negatives[j - 1] - est_neg) <= bound
    # doubling k with the same pole index ratio roughly halves the bound
    _, _, b1 = eigenvalue_estimates(8, 4)
    _, _, b2 = eigenvalue_estimates(16, 8)
    assert b2 < 0.6 * b1
    # the bound is 2 pi branch_positive_derivative(gamma_j) / (2k - 1) exactly
    for k in (2, 8, 501, 10**6):
        for j in sorted({1, k // 2, k - 1}):
            gamma = bracket_poles(2 * k, j)[1]
            formula = 2.0 * math.pi * branch_positive_derivative(gamma) / (2 * k - 1)
            assert eigenvalue_estimates(k, j)[2] == formula
    with pytest.raises(ValueError):
        eigenvalue_estimates(8, 8)


# --- closure witnesses -------------------------------------------------------


def test_witness_trivial_values():
    assert closure_witness(0.0, 1e-6) == (3, 0.0)
    assert closure_witness(-1.0, 1e-6) == (2, -1.0)


def test_witness_near_positive_target():
    n, mu = closure_witness(0.3, 1e-3)
    assert abs(mu - 0.3) < 1e-3
    assert n % 2 == 0 and n >= 4


def test_witness_near_negative_target():
    n, mu = closure_witness(-2.0, 1e-3)
    assert abs(mu + 2.0) < 1e-3


def test_witness_odd_parity():
    n, mu = closure_witness(0.4, 1e-3, parity="odd")
    assert n % 2 == 1
    assert abs(mu - 0.4) < 1e-3


@pytest.mark.parametrize(
    "target, expected",
    [
        (0.05, "no witness"),  # deep inside: no angle exists
        (-0.5, "no witness"),
        (FORBIDDEN_HI - 1e-13, "no witness"),  # inside by less than the angle clamp
        (FORBIDDEN_HI, (44, 0.207982046927507)),  # the endpoint is a limit point
    ],
)
def test_witness_gap_is_open(target, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            closure_witness(target, 1e-3)
    else:
        assert closure_witness(target, 1e-3) == expected


_NO_WITNESS = "no witness order found for y=%r at epsilon=0.001 within supported range"


@pytest.mark.parametrize("target, epsilon, even, odd", [
    (FORBIDDEN_HI, 1e-3, (44, 0.207982046927507), (43, 0.20808510482471754)),
    (0.25, 1e-3, (662, 0.25019509135354845), (661, 0.2505470885037455)),
    (0.25, 1e-2, (72, 0.2524927079783327), (73, 0.253044464882357)),
    (1.0, 1e-3, (11094, 0.9998766125398582), (11093, 1.0007213260607584)),
    (7.25, 1e-3, (374296, 7.249762021200437), (374297, 7.249781280867014)),
    (20.0, 1e-3, (2637498, 19.99950256048061), (2637499, 20.000510088321942)),
    (120.0, 1e-2, (9123788, 119.99477269838573), (9123787, 120.00475856531324)),
    (120.0, 1e-3, _NO_WITNESS % 120.0, _NO_WITNESS % 120.0),
    (FORBIDDEN_LO, 1e-3, (44, -1.2080403045427328), (43, -1.2080226709410828)),
    (-1.25, 1e-3, (662, -1.2503991325240218), (661, -1.2503419778024543)),
    (-2.0, 1e-3, (11094, -2.0003363314972913), (11093, -2.0002612434426688)),
    (-2.0, 1e-2, (1120, -2.0005940702665272), (1119, -1.999850071301161)),
    (-3.5, 1e-3, (53450, -3.4999530492826296), (53449, -3.499908100012994)),
    (-20.0, 1e-3, (2386164, -20.000166135281912), (2386165, -20.000174509703097)),
    (-120.0, 1e-2, (8972984, -119.99973226896928), (8972985, -119.999745642109)),
    (-120.0, 1e-3, _NO_WITNESS % -120.0, _NO_WITNESS % -120.0),
])
def test_witness_orders_are_pinned(target, epsilon, even, odd):
    # "any" gives the even witness; the error rows need k past 2^23
    for parity, expected in (("any", even), ("even", even), ("odd", odd)):
        if isinstance(expected, str):
            with pytest.raises(RuntimeError, match="^%s$" % re.escape(expected)):
                closure_witness(target, epsilon, parity)
        else:
            assert closure_witness(target, epsilon, parity) == expected


def _witness_test(y, epsilon, odd, k):
    # the test closure_witness confirms its order with: half order k passes
    # when one pole step past y's angle stays short of the last bracket, with
    # the branch value there within epsilon of y
    step = 2.0 * math.pi / (2 * k + odd - 1)
    end = theta_of_lambda(y) + step
    return end <= (k - 1) * step and _witness_distance(y, odd, k) < epsilon


def _witness_distance(y, odd, k):
    # |branch(theta' + step) - y|, which _witness_test holds below epsilon
    step = 2.0 * math.pi / (2 * k + odd - 1)
    branch = branch_positive if y > 0.0 else branch_negative
    return abs(branch(theta_of_lambda(y) + step) - y)


def _reference_witness_order(y, epsilon, odd):
    # the bisection closure_witness ran before its closed-form guess: the
    # least half order in 2..2^23 that passes _witness_test, None if none
    lo, hi = 1, 2 ** 23  # k = 1 fails
    if not _witness_test(y, epsilon, odd, hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _witness_test(y, epsilon, odd, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _eigenvalue_at_angle(y, n):
    # the order-n eigenvalue on y's branch in the bracket holding y's angle
    theta = theta_of_lambda(y)
    j = int(theta // (2.0 * math.pi / (n - 1))) + 1
    lo, hi = bracket_poles(n, j)
    assert lo <= theta < hi
    return _bracket_roots(n, 1 if y > 0.0 else -1, [j])[1][0]


def test_witness_order_is_least_and_every_larger_order_is_a_witness():
    rng = random.Random(23)
    for _ in range(100):
        y = rng.uniform(0.25, 20.0)
        y = y if rng.random() < 0.5 else -1.0 - y  # its mirror on the negative branch
        epsilon = 10 ** rng.uniform(-3.0, -1.0)
        odd = rng.random() < 0.5
        n, mu = closure_witness(y, epsilon, "odd" if odd else "even")
        k = n // 2
        assert n % 2 == odd and abs(mu - y) < epsilon
        assert _witness_test(y, epsilon, odd, k) and not _witness_test(y, epsilon, odd, k - 1)
        larger = [rng.randrange(n + 202, 2 ** 24 + 1, 2) for _ in range(5)]
        for m in [*range(n, n + 201, 2), *larger]:
            assert abs(_eigenvalue_at_angle(y, m) - y) < epsilon, (y, epsilon, n, m)


def _witness_outcome(y, epsilon, parity):
    try:
        return repr(closure_witness(y, epsilon, parity))
    except RuntimeError as error:
        return str(error)


def _reference_witness_outcome(y, epsilon, parity):
    odd = parity == "odd"
    k = _reference_witness_order(y, epsilon, odd)
    if k is None:
        return ("no witness order found for y=%r at epsilon=%r within supported range"
                % (y, epsilon))
    return repr((2 * k + odd, _eigenvalue_at_angle(y, 2 * k + odd)))


def _witness_calls(rng, count):
    # targets at both gap ends, on either branch up to 50, and log-uniform
    # up to the float range; tolerances log-uniform in 1e-12..1 and 1..1e308,
    # and inf
    big = 1.7976931348623157e308
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            y = FORBIDDEN_HI
        elif kind < 0.3:
            y = FORBIDDEN_LO
        elif kind < 0.65:
            y = rng.uniform(FORBIDDEN_HI, 50.0)
        elif kind < 0.95:
            y = 10 ** rng.uniform(0.0, 308.0)
        else:
            y = rng.choice((1e150, 1.0000000000000002e150, 1e308, big))
        if kind >= 0.3 and rng.random() < 0.5:
            y = -1.0 - y  # its mirror on the negative branch
        spread = rng.random()
        epsilon = (10 ** rng.uniform(-12.0, 0.0) if spread < 0.6
                   else 10 ** rng.uniform(0.0, 308.0) if spread < 0.95 else math.inf)
        yield y, epsilon, rng.choice(("any", "even", "odd"))


def test_closed_form_witness_matches_the_bisection():
    calls = [*_witness_calls(random.Random(24), 2000),
             # y + epsilon or y - epsilon past the float range
             (1e308, 1e308, "even"), (-1e308, 1e308, "odd"), (3.0, 1.7e308, "any"),
             (FORBIDDEN_HI, 1e308, "odd"), (FORBIDDEN_LO, math.inf, "even"),
             (1.7976931348623157e308, 1e-3, "even"), (-1.7976931348623157e308, 1e300, "odd")]
    for call in calls:
        assert _witness_outcome(*call) == _reference_witness_outcome(*call), call


@pytest.mark.parametrize("y", [5.0, -5.0, 150.0, -150.0])
@pytest.mark.parametrize("odd", [False, True])
def test_closed_form_witness_at_the_cap(y, odd):
    # epsilon set so that the least passing half order is 2^23, the cap,
    # and then 2^23 + 1, one past it
    top, parity = 2 ** 23, "odd" if odd else "even"
    at_cap, past_cap = _witness_distance(y, odd, top - 1), _witness_distance(y, odd, top)
    assert _witness_distance(y, odd, top + 1) < past_cap < at_cap
    assert _reference_witness_order(y, at_cap, odd) == top
    assert _reference_witness_order(y, past_cap, odd) is None
    for epsilon in (at_cap, past_cap):
        want = _reference_witness_outcome(y, epsilon, parity)
        assert _witness_outcome(y, epsilon, parity) == want


@pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_every_order_past_the_witness_has_eigenvalues_near_the_gap_ends(epsilon, parity):
    # the abstract's claim at the ends of the forbidden interval, with the
    # witness order as the explicit "n sufficiently large"
    rng = random.Random(int(-math.log10(epsilon)) * 2 + (parity == "odd"))
    result = checks.eventual_containment(epsilon, parity, rng)
    assert result.status == checks.PASS, result.line()


def test_witness_checks_its_own_bound(monkeypatch):
    # a root from the wrong bracket must not pass as a witness
    solve = solver._bracket_roots
    monkeypatch.setattr(solver, "_bracket_roots", lambda n, sign, js: solve(n, sign, [1]))
    with pytest.raises(RuntimeError, match="witness bound violated"):
        closure_witness(7.25, 1e-2)


def test_witness_rejects_gap_and_bad_epsilon():
    with pytest.raises(ValueError):
        closure_witness(0.3, 0.0)
    with pytest.raises(ValueError):
        closure_witness(0.3, 1e-3, parity="either")
