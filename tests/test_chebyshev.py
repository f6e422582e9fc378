import math

import numpy as np
import pytest

from arspec.chebyshev import (
    chebyshev_u,
    chebyshev_u_roots,
    chebyshev_u_trig,
    toeplitz_char_poly,
)
from arspec.graphs import path_adjacency
from arspec.oracle import char_poly_eval

THETAS = [0.1, 0.4, 1.0, math.pi / 2, 2.2, 3.0]


def test_low_degrees_closed_form():
    for x in (-0.9, -0.3, 0.0, 0.5, 1.7):
        assert chebyshev_u(0, x) == 1.0
        assert chebyshev_u(1, x) == 2.0 * x
        assert chebyshev_u(2, x) == pytest.approx(4.0 * x * x - 1.0, abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 20, 50])
def test_recurrence_matches_trig_form(m):
    for theta in THETAS:
        lhs = chebyshev_u(m, math.cos(theta))
        rhs = chebyshev_u_trig(m, theta)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_endpoint_values():
    # the recurrence reproduces both endpoints exactly for small m
    for m in range(12):
        assert chebyshev_u(m, 1.0) == m + 1
        assert chebyshev_u(m, -1.0) == (m + 1) * (-1.0) ** m


@pytest.mark.parametrize("m", [1, 2, 5, 13, 50])
def test_roots_descend_and_annihilate(m):
    roots = chebyshev_u_roots(m)
    assert len(roots) == m
    assert all(roots[i] > roots[i + 1] for i in range(m - 1))
    assert all(-1.0 < r < 1.0 for r in roots)
    for r in roots:
        assert abs(chebyshev_u(m, r)) < 1e-9


@pytest.mark.parametrize("m", [1, 3, 10, 50])
def test_magnitude_bound_on_interval(m):
    xs = np.linspace(-1.0, 1.0, 1001)
    vals = chebyshev_u(m, xs)
    assert float(np.max(np.abs(vals))) <= (m + 1) * (1.0 + 1e-12)


def test_array_evaluation_matches_scalar():
    xs = np.array([-0.7, 0.1, 0.9])
    vals = chebyshev_u(9, xs)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(chebyshev_u(9, float(x)), abs=1e-13)


@pytest.mark.parametrize("m", [1, 2, 6, 11])
def test_char_poly_identity_against_lu(m):
    # det(tI - path) computed two unrelated ways must agree
    a = path_adjacency(m)
    for t in (-2.5, -1.0, -0.3, 0.0, 0.7, 1.9, 3.0):
        via_poly = toeplitz_char_poly(m, t)
        via_lu = char_poly_eval(a, t)
        assert abs(via_poly - via_lu) <= 1e-9 * max(1.0, abs(via_poly))


def test_path_eigenvalues_are_scaled_roots():
    m = 6
    for r in chebyshev_u_roots(m):
        assert abs(char_poly_eval(path_adjacency(m), 2.0 * r)) < 1e-9


def test_domain_errors():
    with pytest.raises(ValueError):
        chebyshev_u(-1, 0.5)
    with pytest.raises(ValueError):
        chebyshev_u(10 ** 6 + 1, 0.5)
    with pytest.raises(ValueError):
        chebyshev_u_trig(-1, 1.0)
    with pytest.raises(ValueError):
        chebyshev_u_trig(3, 0.0)
    with pytest.raises(ValueError):
        chebyshev_u_trig(3, math.pi)
    with pytest.raises(ValueError):
        chebyshev_u_roots(0)
    with pytest.raises(ValueError):
        toeplitz_char_poly(0, 1.0)
