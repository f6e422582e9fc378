"""Chebyshev polynomials of the second kind.

These show up as characteristic polynomials of 0/1 tridiagonal Toeplitz
matrices (path graphs): det(tI - P_m) = U_m(t/2).  Everything here is plain
float arithmetic; ``chebyshev_u`` also works elementwise on numpy arrays
because the recurrence only uses ``+`` and ``*``.  Every function caps the
degree at MAX_DEGREE.
"""

import math

from .solver import _checked_int

MAX_DEGREE = 10 ** 6


def chebyshev_u(m, x):
    """Evaluate U_m(x) by the forward recurrence U_j = 2x U_{j-1} - U_{j-2}.

    The recurrence is numerically benign on [-1, 1] and grows like
    exp(m arccosh|x|) outside, so the degree is capped at MAX_DEGREE to keep
    overflow and runtime predictable.
    """
    m = _checked_int("degree", m, 0, MAX_DEGREE)
    u_prev = 1.0 + 0.0 * x  # ones_like, works for scalars and arrays
    if m == 0:
        return u_prev
    u = 2.0 * x
    for _ in range(m - 1):
        u, u_prev = 2.0 * x * u - u_prev, u
    return u


def chebyshev_u_trig(m, theta):
    """U_m(cos theta) = sin((m+1) theta) / sin(theta), for theta in (0, pi)."""
    m = _checked_int("degree", m, 0, MAX_DEGREE)
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie strictly inside (0, pi), got %r" % (theta,))
    return math.sin((m + 1) * theta) / math.sin(theta)


def chebyshev_u_roots(m):
    """Roots of U_m, cos(j pi / (m+1)) for j = 1..m, in descending order."""
    m = _checked_int("degree", m, 1, MAX_DEGREE)
    return [math.cos(j * math.pi / (m + 1)) for j in range(1, m + 1)]


def toeplitz_char_poly(m, t):
    """Characteristic polynomial of the m x m 0/1 tridiagonal Toeplitz matrix.

    Equals U_m(t/2); the matrix is the adjacency matrix of the path on m
    vertices, so its eigenvalues are 2 cos(j pi / (m+1)).
    """
    m = _checked_int("matrix order", m, 1)
    return chebyshev_u(m, 0.5 * t)
