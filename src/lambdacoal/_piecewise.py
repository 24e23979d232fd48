"""Piecewise polynomials in numpy, with the bits of scipy's.

A density table's L is the not-a-knot cubic spline through its nodes, or
their linear interpolant, stored as one polynomial per piece.  The
construction, the evaluation, the derivative and the root search follow
scipy's CubicSpline and PPoly operation for operation, so L and the cuts
at the roots of L and L' keep the bits scipy's classes gave them: the
spline's tridiagonal system goes to _dgtsv, a port of the LAPACK routine
dgtsv that CubicSpline reaches through solve_banded, written operation
for operation in Python floats, and the roots of a cubic piece are the
eigenvalues of PPoly's companion matrix from the routine PPoly calls,
dgeev, which np.linalg.eigvals calls too.  No scipy module loads here.
dgeev comes from numpy's LAPACK, which may be another build than
scipy's, so a cubic piece's roots can differ from PPoly's by rounding
where the two builds differ.
"""

from __future__ import annotations

import math

import numpy as np


class PiecewisePoly:
    """Polynomials on the pieces [x[i], x[i+1]] of strictly increasing
    breakpoints x: piece i is sum over j of c[j, i] (v - x[i])**(k-1-j),
    k = len(c), and the end pieces extend beyond x[0] and x[-1]."""

    def __init__(self, c: np.ndarray, x: np.ndarray):
        # what a call gathers per piece: the coefficients, then the left end
        self._rows = np.concatenate([c, x[None, :-1]])
        self.c = self._rows[:-1]
        # PPoly's sum starts at 0.0, so a constant -0.0 reads as +0.0
        self.c[-1] += 0.0
        self.x = x
        self._inner = x[1:-1]

    def __call__(self, v) -> np.ndarray:
        """Values at v, as PPoly sums them: the piece is the last one whose
        left end is at or below v, and the sum is
        ((c[k-1] + c[k-2] s) + c[k-3] s**2) + c[k-4] s**3 with s = v - x[i],
        s**2 = s s and s**3 = (s s) s."""
        v = np.asarray(v, dtype=float)
        i = self._inner.searchsorted(v, "right")
        *rows, out, s = self._rows.take(i, axis=1)
        s = v - s
        z = s
        for j, row in enumerate(reversed(rows)):
            if j:
                z = z * s
            row *= z
            out += row
        return out

    def derivative(self) -> PiecewisePoly:
        """The derivative: each coefficient times its exact integer power."""
        k = len(self.c)
        return PiecewisePoly(self.c[:-1] * np.arange(k - 1.0, 0.0, -1.0)[:, None], self.x)

    def roots(self) -> np.ndarray:
        """Real roots of each piece inside its closed interval: those of
        PPoly.roots(extrapolate=False) but for the breakpoints that function
        adds (where the sign changes from one piece to the next, and where
        a piece is identically zero, followed by a nan), and their order.
        As there, each root found in local coordinates takes one Newton
        step if the step is shorter than the root, then moves to its
        absolute position."""
        x = self.x.tolist()
        cubic = _cubic_roots(self.c)
        found = []
        for i, c in enumerate(self.c.T.tolist()):
            for r in cubic[i] if i in cubic else _local_roots(c):
                f, df = _value_and_slope(c, r)
                if df != 0.0 and abs(f / df) < abs(r):
                    r = r - f / df
                r += x[i]
                if x[i] <= r <= x[i + 1]:
                    found.append(r)
        return np.array(found)


def _value_and_slope(c: list, s: float) -> tuple:
    """The polynomial sum c[j] s**(k-1-j) and its derivative at s, summed
    as PPoly's evaluate_poly1: term after term from the constant, each
    c z (p for the derivative) with z = s**p built by repeated products."""
    k = len(c)
    f, df, z = 0.0, 0.0, 1.0
    for p in range(k):
        f = f + c[k - 1 - p] * z
        if p:
            df = df + c[k - 1 - p] * zp * p
        zp, z = z, z * s
    return f, df


def _local_roots(c: list) -> list:
    """Real roots of sum c[j] s**(k-1-j) of degree at most 2 as PPoly finds
    them, none if it is constant: its degree is that of its first nonzero
    coefficient, a line and a quadratic are solved in closed form, the
    quadratic without cancellation."""
    degree = len(c) - 1 - next((j for j, a in enumerate(c) if a != 0.0), len(c) - 1)
    if degree == 0:
        return []
    if degree == 1:
        return [-c[-1] / c[-2]]
    a2, a1, a0 = c[-3:]
    d = a1 * a1 - 4 * a2 * a0
    if d < 0:
        return []
    d = math.sqrt(d)
    if d == 0:
        return [-a1 / (2 * a2)] * 2
    if a1 < 0:
        return [(2 * a0) / (-a1 + d), (-a1 + d) / (2 * a2)]
    return [(-a1 - d) / (2 * a2), (2 * a0) / (-a1 - d)]


def _cubic_roots(c: np.ndarray) -> dict:
    """{piece: real roots} of the pieces of degree 3 among coefficients c:
    the eigenvalues of PPoly's companion matrix of each (the monic
    polynomial's coefficients down its last column, ones below the
    diagonal), from the LAPACK routine PPoly calls, dgeev, through one
    np.linalg.eigvals call on all of them."""
    pieces = np.flatnonzero(c[0] != 0.0) if len(c) == 4 else []
    if len(pieces) == 0:
        return {}
    companion = np.zeros((len(pieces), 3, 3))
    companion[:, :, 2] = (-c[:0:-1, pieces] / c[0, pieces]).T
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    w = np.linalg.eigvals(companion)
    return {i: np.real(r[np.imag(r) == 0.0]).tolist() for i, r in zip(pieces.tolist(), w)}


def not_a_knot(x: np.ndarray, y: np.ndarray) -> PiecewisePoly:
    """The not-a-knot cubic spline through (x, y), len(x) >= 4, with the
    bits of scipy's CubicSpline(x, y): its tridiagonal system for the
    slopes, solved by _dgtsv, then the Hermite coefficients.  A singular
    system raises ValueError, non-finite slopes FloatingPointError."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n = len(x)
    lower, diag, upper, rhs = np.empty(n - 1), np.empty(n), np.empty(n - 1), np.empty(n)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # the first two pieces are one cubic, and so are the last two
    w = x[2] - x[0]
    diag[0], upper[0] = dx[1], w
    rhs[0] = ((dx[0] + 2 * w) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / w
    w = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], w
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * w + dx[-1]) * dx[-2] * slope[-1]) / w
    s, info = _dgtsv(lower, diag, upper, rhs)
    if info > 0:
        raise ValueError("singular matrix")
    if not np.all(np.isfinite(s)):
        raise FloatingPointError("overflow in the spline slopes")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return PiecewisePoly(np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])), x)


def _dgtsv(lower, diag, upper, rhs) -> tuple:
    """(solution, info) of the tridiagonal system with sub-, main and
    super-diagonals lower, diag, upper and one right-hand side: LAPACK's
    dgtsv for one column, operation for operation in Python floats.
    Gaussian elimination interchanges rows i and i+1 where the
    subdiagonal entry is the larger, then a back substitution; info > 0
    is the 1-based index of the first zero pivot, and the solution is
    then None."""
    dl, d, du, b = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                return None, i + 1
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i+1; dl[i] then holds the fill-in of
            # row i two places right of the diagonal
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[-1] == 0.0:
        return None, n
    b[-1] = b[-1] / d[-1]
    if n > 1:
        b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b), 0


def linear(x: np.ndarray, y: np.ndarray) -> PiecewisePoly:
    """The linear interpolant through (x, y)."""
    return PiecewisePoly(np.array([np.diff(y) / np.diff(x), y[:-1]]), x)
