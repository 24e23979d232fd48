"""Adaptive quadrature on subintervals of (0, 1).

adaptive_integral's one caller is BetaMeasure.moment on a sub-interval
where x**(A-1) is not integrable at 0 (A <= 0, as for nu when
alpha <= 2).  It integrates the two halves of the interval after a
change of variable: u = log x on the left, z = (1-x)**B on the right.

Nested two-rule Gauss-Legendre scheme: each interval is scored with a
10-point and a 21-point rule, the discrepancy is the error estimate, and
the worst interval is bisected until the summed error estimate meets the
relative tolerance.  Fixed splitting knots near both ends of the
integration range are inserted up front; on the right half they refine
near z = 0, where z**(1/B) is not smooth for B > 1.

Integrands must accept and return numpy arrays.

_legendre is the one cache of Gauss-Legendre nodes and weights, built per
node count on first use: by _panel here and by the density tables'
per-cell moments (DensityTableMeasure._grid).  It is numpy alone, after
Hale & Townsend (2013), "Fast and accurate computation of Gauss-Legendre
and Gauss-Jacobi quadrature nodes and weights", SIAM J. Sci. Comput. 35:
Newton's method on the three-term recurrence.  Its nodes agree with
scipy.special.roots_legendre to a few ulp but not bit for bit, and its
weights are closer to the exact ones than scipy's: at 520 nodes,
1.5e-12 relative off a 40-digit reference, against 8.3e-10 for scipy's.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import NonIntegrableError

# Knots inserted near both endpoints before refinement starts.
ENDPOINT_KNOTS = (1e-12, 1e-6, 1e-3)
# Relative tolerance of the summed error estimate, and the most interval
# bisections before the integral is declared divergent.
REL_TOL = 1e-10
MAX_SPLITS = 4000

# A Newton step this short leaves the next one below rounding, as the
# iteration converges quadratically.
_NEWTON_TOL = 1e-11


@functools.lru_cache(maxsize=None)
def _legendre(count: int) -> tuple:
    """Gauss-Legendre nodes, ascending, and weights on `count` nodes.

    The roots of P_count in [0, 1) start from Tricomi's estimates and take
    Newton steps, all in one array, until the longest step is below
    _NEWTON_TOL; each weight is 2 / ((1 - x**2) P'(x)**2) at its root.
    The roots below 0 are their mirror images, and an odd count's middle
    node is exactly 0.
    """
    half = count // 2
    theta = math.pi * (4 * np.arange(1, half + 1) - 1) / (4 * count + 2)
    x = (1 - (count - 1) / (8.0 * count**3)) * np.cos(theta)
    if count % 2:
        x = np.append(x, 0.0)
    for _ in range(20):
        value, slope = _legendre_and_slope(count, x)
        step = value / slope
        x = x - step
        if np.max(np.abs(step)) < _NEWTON_TOL:
            break
    else:
        raise ArithmeticError(f"Newton's method for {count} Gauss-Legendre nodes did not converge")
    w = 2 / ((1 - x * x) * _legendre_and_slope(count, x)[1] ** 2)
    nodes = np.concatenate([-x[:half], x[half:], x[:half][::-1]])
    weights = np.concatenate([w[:half], w[half:], w[:half][::-1]])
    # the cache hands these arrays to every caller
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _legendre_and_slope(count: int, x: np.ndarray) -> tuple:
    """P_count(x) and P_count'(x): the recurrence
    P_k = t + (k-1)/k (t - P_{k-2}), t = x P_{k-1}, in place, then
    P' = count (x P_count - P_{count-1}) / (x**2 - 1)."""
    older, old, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(2, count + 1):
        np.multiply(x, old, out=t)
        older -= t
        older *= (1 - k) / k
        older += t
        older, old = old, older
    return old, count * (x * old - older) / (x * x - 1)


def _panel(fn, a: np.ndarray, b: np.ndarray):
    """Low/high rule estimates for a batch of intervals (vectorized)."""
    (x_lo, w_lo), (x_hi, w_hi) = _legendre(10), _legendre(21)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    # nodes: shape (n_intervals, n_nodes)
    pts_lo = mid[:, None] + half[:, None] * x_lo[None, :]
    pts_hi = mid[:, None] + half[:, None] * x_hi[None, :]
    f_lo = fn(pts_lo.ravel()).reshape(pts_lo.shape)
    f_hi = fn(pts_hi.ravel()).reshape(pts_hi.shape)
    est_lo = half * (f_lo @ w_lo)
    est_hi = half * (f_hi @ w_hi)
    return est_hi, np.abs(est_hi - est_lo)


def _initial_cuts(a: float, b: float) -> np.ndarray:
    cuts = {a, b}
    for knot in ENDPOINT_KNOTS:
        if a < knot < b:
            cuts.add(knot)
        mirrored = 1.0 - knot
        if a < mirrored < b:
            cuts.add(mirrored)
    return np.array(sorted(cuts))


def adaptive_integral(
    fn: Callable[[np.ndarray], np.ndarray], a: float, b: float
) -> float:
    """Integrate a vectorized integrand over [a, b].

    Raises NonIntegrableError when the error estimate will not come down,
    which is how divergent integrals surface in practice.
    """
    if not (b > a):
        return 0.0
    cuts = _initial_cuts(a, b)
    lo = cuts[:-1].copy()
    hi = cuts[1:].copy()
    vals, errs = _panel(fn, lo, hi)
    lo, hi = list(lo), list(hi)
    vals, errs = list(vals), list(errs)

    for _ in range(MAX_SPLITS):
        total = sum(vals)
        err = sum(errs)
        if not np.isfinite(total) or not np.isfinite(err):
            raise NonIntegrableError("integral is not finite")
        if err <= max(REL_TOL * abs(total), 1e-300):
            return float(total)
        worst = int(np.argmax(errs))
        wa, wb = lo[worst], hi[worst]
        mid = 0.5 * (wa + wb)
        if mid <= wa or mid >= wb:
            # Interval at floating point resolution; keep its estimate.
            errs[worst] = 0.0
            continue
        new_lo = np.array([wa, mid])
        new_hi = np.array([mid, wb])
        new_vals, new_errs = _panel(fn, new_lo, new_hi)
        lo[worst], hi[worst] = wa, mid
        vals[worst], errs[worst] = new_vals[0], new_errs[0]
        lo.append(mid)
        hi.append(wb)
        vals.append(new_vals[1])
        errs.append(new_errs[1])

    raise NonIntegrableError(
        "quadrature did not converge (divergent or pathological integrand)"
    )
