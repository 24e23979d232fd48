"""Driving measures on [0, 1] and the functionals they induce.

A finite measure L on [0, 1] drives a multiple-merger coalescent, and
nu(dx) = L(dx) / x**2 is the jump intensity of the multiplicative
subordinator behind the composition and population samplers.  Every
functional either side needs is one moment

    moment(p, q, lo, hi) = integral over (lo, hi] of x**p (1-x)**q L(dx),

the interval closed at 0 when lo = 0 (an atom at 0 counts in every
integral that starts there), and q >= 0:

    total mass                          p = 0,    q = 0
    rate(b, k), a k-subset of b merging p = k-2,  q = b-k
    dust integral, of 1/x               p = -1,   q = 0
    single-ball weight                  p = -1,   q = n-1
    nu(eps, 1]                          p = -2,   q = 0,   over (eps, 1]
    integral of x nu(dx) below eps      p = -1,   q = 0,   over (0, eps]

A moment that diverges raises NonIntegrableError, and each functional
reports it in its own domain: DustConditionError for the 1/x integrals,
InfiniteActivityError for nu, PopulationSupportError for the standing
assumptions of the population construction.

Each representation is one class with `moment`, `descriptor` (its
canonical text form) and the rule by which it draws from nu restricted
to (eps, 1], normalized: `_nu_candidates` (one round's candidates from
one generator) and `_nu_accept` (the sizes and keep mask of any rounds
joined).  sample_jump_sizes runs the rounds of one generator
(_nu_rounds), and the window draw kernel those of a whole block in
lockstep (_nu_rows).

* AtomicMeasure       weighted atoms: sums over the atoms, inverse cdf
                      for nu (one round that keeps every size)
* BetaMeasure         mass * Beta(alpha, beta) density: complete and
                      incomplete Beta functions, power-law envelope
                      rejection for nu
* DensityTableMeasure density tabulated inside (0, 1): one piecewise
                      polynomial, Gauss-Legendre moments per cell, envelope
                      rejection for nu from the same L(x)/x**2

Only BetaMeasure needs special functions: betaln and betainc from
_special.py, on the math module.  No measure imports scipy.

With mutation rate mu >= 0 and a sample of size n, the weight of the event
"the smallest of n uniform balls is in a part of size m" is

    weight(n, m) = mu*n*[m == 1] + C(n, m) * integral x**m (1-x)**(n-m) nu(dx),

and for m >= 2 the integral collapses to rate(n, m).  The m = 1 weight
splits into a mutation part mu*n and a lone-litter part, which the law
object exposes separately; the split is what closes the loop between the
exact recursion and the subordinator samplers.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from ._piecewise import linear, not_a_knot
from ._quadrature import _legendre, adaptive_integral
from ._special import betainc, betaln
from .errors import (
    DegenerateMeasureError,
    DustConditionError,
    InfiniteActivityError,
    MeasureSpecError,
    NonIntegrableError,
    PopulationSupportError,
)

__all__ = [
    "AtomicMeasure",
    "BetaMeasure",
    "DensityTableMeasure",
    "LambdaMeasure",
    "FirstPartLaw",
    "RateTable",
    "parse_measure",
    "measure_descriptor",
    "total_mass",
    "coalescence_rate",
    "build_rate_table",
    "dust_integral",
    "single_ball_integral",
    "first_part_weight",
    "first_part_law",
    "first_part_laws_upto",
    "litter_intensity_tail",
    "choose_truncation",
    "sample_jump_sizes",
    "require_population_support",
]


class _Divergence(NonIntegrableError):
    """A moment integral is infinite (as opposed to a quadrature that did
    not converge); the public functionals re-raise it in their domain."""


def _diverges(measure, p, q) -> _Divergence:
    return _Divergence(
        f"integral of x**{p:g} (1-x)**{q:g} against {measure.descriptor()} diverges"
    )


# ---------------------------------------------------------------------------
# measure representations
# ---------------------------------------------------------------------------

# The largest total mass a measure may have: far above any scale a model
# needs, and low enough that a rate total up to the partition cap, at most
# 2**n times the mass, stays a finite float.
_MAX_MASS = 1e100


def _check_mass(mass: float) -> None:
    if not mass <= _MAX_MASS:
        raise MeasureSpecError(f"total mass {mass:g} above the bound {_MAX_MASS:g}")


def _check_mu(mu: float) -> None:
    """The domain of a mutation rate, [0, _MAX_MASS]: on that scale mu * b
    plus a rate total stays a finite float up to the partition cap."""
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if not mu <= _MAX_MASS:
        raise ValueError(f"mu must be finite and at most {_MAX_MASS:g}")


def _nu_rounds(measure, eps: float, count: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """`count` draws from nu above eps by one generator: rounds of the
    candidates measure._nu_candidates draws for the count still needed,
    of which the sizes measure._nu_accept keeps are taken in draw order
    until there are `count`.  The draws are written to `out` if given."""
    out = np.empty(count) if out is None else out
    filled = 0
    while filled < count:
        need = count - filled
        x, ok = measure._nu_accept(eps, measure._nu_candidates(eps, need, rng))
        keep = x[ok][:need]
        out[filled : filled + len(keep)] = keep
        filled += len(keep)
    return out


# Sizes one lockstep pass of _nu_rows draws, give or take one row: its
# candidates, about twice as many, and their temporaries stay near 2 MiB.
_NU_PASS_POINTS = 1 << 13


def _nu_rows(measure, eps: float, counts, rngs, out: np.ndarray) -> None:
    """The rounds of _nu_rounds for many rows in lockstep: row r draws
    counts[r] sizes from rngs[r] into out[r, :counts[r]].  Each round,
    every row still short draws its own candidate block, one
    measure._nu_accept call reads all the blocks joined, and each row
    takes its first kept sizes in draw order; so each generator reads
    exactly the draws of a one-row _nu_rounds call (as a lone row does, by
    that call).  Rows go in passes of consecutive rows that hold about
    _NU_PASS_POINTS sizes between them."""
    if len(counts) == 1:
        _nu_rounds(measure, eps, counts[0], rngs[0], out[0, : counts[0]])
        return
    # a pass ends where the running count crosses a multiple of the cap
    cuts = (np.diff(np.cumsum(counts) // _NU_PASS_POINTS).nonzero()[0] + 1).tolist()
    if cuts:
        for a, b in zip([0] + cuts, cuts + [len(counts)]):
            _nu_rows(measure, eps, counts[a:b], rngs[a:b], out[a:b])
        return
    counts = np.array(counts)
    filled = np.zeros_like(counts)
    live = counts.nonzero()[0]
    while live.size:
        need = counts[live] - filled[live]
        blocks = [
            measure._nu_candidates(eps, m, rngs[r]) for r, m in zip(live.tolist(), need.tolist())
        ]
        x, ok = measure._nu_accept(eps, np.concatenate(blocks, axis=-1))
        sizes = [block.shape[-1] for block in blocks]
        seg = np.repeat(np.arange(live.size), sizes)
        # kept before and up to each candidate, counted within its row
        upto = ok.cumsum()
        ends = upto[np.cumsum(sizes) - 1]
        before = np.concatenate(([0], ends[:-1]))
        rank = upto - before[seg] - 1
        take = ok & (rank < need[seg])
        rows = live[seg[take]]
        out[rows, filled[rows] + rank[take]] = x[take]
        filled[live] += np.minimum(ends - before, need)
        live = live[filled[live] < counts[live]]


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many atoms; locations in [0, 1], strictly positive weights.

    An empty atom tuple is the zero measure (pure-drift subordinator); it
    is rejected wherever a positive total mass is genuinely required.
    """

    locations: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.locations) != len(self.weights):
            raise MeasureSpecError("locations and weights differ in length")
        for x in self.locations:
            if not (0.0 <= x <= 1.0):
                raise MeasureSpecError(f"atom location {x} outside [0, 1]")
        for w in self.weights:
            if not (w > 0.0) or not math.isfinite(w):
                raise MeasureSpecError(f"atom weight {w} must be positive and finite")
        if len(set(self.locations)) != len(self.locations):
            raise MeasureSpecError("duplicate atom locations")
        _check_mass(sum(self.weights))

    def moment(self, p: float, q: float = 0.0, lo: float = 0.0, hi: float = 1.0) -> float:
        terms = []
        for x, w in zip(self.locations, self.weights):
            if not (lo < x <= hi or x == lo == 0.0):
                continue
            if p >= 0.0:
                terms.append(w * x**p * (1.0 - x) ** q)
            else:
                # w / x, not w * x**-1, and x * x, not x**2: either swap
                # rounds differently; an x whose power underflows diverges
                # as an atom at 0 does
                den = x * x if p == -2 else x ** -p
                if den == 0.0:
                    raise _diverges(self, p, q)
                terms.append(w * (1.0 - x) ** q / den)
        return math.fsum(terms)

    def _nu_candidates(self, eps: float, need: int, rng: np.random.Generator) -> np.ndarray:
        """One round for `need` more draws: that many uniforms."""
        return rng.random(need)

    def _nu_accept(self, eps: float, u: np.ndarray) -> tuple:
        """(sizes, keep) of uniforms from _nu_candidates: the inverse cdf
        of the atoms above eps, every size kept.  numpy's
        rng.choice(locs, size=count, p=p) without its checks of p: the
        same uniforms against the same cdf."""
        locs, cdf = _atom_nu_cdf(self, eps)
        return locs.take(cdf.searchsorted(u, side="right")), np.ones(len(u), dtype=bool)

    def descriptor(self) -> str:
        if len(self.locations) == 1 and self.weights[0] == 1.0:
            return f"delta:{self.locations[0]:g}"
        body = ",".join(f"{x:g}={w:g}" for x, w in zip(self.locations, self.weights))
        return f"atoms:{body}"


@functools.lru_cache(maxsize=64)
def _atom_nu_cdf(measure: AtomicMeasure, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(locations above eps, the cdf of their nu weights normalised as
    rng.choice normalises p); no atom above eps raises, uncached."""
    locs = np.array(measure.locations)
    wts = np.array(measure.weights)
    keep = locs > eps
    if not np.any(keep):
        raise DegenerateMeasureError("no atoms above the cutoff")
    locs, wts = locs[keep], wts[keep]
    p = wts / (locs * locs)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    locs.setflags(write=False)
    cdf.setflags(write=False)
    return locs, cdf


# The largest float below 1: a Beta jump size is clipped to it.  For
# beta < 1 part of nu lies within an ulp of 1, where a draw rounds to 1.0;
# clipped, its g = -log(1 - x) is -log(2**-53) = 36.74, and no window
# query can tell, since a query -log1p(-v) for a float v < 1 is at most
# that.
_BELOW_ONE = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class BetaMeasure:
    """mass * Beta(alpha, beta) probability density on (0, 1)."""

    alpha: float
    beta: float
    mass: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise MeasureSpecError("Beta shape parameters must be positive")
        if not (self.mass > 0.0) or not math.isfinite(self.mass):
            raise MeasureSpecError("Beta measure mass must be positive and finite")
        _check_mass(self.mass)

    def density_at(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x < 1.0)
        xi = x[inside]
        log_dens = (
            (self.alpha - 1.0) * np.log(xi)
            + (self.beta - 1.0) * np.log1p(-xi)
            - betaln(self.alpha, self.beta)
        )
        out[inside] = self.mass * np.exp(log_dens)
        return out

    def moment(self, p: float, q: float = 0.0, lo: float = 0.0, hi: float = 1.0) -> float:
        """Over all of (0, 1) a ratio of Beta functions; over a
        sub-interval an incomplete Beta function when the integrand is
        integrable at 0, else quadrature (which needs lo > 0)."""
        if hi <= lo:
            return 0.0
        if lo <= 0.0 and hi >= 1.0:
            a = self.alpha + p
            b = self.beta + q
            if a <= 0.0 or b <= 0.0:
                raise _diverges(self, p, q)
            return self.mass * _exp(betaln(a, b) - betaln(self.alpha, self.beta))
        # On a sub-interval the integrand is x**(A-1) (1-x)**(B-1) times
        # mass / B(alpha, beta).  Sub-intervals arise only for nu = L / x**2,
        # so A is formed from nu's exponent p + 2: alpha + p itself can
        # round differently.
        A = self.alpha + (p + 2.0) - 2.0
        B = self.beta + q
        if A > 0.0:
            scale = self.mass * _exp(betaln(A, B) - betaln(self.alpha, self.beta))
            return scale * (betainc(A, B, hi) - betainc(A, B, lo))
        if lo <= 0.0:
            raise _diverges(self, p, q)
        c = self.mass * _exp(-betaln(self.alpha, self.beta))
        total = 0.0
        mid = min(hi, 0.5)
        if lo < mid:
            # left piece: x = e**u turns x**(A-1) dx into e**(A u) du, which
            # stays well conditioned even for lo many decades below 1
            def left(u):
                x = np.exp(u)
                return np.exp(A * u) * (1.0 - x) ** (B - 1.0)

            total += adaptive_integral(left, math.log(lo), math.log(mid))
        if hi > mid:
            # right piece: z = (1-x)**B absorbs the (1-x)**(B-1) endpoint
            # factor; x = 1 - z**(1/B) is well conditioned for x >= 1/2
            z_lo = (1.0 - hi) ** B
            z_hi = (1.0 - max(lo, mid)) ** B

            def right(z):
                x = 1.0 - z ** (1.0 / B)
                return x ** (A - 1.0)

            total += adaptive_integral(right, z_lo, z_hi) / B
        return c * total

    def _nu_candidates(self, eps: float, need: int, rng: np.random.Generator) -> np.ndarray:
        """One rejection round for `need` more draws: alpha > 2, that many
        Beta(alpha-2, beta) variates at eps = 0 (where only a draw of
        exactly 0 is rejected), else twice that, at least 16; alpha <= 2
        (needs eps > 0), a (3, max(2 need, 16)) block of uniforms (piece
        choice, position, acceptance)."""
        if self.alpha > 2.0:
            size = max(need * 2, 16) if eps > 0.0 else need
            return rng.beta(self.alpha - 2.0, self.beta, size=size)
        if eps <= 0.0:
            raise InfiniteActivityError("alpha <= 2 requires a positive cutoff")
        return rng.random((3, max(need * 2, 16)))

    def _nu_accept(self, eps: float, cands: np.ndarray) -> tuple:
        """(sizes, keep) of candidates from _nu_candidates, or of several
        such blocks joined along the last axis.  alpha > 2: a draw is kept
        when above eps.  alpha <= 2: two-piece power-law envelope
        rejection, density proportional to x**(alpha-3) (1-x)**(beta-1).
        Either way a size is clipped to _BELOW_ONE."""
        if self.alpha > 2.0:
            x = np.minimum(cands, _BELOW_ONE)
            return x, x > eps
        a, b = self.alpha, self.beta
        A = a - 2.0  # x exponent + 1: target density prop. to x**(A-1) (1-x)**(b-1)
        split = 0.5 if eps < 0.5 else eps
        # piece over (eps, split): envelope c_left * x**(A-1), c_left the
        # largest (1-x)**(b-1) there (at eps for b >= 1, at 1/2 for b < 1)
        c_left = 0.0
        w_left = 0.0
        if eps < 0.5:
            c_left = (1.0 - eps) ** (b - 1.0) if b >= 1.0 else 0.5 ** (b - 1.0)
            if A == 0.0:
                mass_left = math.log(split / eps)
            else:
                mass_left = (split**A - eps**A) / A
            w_left = c_left * mass_left
        # piece over [split, 1): envelope prop. to (1-x)**(b-1)
        c_right = split ** (A - 1.0)
        w_right = c_right * (1.0 - split) ** b / b
        p_left = w_left / (w_left + w_right)
        u, v, acc = cands
        left = u < p_left
        x = np.empty_like(v)
        ok = np.empty(len(v), dtype=bool)
        vl = v[left]
        if A == 0.0:
            xl = eps * np.exp(vl * math.log(split / eps))
        else:
            xl = (eps**A + vl * (split**A - eps**A)) ** (1.0 / A)
        x[left] = xl
        ok[left] = acc[left] * c_left <= (1.0 - xl) ** (b - 1.0)
        right = ~left
        xr = np.minimum(1.0 - (1.0 - split) * v[right] ** (1.0 / b), _BELOW_ONE)
        x[right] = xr
        ok[right] = (xr > eps) & (acc[right] * c_right <= xr ** (A - 1.0))
        return x, ok

    def descriptor(self) -> str:
        return f"beta:{self.alpha:g},{self.beta:g},{self.mass:g}"


class DensityTableMeasure:
    """Density tabulated on a strictly increasing grid inside (0, 1).

    The density L between grid points is the interpolant of the given order
    (1 the linear interpolant, 3 the not-a-knot cubic spline), clipped at
    0; outside the grid span it is zero, so the measure always has compact
    support strictly inside (0, 1).  The interpolant is one piecewise
    polynomial, built and evaluated with numpy and LAPACK dgtsv for the
    spline's slopes (_piecewise.py, with the bits of scipy's CubicSpline
    and PPoly), cut at the real roots of L
    and L' into cells where it is one-signed and monotone, and cut further
    so that no cell spans more than a factor 2; `density_at`, `moment` and
    the nu draws all read the cells where L > 0.  Treated as immutable after
    construction.
    """

    def __init__(self, x, density, order: int = 3):
        x = np.asarray(x, dtype=float)
        density = np.asarray(density, dtype=float)
        if x.ndim != 1 or x.shape != density.shape or len(x) < 2:
            raise MeasureSpecError("need matching 1-d arrays with at least 2 points")
        if np.any(np.diff(x) <= 0.0):
            raise MeasureSpecError("grid must be strictly increasing")
        if not (x[0] > 0.0 and x[-1] < 1.0):
            raise MeasureSpecError("grid must lie strictly inside (0, 1)")
        if np.any(density < 0.0) or not np.all(np.isfinite(density)):
            raise MeasureSpecError("density values must be finite and nonnegative")
        if not np.any(density > 0.0):
            raise MeasureSpecError("density is identically zero")
        if order not in (1, 3):
            raise MeasureSpecError("interpolation order must be 1 or 3")
        if order == 3 and len(x) < 4:
            raise MeasureSpecError("cubic interpolation needs at least 4 grid points")
        self.x = x
        self.density = density
        self.order = order
        # finite values can still overflow the slopes or the coefficients
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                self._pp = (not_a_knot if order == 3 else linear)(x, density)
                roots = [self._pp.roots(), self._pp.derivative().roots()]
        except (ArithmeticError, ValueError) as exc:
            raise MeasureSpecError(f"density values overflow the interpolant ({exc})") from exc
        # x[-1] / x[0] and 2.0**k overflow for a first node near 0; ldexp
        # gives x[0] * 2.0**k exactly, as a power of two scales exactly
        doubling = np.ldexp(x[0], np.arange(1, np.log2(x[-1]) - np.log2(x[0]), dtype=int))
        cuts = np.unique(np.clip(np.concatenate([x, doubling] + roots), x[0], x[-1]))
        # each cell lies inside one piece, so L is one-signed on it
        keep = self._pp(0.5 * (cuts[:-1] + cuts[1:])) > 0.0
        self._lo, self._hi = cuts[:-1][keep], cuts[1:][keep]
        # an overflowing sum reads as an infinite mass
        with np.errstate(over="ignore", invalid="ignore"):
            mass = self.moment(0.0, 0.0)
        _check_mass(mass)

    def density_at(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        inside = (xs >= self.x[0]) & (xs <= self.x[-1])
        return np.where(inside, np.maximum(self._pp(xs), 0.0), 0.0)

    def moment(self, p: float, q: float = 0.0, lo: float = 0.0, hi: float = 1.0) -> float:
        """Gauss-Legendre per cell for integer p >= -2 and q >= 0, on enough
        nodes to be exact for the polynomial x**p (1-x)**q L(x) when p >= 0
        and on 12 more when p < 0, which take x**p to rounding on a cell
        that spans at most a factor 2.  The support stays away from 0 and 1,
        so no moment diverges and the mass at 1 (p = inf) is 0."""
        if p == math.inf:
            return 0.0
        if not (float(p).is_integer() and p >= -2 and float(q).is_integer() and q >= 0):
            raise ValueError(f"table moments need integer p >= -2 and q >= 0, got {p}, {q}")
        return _grid_moment(self._grid(_node_count(p, q), lo, hi), p, q)

    def _grid(self, count: int, lo: float = 0.0, hi: float = 1.0) -> tuple:
        """(half widths, weights, x, 1 - x, L(x)) on `count` Gauss-Legendre
        nodes per cell clipped to (lo, hi], one column per cell."""
        a, b = np.maximum(self._lo, lo), np.minimum(self._hi, hi)
        a, b = a[a < b], b[a < b]
        nodes, weights = _legendre(count)
        half = 0.5 * (b - a)
        xs = 0.5 * (a + b) + half * nodes[:, None]
        return half, weights, xs, 1.0 - xs, self._pp(xs)

    def _nu_candidates(self, eps: float, need: int, rng: np.random.Generator) -> np.ndarray:
        """One rejection round for `need` more draws: a (3, max(2 need, 16))
        block of uniforms (cell, position, acceptance)."""
        return rng.random((3, max(need * 2, 16)))

    def _nu_accept(self, eps: float, cands: np.ndarray) -> tuple:
        """(sizes, keep) of candidates from _nu_candidates, or of several
        such blocks joined along the last axis: envelope rejection from
        L(x)/x**2 on the cells above eps (the one containing eps clipped).
        A cell is picked by the mass of its envelope max(L)/x**2, max(L)
        at one of its ends; x comes from the inverse cdf of 1/x**2 there
        and is kept with probability L(x)/max(L).  The envelope is built
        once per cutoff."""
        inv_a, width, top, cum = _table_nu_envelope(self, eps)
        u, v, acc = cands
        cell = np.searchsorted(cum, u * cum[-1])
        xs = 1.0 / (inv_a[cell] - v * width[cell])
        return xs, acc * top[cell] < self._pp(xs)

    def descriptor(self) -> str:
        return f"density-table[{len(self.x)}pts,order={self.order}]"

    def __repr__(self):
        return (
            f"DensityTableMeasure({len(self.x)} points on "
            f"[{self.x[0]:g}, {self.x[-1]:g}], order={self.order})"
        )


def _node_count(p: float, q: float) -> int:
    """Gauss-Legendre nodes per cell for a table's (p, q) moment."""
    return math.ceil((p + q + 4) / 2) + 12 * (p < 0)


def _grid_moment(grid: tuple, p: float, q: float) -> float:
    """The (p, q) moment summed on one DensityTableMeasure._grid; one that
    overflows reads as inf.  Only x**p with p < 0 overflows, near 0."""
    half, weights, xs, ys, L = grid
    with np.errstate(over="ignore") if p < 0 else contextlib.nullcontext():
        cells = half * (weights @ (xs**p * ys**q * L))
    return _fsum(cells)


def _exp(x: float) -> float:
    """math.exp(x), inf where it overflows, as an overflowing table
    moment reads."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _fsum(cells) -> float:
    """math.fsum of finite or infinite cells, inf where the sum overflows."""
    try:
        return math.fsum(cells)
    except OverflowError:  # finite cells whose sum overflows
        return math.inf


# Elements of one (k, node, cell) array a table's rate row stacks: the k
# axis is cut into chunks that keep each temporary at most 512 KiB.
_ROW_CHUNK = 1 << 16


def _table_rate_row(grid: tuple, b: int) -> list[float]:
    """[_grid_moment(grid, k - 2, b - k) for k = 2..b], grid the one all of
    them share: x**p (1-x)**q L for a chunk of k at once, one weights @
    product per chunk and one fsum per entry.  Each entry has the bits of
    its own _grid_moment call: the same products in the same order, and
    a power of 2 squares, as numpy's scalar x**2 does (pow can round it
    differently)."""
    half, weights, xs, ys, L = grid
    ps = np.arange(b - 1.0)
    step = max(1, _ROW_CHUNK // xs.size)
    row = []
    for i in range(0, b - 1, step):
        p = ps[i : i + step]
        terms = _powers(xs, p)
        terms *= _powers(ys, b - 2.0 - p)
        terms *= L
        row += map(_fsum, (half * (weights @ terms)).tolist())
    return row


def _powers(base: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """base ** e for each exponent e, stacked along a new first axis and
    rounded as the scalar base ** e."""
    out = np.power(base, exps[:, None, None])
    out[exps == 2.0] = np.square(base)
    return out


@functools.lru_cache(maxsize=64)
def _table_nu_envelope(measure: DensityTableMeasure, eps: float) -> tuple:
    """(1/a, 1/a - 1/b, max(L), cumulative envelope mass) over the cells
    (a, b] of the table above eps, the one containing eps clipped; a
    cutoff that leaves no mass raises, uncached."""
    if eps >= measure.x[-1]:
        raise InfiniteActivityError("cutoff removes the whole support")
    a, b = np.maximum(measure._lo, eps), measure._hi
    a, b = a[a < b], b[a < b]
    if len(a) == 0:
        raise DegenerateMeasureError("nu restricted above the cutoff has no mass")
    top = np.maximum(measure._pp(a), measure._pp(b))
    inv_a = 1.0 / a
    width = inv_a - 1.0 / b
    cum = np.cumsum(top * width)
    for arr in (inv_a, width, top, cum):
        arr.setflags(write=False)
    return inv_a, width, top, cum


LambdaMeasure = Union[AtomicMeasure, BetaMeasure, DensityTableMeasure]


def _finite(measure: LambdaMeasure, error: type, p, q=0.0, lo=0.0, hi=1.0) -> float:
    """measure.moment(p, q, lo, hi), a divergence or an overflow raised as
    `error`."""
    try:
        value = measure.moment(p, q, lo, hi)
    except _Divergence as exc:
        raise error(str(exc)) from exc
    if not math.isfinite(value):
        raise error(
            f"integral of x**{p:g} (1-x)**{q:g} against {measure.descriptor()} overflows"
        )
    return value


# ---------------------------------------------------------------------------
# spec-string grammar
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(r"^([^=]+)=([^=]+)$")


def parse_measure(spec: str) -> LambdaMeasure:
    """Build a measure from its text form.

    Grammar:
        delta:<x>                   single unit atom at x
        atoms:<x1>=<w1>,<x2>=<w2>   weighted atoms
        beta:<alpha>,<beta>,<mass>  scaled Beta density
        poly3x2                     density 3*x**2 on (0, 1)
        density-file:<path>         two-column table (x, density)
    """
    spec = spec.strip()
    try:
        if spec.startswith("delta:"):
            x = float(spec[len("delta:"):])
            return AtomicMeasure((x,), (1.0,))
        if spec.startswith("atoms:"):
            body = spec[len("atoms:"):]
            locs, wts = [], []
            for item in body.split(","):
                m = _ATOM_RE.match(item.strip())
                if m is None:
                    raise MeasureSpecError(f"bad atom entry {item!r}")
                locs.append(float(m.group(1)))
                wts.append(float(m.group(2)))
            if not locs:
                raise MeasureSpecError("atoms: needs at least one atom")
            return AtomicMeasure(tuple(locs), tuple(wts))
        if spec.startswith("beta:"):
            parts = spec[len("beta:"):].split(",")
            if len(parts) != 3:
                raise MeasureSpecError("beta: needs alpha,beta,mass")
            return BetaMeasure(float(parts[0]), float(parts[1]), float(parts[2]))
        if spec == "poly3x2":
            # density 3*x**2 integrates to 1; same object as beta:3,1,1
            return BetaMeasure(3.0, 1.0, 1.0)
        if spec.startswith("density-file:"):
            path = Path(spec[len("density-file:"):])
            if not path.exists():
                raise MeasureSpecError(f"density file {path} not found")
            data = np.loadtxt(path, ndmin=2)
            if data.shape[1] != 2:
                raise MeasureSpecError("density file must have two columns")
            order = 3 if data.shape[0] >= 4 else 1
            return DensityTableMeasure(data[:, 0], data[:, 1], order=order)
    except MeasureSpecError:
        raise
    except (ValueError, OSError) as exc:
        raise MeasureSpecError(f"cannot parse measure spec {spec!r}: {exc}") from exc
    raise MeasureSpecError(f"unknown measure spec {spec!r}")


def measure_descriptor(measure: LambdaMeasure) -> str:
    """Canonical text form used in reports and CLI output."""
    return measure.descriptor()


# ---------------------------------------------------------------------------
# basic integrals
# ---------------------------------------------------------------------------


def total_mass(measure: LambdaMeasure) -> float:
    return measure.moment(0.0, 0.0)


def coalescence_rate(measure: LambdaMeasure, b: int, k: int) -> float:
    """Rate at which a fixed k-subset of b lineages merges.

    integral of x**(k-2) (1-x)**(b-k) against the measure, with the
    convention 0**0 = 1 so atoms at the endpoints contribute correctly.
    """
    if not (2 <= k <= b):
        raise ValueError(f"need 2 <= k <= b, got b={b}, k={k}")
    return measure.moment(k - 2.0, b - k)


@dataclass(frozen=True, eq=False)
class RateTable:
    """Merge rates rate(b, k) for 2 <= k <= b <= n_max plus the total
    merge rate sum_k C(b, k) rate(b, k) per block count."""

    n_max: int
    rates: np.ndarray  # shape (n_max+1, n_max+1); entry [b, k]
    totals: np.ndarray  # shape (n_max+1,); totals[0] = totals[1] = 0
    descriptor: str

    def rate(self, b: int, k: int) -> float:
        if not (2 <= k <= b <= self.n_max):
            raise ValueError(f"(b={b}, k={k}) outside table (n_max={self.n_max})")
        return float(self.rates[b, k])

    def total(self, b: int) -> float:
        if not (0 <= b <= self.n_max):
            raise ValueError(f"b={b} outside table (n_max={self.n_max})")
        return float(self.totals[b])


# The largest block count of a rate table or first-part law: every C(n, k)
# with n <= 1029 is a finite float, and C(1030, 515) is not.
MAX_BLOCKS = 1029


def _check_blocks(n: int) -> None:
    if n > MAX_BLOCKS:
        raise ValueError(f"n = {n} is above {MAX_BLOCKS}: C(n, k) overflows a float")


def build_rate_table(measure: LambdaMeasure, n_max: int) -> RateTable:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows = _rate_rows(measure, n_max)
    rates = np.zeros((n_max + 1, n_max + 1))
    totals = np.zeros(n_max + 1)
    for b, row in enumerate(rows, start=2):
        rates[b, 2 : b + 1] = row
        totals[b] = math.fsum(math.comb(b, k) * row[k - 2] for k in range(2, b + 1))
    return RateTable(n_max, rates, totals, measure_descriptor(measure))


def _rate_rows(measure: LambdaMeasure, n_max: int) -> list[list[float]]:
    """[coalescence_rate(measure, b, k) for k = 2..b] for b = 2..n_max.  A
    table builds row b in one array pass (_table_rate_row) on the grid of
    its node count, which two consecutive rows share; only the last grid
    is kept, and only during this call."""
    _check_blocks(n_max)
    if isinstance(measure, DensityTableMeasure):
        grid = functools.lru_cache(maxsize=1)(measure._grid)
        return [_table_rate_row(grid(_node_count(0.0, b - 2.0)), b) for b in range(2, n_max + 1)]
    # the argument types of coalescence_rate's moment call
    moment = measure.moment
    return [[moment(k - 2.0, b - k) for k in range(2, b + 1)] for b in range(2, n_max + 1)]


# ---------------------------------------------------------------------------
# dust condition and single-ball integrals
# ---------------------------------------------------------------------------


def dust_integral(measure: LambdaMeasure) -> float:
    """integral of 1/x against the measure (the x-moment of nu).

    Raises DustConditionError when it diverges; finiteness is the standing
    assumption of every sampler built on the subordinator.
    """
    return _finite(measure, DustConditionError, -1.0)


@functools.lru_cache(maxsize=64)
def require_population_support(measure: LambdaMeasure) -> None:
    """Standing assumptions of the population construction: no atoms at the
    endpoints and a finite 1/x integral.

    A success is remembered per measure (the one-row chain sampler checks
    once per replicate); a failure raises on every call.  An atom at 0
    makes the 1/x integral diverge; the mass at 1 is the limit of the x**p
    moments as p grows, read off at p = inf.
    """
    _finite(measure, PopulationSupportError, -1.0)
    if measure.moment(math.inf, 0.0) > 0.0:
        raise PopulationSupportError(f"{measure.descriptor()} has an atom at 1")


def single_ball_integral(measure: LambdaMeasure, n: int) -> float:
    """integral of (1/x) (1-x)**(n-1) against the measure.

    This is the nu-weight of the event that the smallest of n balls falls
    in a litter of its own.  Requires the dust condition.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _finite(measure, DustConditionError, -1.0, n - 1)


# ---------------------------------------------------------------------------
# first-part weights and laws
# ---------------------------------------------------------------------------


def first_part_weight(measure: LambdaMeasure, mu: float, n: int, m: int) -> float:
    """Unnormalized weight of "the first part has size m" in a sample of n."""
    _check_mu(mu)
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    _check_blocks(n)
    if m == 1:
        return mu * n + n * single_ball_integral(measure, n)
    return math.comb(n, m) * coalescence_rate(measure, n, m)


@dataclass(frozen=True)
class FirstPartLaw:
    """Law of the first (leftmost, youngest-litter) part of a composition
    of n, with the size-1 case split by what the leftmost ball hit.

    probs[m-1] = P(first part = m).  p_single_mutant is the chance the
    leftmost ball fell on the regenerative set (a mutation event);
    p_single_alone is the chance it sat alone in a litter.  Their sum is
    probs[0].
    """

    n: int
    p_single_mutant: float
    p_single_alone: float
    probs: tuple[float, ...]
    weights: tuple[float, ...]
    weight_total: float

    def __post_init__(self):
        if abs(math.fsum(self.probs) - 1.0) > 1e-12:
            raise ValueError("first-part probabilities do not sum to 1")

    @functools.cached_property
    def cumulative(self) -> np.ndarray:
        """Read-only np.cumsum(probs), built once per law."""
        cum = np.cumsum(self.probs)
        cum.setflags(write=False)
        return cum


def first_part_law(measure: LambdaMeasure, mu: float, n: int) -> FirstPartLaw:
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_mu(mu)
    _check_blocks(n)
    single = single_ball_integral(measure, n)
    return _first_part_law(
        mu, n, single, [coalescence_rate(measure, n, m) for m in range(2, n + 1)]
    )


def _first_part_law(mu: float, n: int, single: float, rates: list[float]) -> FirstPartLaw:
    """The law from single_ball_integral(n) and rates[m-2] = rate(n, m)."""
    lone = n * single
    weights = [mu * n + lone]
    weights += [math.comb(n, m) * rate for m, rate in enumerate(rates, start=2)]
    total = math.fsum(weights)
    if total <= 0.0:
        raise DegenerateMeasureError("all first-part weights vanish")
    probs = tuple(w / total for w in weights)
    return FirstPartLaw(
        n=n,
        p_single_mutant=mu * n / total,
        p_single_alone=lone / total,
        probs=probs,
        weights=tuple(weights),
        weight_total=total,
    )


def first_part_laws_upto(
    measure: LambdaMeasure, mu: float, n: int
) -> list[FirstPartLaw | None]:
    """laws[b] = first_part_law(measure, mu, b) for b = 1..n, the m >= 2
    weights read off the rows of one rate table."""
    laws: list[FirstPartLaw | None] = [None] * (n + 1)
    if n < 1:
        return laws
    _check_mu(mu)
    rows = [[]] + _rate_rows(measure, n)  # rows[b - 1] = rate(b, 2..b)
    for b in range(1, n + 1):
        laws[b] = _first_part_law(mu, b, single_ball_integral(measure, b), rows[b - 1])
    return laws


# ---------------------------------------------------------------------------
# jump intensity nu = L(dx) / x**2: tails and size sampling
# ---------------------------------------------------------------------------

# Lower end of the cutoff search; nu(0, _EPS_FLOOR] is finite exactly when
# nu has finite mass, since nu(eps, 1] <= L[0, 1] / eps**2 for any eps > 0.
_EPS_FLOOR = 1e-30


def litter_intensity_tail(measure: LambdaMeasure, eps: float) -> tuple[float, float]:
    """(mass of nu above eps, integral of x nu(dx) below eps).

    nu(dx) = L(dx)/x**2 on (0, 1].  "Above" is the interval (eps, 1];
    atoms exactly at eps count toward the lower moment.  eps = 0 is
    allowed only for finite-activity measures; otherwise
    InfiniteActivityError (an atom at 0 gives it at every eps).
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps must be in [0, 1)")
    above = _finite(measure, InfiniteActivityError, -2.0, 0.0, eps, 1.0)
    below = _finite(measure, InfiniteActivityError, -1.0, 0.0, 0.0, eps)
    return above, below


# The bound on horizon * integral_{0}^{eps} x nu(dx) a cutoff must meet.
_TRUNCATION_BUDGET = 1e-6


def choose_truncation(measure: LambdaMeasure, horizon: float) -> float:
    """Smallest-cost jump-size cutoff eps with horizon * integral_{0}^{eps}
    x nu(dx) <= _TRUNCATION_BUDGET.

    Returns 0.0 for finite-activity measures (no truncation needed).  For
    the others the cutoff is found by bisection on log eps against the
    moment below eps, and the returned value is the largest tested eps
    meeting the budget.
    """
    dust_integral(measure)
    try:
        measure.moment(-2.0, 0.0, 0.0, _EPS_FLOOR)
        return 0.0
    except _Divergence:
        pass

    def below(eps):
        return _finite(measure, InfiniteActivityError, -1.0, 0.0, 0.0, eps)

    lo, hi = math.log(_EPS_FLOOR), math.log(0.5)
    if horizon * below(math.exp(lo)) > _TRUNCATION_BUDGET:
        raise NonIntegrableError("cannot meet truncation budget")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if horizon * below(math.exp(mid)) <= _TRUNCATION_BUDGET:
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


def sample_jump_sizes(
    measure: LambdaMeasure, eps: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample jump sizes from nu restricted to (eps, 1], normalized."""
    return _nu_rounds(measure, eps, count, rng)
