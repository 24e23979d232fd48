"""Multiplicative subordinator windows and regenerative compositions.

The stationary population seen from time 0 is described by litters born at
Poisson times in the past: a litter born a time units ago with size X and
auxiliary mark U.  Looking back age s, the fraction of the population
descended from litters younger than s is

    F(s) = 1 - exp(-mu*s) * prod_{age_i <= s} (1 - X_i),

a multiplicative subordinator with drift mu and jump intensity
nu(dx) = L(dx) / x**2.  A window realizes the Poisson points with ages in
[0, T) and jump sizes above a cutoff eps (eps = 0 whenever nu is finite).

Everything works in the log-survival coordinate g = -log(1 - v), where F
becomes the additive path G(s) = mu*s - sum_{age_i <= s} log(1 - X_i).
Litter i covers the g-interval (left_g[i], right_g[i]); the gaps between
intervals are the closed range of F (the regenerative set).  Inverting a
uniform either lands strictly inside a litter interval or on the range.
Ties at interval endpoints resolve to the range; they carry no
probability and the rule only pins down behaviour on replayed fixtures.

Sampling n uniforms against the window and grouping consecutive order
statistics that share a litter yields the composition of n in age order;
the same composition law also arises part by part from the first-part law
(sequential_composition), which is the cheap exact reference sampler.

_draw_points is the one draw kernel.  It draws every window of a draw
block in one pass, each from its own generator: a Poisson count c, then
one block of uniforms holding c + 1 exponential spacings, the atoms'
inverse-cdf uniforms and the marks, then (Beta and table measures) the c
jump sizes by rejection rounds in lockstep over the block, each row's
candidates from its own generator.  The ages are the normalised
partial sums of the spacings, the order statistics of c uniforms
(Devroye, Non-Uniform Random Variate Generation, ch. V), so every window
comes sorted by age; the spacings' log1p, cumsum and scale and the atoms'
inverse cdf run once over the block.  sample_window, extend() and so
LitterHistory.build are one-row calls of it.

A window keeps its points sorted by age from the draw on.  _settle is the
one settle kernel: for a block of windows it builds the prefix
log-products and the interval edges and pads the rows with inf, in one
array pass over the whole block (_Rows), with no sort; a window used on
its own settles as a one-row block of the same kernel.

_locate is the one inversion rule.  It reads a block of windows as padded
rows of their interval edges and places any number of g-coordinate
queries at once: one searchsorted on one row, a lockstep lower-bound
search on several (about log2 W gathers over all queries); a query may be
restricted to the litters older than a given one, which is the
genealogy's parent query.  The lockstep window samplers drop the uniforms
of a whole draw block on one _Rows block (_window_hits; a block holds at
most _BLOCK_POINTS window points), and the set sampler chases the roots
of all its litter hits in one _Rows.roots call, one parent step per
generation.  These are the only query paths: sample_composition_detailed
is a one-row _window_hits call, and a lone root query is a one-query
_Rows.roots call.  Queries are g = -log1p(-v) by np.log1p wherever they
are formed (_g), so every path rounds a query alike.

ensure_coverage is the one loop that extends a window backwards, one
doubling of T per extend(); after _MAX_DOUBLINGS of them (2**10 times
the initial horizon) extend() raises WindowExhaustionError,
whichever sampler reads the window.  A block row whose window extends
is written afresh from the window alone; the other rows stay as they are.

The window set-up (the population support check, the cutoff eps and the
intensity nu(eps, 1]) depends only on (measure, T, eps), so it is computed
once per (measure, T) and shared by every window drawn with it: the
windows of one validation case or CLI run pay one truncation search
between them.  A window whose expected point count T * nu(eps, 1] exceeds
MAX_WINDOW_POINTS is refused before any point is drawn, at sampling time
and before each extension.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BeyondWindowError,
    DegenerateMeasureError,
    WindowBudgetError,
    WindowExhaustionError,
)
from .measures import (
    FirstPartLaw,
    LambdaMeasure,
    _check_mu,
    _nu_rows,
    choose_truncation,
    dust_integral,
    first_part_laws_upto,
    litter_intensity_tail,
    measure_descriptor,
    require_population_support,
)

__all__ = [
    "Composition",
    "CompositionSample",
    "SubordinatorWindow",
    "sample_window",
    "default_window_horizon",
    "window_from_points",
    "sample_composition_detailed",
    "sequential_composition",
    "delete_random_ball",
    "MAX_WINDOW_POINTS",
]

# Largest expected number of litter points a window may hold; beyond it
# the jump-size cutoff is too small for the horizon to sample in memory.
MAX_WINDOW_POINTS = 1e7

# Doublings of T a window may make: it reaches at most 2**10 times its
# initial horizon before extend() refuses.
_MAX_DOUBLINGS = 10


@dataclass(frozen=True)
class Composition:
    """Ordered positive parts; part order is increasing litter age."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @classmethod
    def from_text(cls, text: str) -> "Composition":
        return cls(tuple(int(p) for p in text.split(",")))

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class CompositionSample:
    """A window composition with the kernel's hits of its sorted uniforms:
    ball i landed strictly inside litter index[i] (sorted by age) when
    litter[i], and otherwise on the regenerative set, just before litter
    index[i] (or on a tie with an edge of it)."""

    composition: Composition
    index: np.ndarray
    litter: np.ndarray


class SubordinatorWindow:
    """Poisson litter points with ages in [0, T), sorted by age, plus the
    prefix log-products that make cdf O(log m).

    points is the (3, m) array of (age, size, mark) rows, sorted by age as
    drawn (_draw_points) or given (window_from_points).  Its first one-row
    use (ages, sizes, marks, log_prefix, left_g/right_g, cdf, g_max, a
    one-row _Rows block) settles the window: the block kernel _settle,
    run on this one window, builds the prefix and the (3, 1, m + 1)
    planes (left edge, right edge, mark; padded with inf), the window as
    a one-row block of the inversion kernel (see _Rows).  npoints and
    n_extensions never settle.  Mutable only through extend(); a single
    sampling task owns a window.
    """

    __slots__ = (
        "mu",
        "eps",
        "T",
        "T0",
        "n_extensions",
        "_points",
        "_prefix",
        "_planes",
        "_gmax",
        "_measure",
        "_rng",
        "_intensity",
        "_moment_below",
    )

    def __init__(self, measure, mu, T, eps, rng, points):
        self.mu = float(mu)
        self.eps = float(eps)
        self.T = float(T)
        self.T0 = float(T)
        self._measure = measure
        self._rng = rng
        self._intensity = None
        self._moment_below = 0.0
        self.n_extensions = 0
        self._points = points
        self._planes = None

    def _rows(self) -> np.ndarray:
        """The window's (3, 1, m + 1) planes, settling it first if its
        points are as drawn."""
        if self._planes is None:
            m = self.npoints
            points, prefix, self._planes, gmax = _settle([self])
            self._points = points[:, 0, :m]
            self._prefix = prefix[0, : m + 1]
            self._gmax = gmax[0]
        return self._planes

    # -- basic queries ----------------------------------------------------

    @property
    def npoints(self) -> int:
        return self._points.shape[1]

    @property
    def ages(self) -> np.ndarray:
        self._rows()
        return self._points[0]

    @property
    def sizes(self) -> np.ndarray:
        self._rows()
        return self._points[1]

    @property
    def marks(self) -> np.ndarray:
        self._rows()
        return self._points[2]

    @property
    def log_prefix(self) -> np.ndarray:
        """log prod_{i < k} (1 - X_i), k = 0..m, over the litters by age."""
        self._rows()
        return self._prefix

    @property
    def left_g(self) -> np.ndarray:
        return self._rows()[0, 0, : self.npoints]

    @property
    def right_g(self) -> np.ndarray:
        return self._rows()[1, 0, : self.npoints]

    def g_max(self) -> float:
        """Log-survival coverage: G(T) over the realized points."""
        self._rows()
        return self._gmax

    def cdf(self, s: float) -> float:
        """F(s) = 1 - exp(-mu*s) * prod over litters of age <= s."""
        if s < 0.0:
            raise ValueError("age must be nonnegative")
        idx = int(np.searchsorted(self.ages, s, side="right"))
        return -math.expm1(-self.mu * s + self.log_prefix[idx])

    def truncation_bias(self) -> float:
        """Bound on the sampling bias from the jump-size cutoff: realized
        horizon times the x-moment of nu below eps."""
        return self.T * self._moment_below

    # -- extension ---------------------------------------------------------

    def _poisson_intensity(self) -> float:
        if self._intensity is None:
            self._intensity = litter_intensity_tail(self._measure, self.eps)[0]
        return self._intensity

    def extend(self) -> None:
        """Double the window: fresh Poisson points on ages [T, 2T) only, a
        one-row draw of _draw_points appended already sorted; refused once
        T has been doubled _MAX_DOUBLINGS times."""
        if self.n_extensions >= _MAX_DOUBLINGS:
            raise WindowExhaustionError(
                f"window extension cap {self.T:g} (2**{_MAX_DOUBLINGS} "
                f"times the initial horizon {self.T0:g}) hit"
            )
        if self._rng is None or self._measure is None:
            raise BeyondWindowError("window has no generator; cannot extend")
        lam = self._poisson_intensity() * self.T
        _check_window_size(self._measure, 2.0 * lam, 2.0 * self.T, self.eps)
        points, (count,) = _draw_points(self._measure, self.eps, lam, self.T, [self._rng])
        new = points[:, 0, :count]
        new[0] += self.T
        # every new point is older than the old ones and comes sorted, so
        # appending keeps the window sorted by age
        self._points = np.concatenate((self._points, new), axis=1)
        self._planes = None
        self.T *= 2.0
        self.n_extensions += 1

    def ensure_coverage(self, v: float, after: int = -1) -> None:
        """Extend until the window covers the query of v, taken after
        litter `after` (the parent query of its mark) or, at -1, from
        age 0."""
        t = _g(v) + (0.0 if after < 0 else float(self.right_g[after]))
        while t >= self.g_max():
            self.extend()


def _g(v):
    """The g-coordinate -log(1 - v) of a query, scalar or array, by
    np.log1p: every query rounds alike whichever path forms it."""
    return -np.log1p(-v)


# The (age, size, mark) a settled row is padded with: a size of 0 keeps
# the prefix flat, and the age only enters edges that are set to inf.
_PAD_POINT = np.array([[0.0], [0.0], [np.inf]])


def _settle(windows):
    """The one settle kernel: build the prefixes and edges of a block of R
    windows, all rows at once.

    Every window holds its points sorted by age (see _draw_points and
    window_from_points), so nothing is sorted here.  Row r holds window
    r's points, padded to W = 1 + the largest point count; one log1p and
    cumsum along the rows give the prefixes, and two subtractions the
    edges.  Returns (points, prefix, planes, gmax): points (3, R, W) the
    (age, size, mark) rows, prefix (R, W + 1) the log-products, planes
    (3, R, W) the (left edge, right edge, mark) rows with inf past each
    row's points, and gmax (R,) each window's coverage G(T).
    """
    counts = np.array([w.npoints for w in windows])
    R, width = len(windows), 1 + counts.max()
    pad = np.arange(width) >= counts[:, None]
    points = np.empty((3, R, width))
    points[:, pad] = _PAD_POINT
    points[:, ~pad] = np.concatenate([w._points for w in windows], axis=1)
    # the pads add log1p(-0) = -0.0, so the last column is each row's total
    prefix = np.zeros((R, width + 1))
    np.log1p(-points[1]).cumsum(axis=1, out=prefix[:, 1:])
    mu = np.array([w.mu for w in windows])
    planes = np.empty((3, R, width))
    np.multiply(mu[:, None], points[0], out=planes[0])
    np.subtract(planes[0], prefix[:, 1:], out=planes[1])
    np.subtract(planes[0], prefix[:, :-1], out=planes[0])
    np.copyto(planes[:2], np.inf, where=pad)
    planes[2] = points[2]
    gmax = mu * np.array([w.T for w in windows]) - prefix[:, -1]
    return points, prefix, planes, gmax


def _locate(planes: np.ndarray, rows, t, start):
    """The one inversion rule, for queries on a block of padded window rows.

    planes[0] and planes[1] are the (R, W) left and right edge rows (see
    _Rows).  Query q reads row rows[q] at the g-coordinate t[q], covered
    by that row, among the litters with index >= start[q].  Returns
    (j, litter): j is the first such litter whose right edge is >= t, and
    litter says whether t lies strictly inside its interval; otherwise t
    is on the regenerative set, ties at either edge included.  rows
    ascend.  One row counts its right edges below t by one searchsorted;
    several rows by one lockstep lower bound, ceil(log2 W) gathers over
    all queries at once, which on each row equals
    searchsorted(side="left").
    """
    if rows[0] == rows[-1]:
        left, right = planes[0, rows[0]], planes[1, rows[0]]
        j = at = np.maximum(right.searchsorted(t), start)
    else:
        width = planes.shape[2]
        left, right = planes[0].ravel(), planes[1].ravel()
        base = rows * width
        # the last column of every row is a pad (inf), so a probe past it
        # reads that pad and never counts
        last = base + (width - 1)
        at = base.copy()
        for k in reversed(range((width - 1).bit_length())):
            probe = np.minimum(at + ((1 << k) - 1), last)
            np.add(at, 1 << k, out=at, where=right[probe] < t)
        j = np.maximum(at - base, start)
        at = j + base
    return j, (left[at] < t) & (t < right[at])


class _Rows:
    """A block of R windows read as padded rows, for the lockstep samplers.

    planes (3, R, W) stacks the windows' (left edge, right edge, mark)
    rows padded with inf to W = 1 + the largest point count, so the first
    right edge at or above a covered query always lies in its own row;
    gmax (R,) is each window's coverage.  The rows of several windows come
    from one _settle; one window settles itself, so the window and its
    block share one settle.  A query past its row's coverage extends that
    window through its own ensure_coverage, and only that row is written
    afresh (the planes widen when it outgrows W); the window's k-th
    extension draws the same numbers whichever query asks for it.
    """

    __slots__ = ("windows", "planes", "gmax")

    def __init__(self, windows):
        self.windows = windows
        if len(windows) == 1:
            self.planes = windows[0]._rows().copy()
            self.gmax = np.array([windows[0].g_max()])
        else:
            _, _, self.planes, self.gmax = _settle(windows)

    def _patch(self, rows) -> None:
        """Rewrite the rows of the windows that were extended."""
        rows = set(rows)
        width = 1 + max(self.windows[r].npoints for r in rows)
        if width > self.planes.shape[2]:
            grown = np.full((3, len(self.windows), width), np.inf)
            grown[:, :, : self.planes.shape[2]] = self.planes
            self.planes = grown
        for r in rows:
            w = self.windows[r]
            self.planes[:, r, : w.npoints + 1] = w._rows()[:, 0]
            self.gmax[r] = w.g_max()

    def hits(self, vs: np.ndarray):
        """(j, litter) of the sorted uniforms vs (R, n), row r on window r,
        each window first extended to cover its largest uniform."""
        t = _g(vs)
        beyond = (t[:, -1] >= self.gmax).nonzero()[0].tolist()
        for r in beyond:
            self.windows[r].ensure_coverage(float(vs[r, -1]))
        if beyond:
            self._patch(beyond)
        R, n = vs.shape
        j, litter = _locate(self.planes, np.arange(R).repeat(n), t.ravel(), 0)
        return j.reshape(R, n), litter.reshape(R, n)

    def roots(self, rows: np.ndarray, cur: np.ndarray):
        """(root, height) of each litter cur[q] of window rows[q] (rows
        ascending): every live query takes one parent step per generation,
        from its litter's mark into the older litters, until
        the mark lands on the regenerative set; that litter is the root
        and the generation its height."""
        root = np.empty_like(cur)
        height = np.empty_like(cur)
        q = np.arange(len(cur))
        gen = 0
        while q.size:
            at = rows * self.planes.shape[2] + cur
            marks = self.planes[2].ravel()[at]
            t = self.planes[1].ravel()[at] + _g(marks)
            beyond = (t >= self.gmax[rows]).nonzero()[0].tolist()
            for i in beyond:
                self.windows[rows[i]].ensure_coverage(float(marks[i]), int(cur[i]))
            if beyond:
                self._patch(rows[beyond].tolist())
            j, litter = _locate(self.planes, rows, t, cur + 1)
            if not litter.all():
                done = ~litter
                root[q[done]] = cur[done]
                height[q[done]] = gen
                q, rows, j = q[litter], rows[litter], j[litter]
            cur = j
            gen += 1
        return root, height


def default_window_horizon(measure: LambdaMeasure, mu: float, n: int) -> float:
    """Initial T with n * exp(-decay * T) <= 1e-6, where decay combines the
    drift and the expected jump attrition (the 1/x integral of L)."""
    decay = mu + dust_integral(measure)
    if decay <= 0.0:
        raise DegenerateMeasureError("no drift and no jumps: empty subordinator")
    return (math.log(max(n, 1)) + 6.0 * math.log(10.0)) / decay


def _check_window_size(measure, expected: float, T: float, eps: float) -> None:
    if expected > MAX_WINDOW_POINTS:
        raise WindowBudgetError(
            f"window on {measure_descriptor(measure)} expects {expected:.3g} "
            f"points (T={T:g}, eps={eps:.3g}), above the budget of "
            f"{MAX_WINDOW_POINTS:.0e}"
        )


@functools.lru_cache(maxsize=64)
def _window_setup(measure: LambdaMeasure, T: float, eps) -> tuple[float, float, float]:
    """(eps, nu(eps, 1], integral of x nu(dx) below eps) for windows of
    horizon T; eps="auto" is resolved by choose_truncation.  Failures
    raise and are not cached."""
    require_population_support(measure)
    if eps == "auto":
        eps = choose_truncation(measure, T)
    above, below = litter_intensity_tail(measure, eps)
    return eps, above, below


def _draw_points(measure, eps, lam, T, rngs, budget=math.inf):
    """The one draw kernel: the litter points of ages [0, T), Poisson(lam)
    of them, of each generator in turn, until the rows drawn hold `budget`
    points between them.

    Row r's stream: one Poisson count c, then one block of k c + 1
    uniforms, c (spacing, inverse-cdf uniform, mark) triples and a last
    spacing; a measure without a nu_quantile (k = 2) has no inverse-cdf
    uniforms and draws its c sizes after the block, by the rounds of
    sample_nu run in lockstep over all the rows (measures._nu_rows).  The
    ages are T * S_i / S_(c+1), i = 1..c, of the partial sums S of the
    c + 1 exponential spacings, the order statistics of c uniforms on
    [0, T), so every row comes sorted by age.  The rows' blocks sit in
    one zero-padded (R, W + 1, k) array, W the largest count, whose k
    planes are the spacings, the inverse-cdf uniforms and the marks; the
    spacings' log1p, their cumsum along the rows (a row's sums do not
    depend on the others, and the zero pads add nothing), the scale and
    the inverse cdf each run once over all the rows.  Returns (points,
    counts): points (3, R, W + 1) holds row r's (age, size, mark) points
    in points[:, r, :counts[r]].
    """
    quantile = measure.nu_quantile(eps) if lam > 0.0 else None
    k = 2 if quantile is None else 3
    counts = []
    for rng in rngs:
        counts.append(int(rng.poisson(lam)))
        budget -= counts[-1]
        if budget <= 0:
            break
    R, width = len(counts), max(counts) + 1
    u = np.zeros((R, k * width))
    planes = u.reshape(R, width, k).transpose(2, 0, 1)
    # with inverse-cdf uniforms the planes become the points in place
    points = planes if k == 3 else np.empty((3, R, width))
    for r, (rng, c) in enumerate(zip(rngs, counts)):
        rng.random(out=u[r, : k * c + 1])
    if k == 2:
        _nu_rows(measure, eps, counts, rngs, points[1])
    # log1p(-u) = -E: the sums of -E give the same ratios as the sums of E
    sums = np.log1p(-planes[0])
    np.add.accumulate(sums, axis=1, out=sums)
    np.multiply(sums, T / sums[:, -1:], out=points[0])
    if k == 2:
        points[2] = planes[1]
    else:
        quantile(points[1], out=points[1])
    return points, counts


def _draw_windows(measure, mu, T, eps, rngs, budget=math.inf) -> list:
    """Windows of ages [0, T) drawn by _draw_points, one per generator in
    turn until they hold `budget` points between them."""
    _check_mu(mu)
    if T <= 0.0:
        raise ValueError("T must be positive")
    eps, mass_above, moment_below = _window_setup(measure, T, eps)
    if mu == 0.0 and mass_above == 0.0:
        raise DegenerateMeasureError("no drift and no jumps: empty subordinator")
    _check_window_size(measure, mass_above * T, T, eps)
    points, counts = _draw_points(measure, eps, mass_above * T, T, rngs, budget)
    windows = []
    for r, (rng, c) in enumerate(zip(rngs, counts)):
        window = SubordinatorWindow(measure, mu, T, eps, rng, points[:, r, :c])
        window._intensity = mass_above
        window._moment_below = moment_below
        windows.append(window)
    return windows


def sample_window(
    measure: LambdaMeasure,
    mu: float,
    T: float,
    eps: float | str = "auto",
    rng: np.random.Generator | None = None,
) -> SubordinatorWindow:
    """Realize the litter points of ages [0, T): a one-row draw of the
    draw kernel (_draw_points).

    eps="auto" picks 0 for finite-activity measures and otherwise a cutoff
    whose accumulated bias bound T * integral_0^eps x nu(dx) stays below
    1e-6 for the initial horizon.
    """
    if rng is None:
        raise ValueError("an explicit generator is required")
    (window,) = _draw_windows(measure, mu, T, eps, [rng])
    return window


def window_from_points(
    mu: float,
    points,
    T: float,
    measure: LambdaMeasure | None = None,
    rng: np.random.Generator | None = None,
) -> SubordinatorWindow:
    """Deterministic window from explicit (age, size, mark) triples, sorted
    by age once (stably, so tied ages keep their given order); used to
    replay known configurations."""
    pts = np.array(list(points), dtype=float).reshape(-1, 3).T
    pts = pts[:, pts[0].argsort(kind="stable")]
    ages, sizes, _ = pts
    if np.any(ages < 0.0) or np.any(ages >= T):
        raise ValueError("ages must lie in [0, T)")
    if np.any((sizes <= 0.0) | (sizes >= 1.0)):
        raise ValueError("sizes must lie strictly inside (0, 1)")
    return SubordinatorWindow(measure, mu, T, 0.0, rng, pts)


# ---------------------------------------------------------------------------
# composition samplers
# ---------------------------------------------------------------------------


def _part_starts(j: np.ndarray, litter: np.ndarray) -> np.ndarray:
    """Flags, along the last axis of the kernel's hits of sorted uniforms,
    of the hits that open a part: every hit but one that shares a litter
    with the hit before it (a regenerative hit is a singleton part)."""
    # hit i shares a litter with hit i - 1 when it is a litter hit and both
    # have one code 2 j + litter: a regenerative hit sent to litter j has
    # an even code
    code = 2 * j + litter
    starts = np.ones(j.shape, dtype=bool)
    starts[..., 1:] = code[..., 1:] != code[..., :-1]
    starts |= ~litter
    return starts


def _parts(starts) -> tuple[int, ...]:
    """Part sizes of one row of _part_starts flags."""
    at = starts.nonzero()[0].tolist() + [len(starts)]
    return tuple(b - a for a, b in zip(at, at[1:]))


def _window_hits(windows: list, rngs, n: int):
    """Drop n uniforms on each window from its own generator, after the
    draws of the window itself: (block, j, litter), the _Rows block of the
    windows and the kernel's (R, n) hits of their sorted uniforms."""
    if n < 1:
        raise ValueError("n must be at least 1")
    vs = np.empty((len(rngs), n))
    for rng, row in zip(rngs, vs):
        rng.random(out=row)
    vs.sort(axis=1)
    block = _Rows(windows)
    return (block, *block.hits(vs))


# Window points one lockstep block holds at most: every window of a block
# stays alive, with its padded rows, until its uniforms are placed.  A
# window above it is a block of its own, as one window always was.
_BLOCK_POINTS = 1 << 16


def _window_blocks(measure, mu, T, rngs, n: int, read) -> list:
    """Concatenated read(block, j, litter) of _window_hits, one block of
    whole windows at a time, in generator order: one _draw_windows call
    draws the windows of ages [0, T) of a block, which closes once they
    hold _BLOCK_POINTS points between them."""
    out = []
    done = 0
    while done < len(rngs):
        windows = _draw_windows(measure, mu, T, "auto", rngs[done:], _BLOCK_POINTS)
        out += read(*_window_hits(windows, rngs[done : done + len(windows)], n))
        done += len(windows)
    return out


def _composition_texts(measure, mu, n, T0, rngs) -> list[str]:
    """Window compositions of n, one text per generator."""

    def read(block, j, litter):
        texts: dict = {}
        out = []
        for row in _part_starts(j, litter):
            key = row.tobytes()
            text = texts.get(key)
            if text is None:
                text = texts[key] = ",".join(map(str, _parts(row)))
            out.append(text)
        return out

    return _window_blocks(measure, mu, T0, rngs, n, read)


def sample_composition_detailed(
    window: SubordinatorWindow, n: int, rng: np.random.Generator
) -> CompositionSample:
    """Drop n uniforms on the window and read off the age-ordered
    composition together with the per-ball hits: a one-row call of
    _window_hits."""
    _, (j,), (litter,) = _window_hits([window], [rng], n)
    return CompositionSample(Composition(_parts(_part_starts(j, litter))), j, litter)


def sequential_composition(
    measure: LambdaMeasure,
    mu: float,
    n: int,
    rng: np.random.Generator,
    laws: list[FirstPartLaw | None] | None = None,
) -> Composition:
    """Build the composition part by part from the first-part law: draw the
    first part of the remaining sample size, remove it, repeat.  Exact and
    cheap; the distributional reference for the window sampler."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if laws is None:
        laws = first_part_laws_upto(measure, mu, n)
    parts = []
    remaining = n
    while remaining > 0:
        cum = laws[remaining].cumulative
        m = 1 + int(np.searchsorted(cum, rng.random() * cum[-1]))
        m = min(m, remaining)
        parts.append(m)
        remaining -= m
    return Composition(tuple(parts))


def delete_random_ball(
    comp: Composition, rng: np.random.Generator
) -> Composition | None:
    """Remove one uniformly chosen ball; None when the composition empties."""
    total = comp.n
    if total == 1:
        return None
    pick = int(rng.integers(total))
    parts = list(comp.parts)
    acc = 0
    for i, p in enumerate(parts):
        acc += p
        if pick < acc:
            parts[i] -= 1
            if parts[i] == 0:
                parts.pop(i)
            break
    return Composition(tuple(parts))
