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

_locate is the one inversion rule.  It reads a block of windows as padded
rows of their interval edges (_Rows: inf past each row's points) and
places any number of g-coordinate queries at once, one searchsorted per
row; a query may be restricted to the litters older than a given one,
which is the genealogy's parent query.  The lockstep window samplers drop
the uniforms of a whole draw block on one _Rows block (_window_hits; a
block holds at most _BLOCK_POINTS window points), and the set sampler
chases the roots of all its litter hits in one _Rows.roots call, one
parent step per generation.  invert, invert_after
and sample_composition_detailed are one-query or one-row calls of it.
Queries are g = -log1p(-v) by math.log1p, the scalar rounding, wherever
they are formed.

ensure_coverage is the one loop that extends a window backwards, one
doubling of T per extend(); after max_doublings of them (default 10, so
2**10 times the initial horizon) extend() raises WindowExhaustionError,
whichever sampler reads the window.

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
    choose_truncation,
    dust_integral,
    first_part_laws_upto,
    litter_intensity_tail,
    measure_descriptor,
    require_population_support,
    sample_jump_sizes,
)

__all__ = [
    "HitResult",
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


@dataclass(frozen=True)
class HitResult:
    """Where an inverted uniform landed: inside litter `index` (sorted by
    age) or on the regenerative set at the given age."""

    kind: str  # "litter" | "regenerative"
    age: float
    index: int | None = None


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
    composition: Composition
    hits: tuple[HitResult, ...]  # one per sorted uniform


class SubordinatorWindow:
    """Poisson litter points with ages in [0, T), sorted by age, plus the
    prefix log-products that make cdf/invert O(log m).

    left_g and right_g are views of one (2, 1, m + 1) array padded with
    inf, the window as a one-row block of the inversion kernel's edges
    (see _Rows).  Mutable only through extend(); a single sampling task
    owns a window.
    """

    __slots__ = (
        "mu",
        "eps",
        "T",
        "T0",
        "ages",
        "sizes",
        "marks",
        "log_prefix",
        "left_g",
        "right_g",
        "n_extensions",
        "max_doublings",
        "_edges",
        "_measure",
        "_rng",
        "_intensity",
        "_moment_below",
    )

    def __init__(self, measure, mu, T, eps, rng, ages, sizes, marks):
        self.mu = float(mu)
        self.eps = float(eps)
        self.T = float(T)
        self.T0 = float(T)
        self._measure = measure
        self._rng = rng
        self._intensity = None
        self._moment_below = 0.0
        self.n_extensions = 0
        self.max_doublings = 10
        order = np.asarray(ages).argsort(kind="stable")
        self.ages = np.asarray(ages, dtype=float)[order]
        self.sizes = np.asarray(sizes, dtype=float)[order]
        self.marks = np.asarray(marks, dtype=float)[order]
        self._rebuild_prefix()

    def _rebuild_prefix(self):
        m = len(self.ages)
        self.log_prefix = np.empty(m + 1)
        self.log_prefix[0] = 0.0
        np.log1p(-self.sizes).cumsum(out=self.log_prefix[1:])
        base = self.mu * self.ages
        self._edges = np.empty((2, 1, m + 1))
        self.left_g = np.subtract(base, self.log_prefix[:-1], out=self._edges[0, 0, :m])
        self.right_g = np.subtract(base, self.log_prefix[1:], out=self._edges[1, 0, :m])
        self._edges[:, 0, m] = np.inf

    # -- basic queries ----------------------------------------------------

    @property
    def npoints(self) -> int:
        return len(self.ages)

    def g_max(self) -> float:
        """Log-survival coverage: G(T) over the realized points."""
        return self.mu * self.T - self.log_prefix[-1]

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

    # -- inversion ---------------------------------------------------------

    def _hit(self, t: float, j: int, litter: bool, after: int) -> HitResult:
        """The HitResult of a query at g-coordinate t that _locate sent to
        litter index j: that litter, or the range point where the flat
        segment before litter j (after it, on a tie with its right edge)
        reaches t; ages are relative to litter `after`."""
        if litter:
            return HitResult("litter", float(self.ages[j]), j)
        if t >= self._edges[1, 0, j]:
            j += 1
        if self.mu > 0.0:
            s_abs = (t + self.log_prefix[j]) / self.mu
        else:
            # drift-free path is flat between jumps; ties only
            s_abs = float(self.ages[j - 1]) if j > 0 else 0.0
        base_age = 0.0 if after < 0 else float(self.ages[after])
        return HitResult("regenerative", float(max(s_abs - base_age, 0.0)), None)

    def _invert_one(self, v: float, after: int) -> HitResult:
        if not (0.0 < v < 1.0):
            raise ValueError("v must lie strictly inside (0, 1)")
        t = -math.log1p(-v)
        if after >= 0:
            t += float(self.right_g[after])
        if t >= self.g_max():
            raise BeyondWindowError(
                "query beyond realized window; extend before inverting"
            )
        j, litter = _locate(self._edges, 0, t, after + 1)
        return self._hit(t, int(j), bool(litter), after)

    def invert(self, v: float) -> HitResult:
        """Smallest age s with F(s) >= v, tagged by what was hit.

        Raises BeyondWindowError when v >= cdf(T); the caller decides
        whether to extend.
        """
        return self._invert_one(v, -1)

    def invert_after(self, index: int, v: float) -> HitResult:
        """Inversion against the sub-window of litters strictly older than
        litter `index`; ages in the result are relative to that litter.
        This is the parent query of the genealogy."""
        if not (0.0 <= index < self.npoints):
            raise ValueError("index outside window")
        return self._invert_one(v, int(index))

    def coverage_ok(self, v: float, after: int = -1) -> bool:
        g = -math.log1p(-v)
        offset = 0.0 if after < 0 else float(self.right_g[after])
        return g + offset < self.g_max()

    # -- extension ---------------------------------------------------------

    def _poisson_intensity(self) -> float:
        if self._intensity is None:
            self._intensity = litter_intensity_tail(self._measure, self.eps)[0]
        return self._intensity

    def extend(self) -> None:
        """Double the window: fresh Poisson points on ages [T, 2T) only;
        refused once T has been doubled max_doublings times."""
        if self.n_extensions >= self.max_doublings:
            raise WindowExhaustionError(
                f"window extension cap {self.T:g} (2**{self.max_doublings} "
                f"times the initial horizon {self.T0:g}) hit"
            )
        if self._rng is None or self._measure is None:
            raise BeyondWindowError("window has no generator; cannot extend")
        lam = self._poisson_intensity() * self.T
        _check_window_size(self._measure, 2.0 * lam, 2.0 * self.T, self.eps)
        count = int(self._rng.poisson(lam))
        new_ages = self.T + self._rng.random(count) * self.T
        new_sizes = sample_jump_sizes(self._measure, self.eps, count, self._rng)
        new_marks = self._rng.random(count)
        order = np.argsort(new_ages, kind="stable")
        self.ages = np.concatenate((self.ages, new_ages[order]))
        self.sizes = np.concatenate((self.sizes, new_sizes[order]))
        self.marks = np.concatenate((self.marks, new_marks[order]))
        self.T *= 2.0
        self.n_extensions += 1
        self._rebuild_prefix()

    def ensure_coverage(self, v: float, after: int = -1) -> None:
        while not self.coverage_ok(v, after):
            self.extend()


def _neg_log1m(v: np.ndarray) -> np.ndarray:
    """-log(1 - v) elementwise by math.log1p, the rounding of every scalar
    query (numpy's vectorised log1p may differ from it in the last bit)."""
    return np.array([-math.log1p(-x) for x in v.ravel().tolist()]).reshape(v.shape)


def _locate(planes: np.ndarray, rows, t, start):
    """The one inversion rule, for queries on a block of padded window rows.

    planes[0] and planes[1] are the (R, W) left and right edge rows (see
    _Rows).  Query q reads row rows[q] at the g-coordinate t[q], covered
    by that row, among the litters with index >= start[q].  Returns
    (j, litter): j is the first such litter whose right edge is >= t, and
    litter says whether t lies strictly inside its interval; otherwise t
    is on the regenerative set, ties at either edge included.  rows
    ascend; an int row with a float t and an int start is one query and
    gives scalars.  Right edges below t are counted by one searchsorted
    per row.
    """
    if isinstance(rows, int) or rows[0] == rows[-1]:
        row = rows if isinstance(rows, int) else int(rows[0])
        left, right = planes[0, row], planes[1, row]
        j = at = np.maximum(right.searchsorted(t), start)
    else:
        width = planes.shape[2]
        left, right = planes[0].ravel(), planes[1].ravel()
        cuts = ((rows[1:] != rows[:-1]).nonzero()[0] + 1).tolist()
        below = np.concatenate(
            [
                right[rows[a] * width : (rows[a] + 1) * width].searchsorted(t[a:b])
                for a, b in zip([0] + cuts, cuts + [len(t)])
            ]
        )
        j = np.maximum(below, start)
        at = j + rows * width
    return j, (left[at] < t) & (t < right[at])


class _Rows:
    """A block of R windows read as padded rows, for the lockstep samplers.

    planes (3, R, W) stacks the windows' (left edge, right edge, mark)
    rows padded with inf to W = 1 + the largest point count, so the first
    right edge at or above a covered query always lies in its own row;
    gmax (R,) is each window's coverage.  A query past its row's coverage
    extends that window through its own ensure_coverage, and the rows are
    padded afresh; the window's k-th extension draws the same numbers
    whichever query asks for it.
    """

    __slots__ = ("windows", "planes", "gmax")

    def __init__(self, windows):
        self.windows = windows
        self._fill()

    def _fill(self):
        ws = self.windows
        width = 1 + max(w.npoints for w in ws)
        self.planes = np.full((3, len(ws), width), np.inf)
        for r, w in enumerate(ws):
            self.planes[:2, r, : w.npoints + 1] = w._edges[:, 0]
            self.planes[2, r, : w.npoints] = w.marks
        self.gmax = np.array([w.g_max() for w in ws])

    def hits(self, vs: np.ndarray):
        """(j, litter) of the sorted uniforms vs (R, n), row r on window r,
        each window first extended to cover its largest uniform."""
        t = _neg_log1m(vs)
        beyond = (t[:, -1] >= self.gmax).nonzero()[0].tolist()
        for r in beyond:
            self.windows[r].ensure_coverage(float(vs[r, -1]))
        if beyond:
            self._fill()
        R, n = vs.shape
        j, litter = _locate(self.planes, np.arange(R).repeat(n), t.ravel(), 0)
        return j.reshape(R, n), litter.reshape(R, n)

    def roots(self, rows: np.ndarray, cur: np.ndarray):
        """(root, height) of each litter cur[q] of window rows[q] (rows
        ascending): every live query takes one invert_after step per
        generation, from its litter's mark into the older litters, until
        the mark lands on the regenerative set; that litter is the root
        and the generation its height."""
        root = np.empty_like(cur)
        height = np.empty_like(cur)
        q = np.arange(len(cur))
        gen = 0
        while q.size:
            at = rows * self.planes.shape[2] + cur
            marks = self.planes[2].ravel()[at]
            t = self.planes[1].ravel()[at] + _neg_log1m(marks)
            beyond = (t >= self.gmax[rows]).nonzero()[0].tolist()
            for i in beyond:
                self.windows[rows[i]].ensure_coverage(float(marks[i]), int(cur[i]))
            if beyond:
                self._fill()
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


def sample_window(
    measure: LambdaMeasure,
    mu: float,
    T: float,
    eps: float | str = "auto",
    rng: np.random.Generator | None = None,
) -> SubordinatorWindow:
    """Realize the litter points of ages [0, T).

    eps="auto" picks 0 for finite-activity measures and otherwise a cutoff
    whose accumulated bias bound T * integral_0^eps x nu(dx) stays below
    1e-6 for the initial horizon.
    """
    if rng is None:
        raise ValueError("an explicit generator is required")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if T <= 0.0:
        raise ValueError("T must be positive")
    eps, mass_above, moment_below = _window_setup(measure, T, eps)
    if mu == 0.0 and mass_above == 0.0:
        raise DegenerateMeasureError("no drift and no jumps: empty subordinator")
    _check_window_size(measure, mass_above * T, T, eps)
    count = int(rng.poisson(mass_above * T))
    ages = rng.random(count) * T
    sizes = sample_jump_sizes(measure, eps, count, rng)
    marks = rng.random(count)
    window = SubordinatorWindow(measure, mu, T, eps, rng, ages, sizes, marks)
    window._intensity = mass_above
    window._moment_below = moment_below
    return window


def window_from_points(
    mu: float,
    points,
    T: float,
    measure: LambdaMeasure | None = None,
    rng: np.random.Generator | None = None,
) -> SubordinatorWindow:
    """Deterministic window from explicit (age, size, mark) triples; used
    to replay known configurations."""
    pts = list(points)
    ages = np.array([p[0] for p in pts])
    sizes = np.array([p[1] for p in pts])
    marks = np.array([p[2] for p in pts])
    if np.any(ages < 0.0) or np.any(ages >= T):
        raise ValueError("ages must lie in [0, T)")
    if np.any((sizes <= 0.0) | (sizes >= 1.0)):
        raise ValueError("sizes must lie strictly inside (0, 1)")
    return SubordinatorWindow(measure, mu, T, 0.0, rng, ages, sizes, marks)


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
    vs = np.stack([rng.random(n) for rng in rngs])
    vs.sort(axis=1)
    block = _Rows(windows)
    return (block, *block.hits(vs))


# Window points one lockstep block holds at most: every window of a block
# stays alive, with its padded rows, until its uniforms are placed.  A
# window above it is a block of its own, as one window always was.
_BLOCK_POINTS = 1 << 16


def _window_blocks(make_window, rngs, n: int, read) -> list:
    """Concatenated read(block, j, litter) of _window_hits, one block of
    whole windows at a time, in generator order: replicate r draws its
    window make_window(rng), and a block closes once its windows hold
    _BLOCK_POINTS points between them."""
    out = []
    windows: list = []
    points = 0
    for i, rng in enumerate(rngs):
        windows.append(make_window(rng))
        points += windows[-1].npoints
        if points >= _BLOCK_POINTS or i == len(rngs) - 1:
            out += read(*_window_hits(windows, rngs[i + 1 - len(windows) : i + 1], n))
            windows, points = [], 0
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

    return _window_blocks(
        lambda rng: sample_window(measure, mu, T0, rng=rng), rngs, n, read
    )


def sample_composition_detailed(
    window: SubordinatorWindow, n: int, rng: np.random.Generator
) -> CompositionSample:
    """Drop n uniforms on the window and read off the age-ordered
    composition together with the per-ball hits."""
    if n < 1:
        raise ValueError("n must be at least 1")
    vs = rng.random(n)
    vs.sort()
    window.ensure_coverage(float(vs[-1]))
    t = _neg_log1m(vs)
    j, litter = _locate(window._edges, 0, t, 0)
    hits = tuple(map(window._hit, t.tolist(), j.tolist(), litter.tolist(), [-1] * n))
    return CompositionSample(Composition(_parts(_part_starts(j, litter))), hits)


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
