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
sample_composition_detailed is the one place uniforms are dropped on a
window; the population module's set sampler pools its litter hits by
genealogy root.

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

    Mutable only through extend(); a single sampling task owns a window.
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
        order = np.argsort(ages, kind="stable")
        self.ages = np.asarray(ages, dtype=float)[order]
        self.sizes = np.asarray(sizes, dtype=float)[order]
        self.marks = np.asarray(marks, dtype=float)[order]
        self._rebuild_prefix()

    def _rebuild_prefix(self):
        log_surv = np.log1p(-self.sizes)
        self.log_prefix = np.concatenate(([0.0], np.cumsum(log_surv)))
        base = self.mu * self.ages
        self.left_g = base - self.log_prefix[:-1]
        self.right_g = base - self.log_prefix[1:]

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

    def _invert_g(self, g: float, after: int) -> HitResult:
        """Resolve a log-survival query among points with sorted index
        > after (after = -1 for time-0 queries)."""
        start = after + 1
        offset = 0.0 if after < 0 else float(self.right_g[after])
        t = g + offset
        if t >= self.g_max():
            raise BeyondWindowError(
                "query beyond realized window; extend before inverting"
            )
        j = start + int(np.searchsorted(self.right_g[start:], t, side="left"))
        if j < self.npoints and self.left_g[j] < t < self.right_g[j]:
            return HitResult("litter", float(self.ages[j]), j)
        # on the closed range; solve mu*s - prefix = t on the flat segment
        if j < self.npoints and t >= self.right_g[j]:
            j += 1
        if self.mu > 0.0:
            s_abs = (t + self.log_prefix[j]) / self.mu
        else:
            # drift-free path is flat between jumps; ties only
            s_abs = float(self.ages[j - 1]) if j > 0 else 0.0
        base_age = 0.0 if after < 0 else float(self.ages[after])
        return HitResult("regenerative", max(s_abs - base_age, 0.0), None)

    def invert(self, v: float) -> HitResult:
        """Smallest age s with F(s) >= v, tagged by what was hit.

        Raises BeyondWindowError when v >= cdf(T); the caller decides
        whether to extend.
        """
        if not (0.0 < v < 1.0):
            raise ValueError("v must lie strictly inside (0, 1)")
        return self._invert_g(-math.log1p(-v), after=-1)

    def invert_after(self, index: int, v: float) -> HitResult:
        """Inversion against the sub-window of litters strictly older than
        litter `index`; ages in the result are relative to that litter.
        This is the parent query of the genealogy."""
        if not (0.0 <= index < self.npoints):
            raise ValueError("index outside window")
        if not (0.0 < v < 1.0):
            raise ValueError("v must lie strictly inside (0, 1)")
        return self._invert_g(-math.log1p(-v), after=int(index))

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


def _group_hits(hits: list[HitResult]) -> Composition:
    """Parts = runs of consecutive sorted uniforms sharing a litter;
    regenerative hits are singleton parts."""
    parts = []
    prev_index = None
    for hit in hits:
        if hit.kind == "litter" and hit.index == prev_index:
            parts[-1] += 1
        else:
            parts.append(1)
            prev_index = hit.index if hit.kind == "litter" else None
    return Composition(tuple(parts))


def sample_composition_detailed(
    window: SubordinatorWindow, n: int, rng: np.random.Generator
) -> CompositionSample:
    """Drop n uniforms on the window and read off the age-ordered
    composition together with the per-ball hits."""
    if n < 1:
        raise ValueError("n must be at least 1")
    vs = np.sort(rng.random(n))
    window.ensure_coverage(float(vs[-1]))
    hits = [window.invert(float(v)) for v in vs]
    return CompositionSample(_group_hits(hits), tuple(hits))


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
        law = laws[remaining]
        cum = np.cumsum(law.probs)
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
