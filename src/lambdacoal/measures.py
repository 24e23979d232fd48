"""Driving measures on [0, 1] and the rate functionals they induce.

A finite measure L on [0, 1] drives a multiple-merger coalescent: when b
lineages are active, every k-subset merges at rate

    rate(b, k) = integral of x**(k-2) * (1-x)**(b-k) L(dx),   2 <= k <= b.

The same measure, rescaled by 1/x**2, is the jump intensity nu of the
multiplicative subordinator used by the composition and population
samplers.  This module owns the three supported representations of L:

* AtomicMeasure       finitely many weighted atoms (closed-form sums)
* BetaMeasure         mass * Beta(alpha, beta) density (closed forms via
                      log Beta functions)
* DensityTableMeasure tabulated density on a grid inside (0, 1)
                      (adaptive quadrature)

and the derived quantities consumed elsewhere: rate tables, first-part
weights and laws for samples against the stationary population, tail
statistics of nu, and exact sampling of jump sizes from nu truncated away
from zero.

With mutation rate mu >= 0 and a sample of size n, the weight of the event
"the smallest of n uniform balls is in a part of size m" is

    weight(n, m) = mu*n*[m == 1] + C(n, m) * integral x**m (1-x)**(n-m) nu(dx),

and for m >= 2 the integral collapses to rate(n, m).  The m = 1 weight
splits into a mutation part mu*n and a lone-litter part, which the law
object exposes separately; the split is what closes the loop between the
exact recursion and the subordinator samplers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import betainc, betaln

from ._quadrature import adaptive_integral
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
    "require_dust_condition",
    "require_population_support",
]


# ---------------------------------------------------------------------------
# measure representations
# ---------------------------------------------------------------------------


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


class DensityTableMeasure:
    """Density tabulated on a strictly increasing grid inside (0, 1).

    The density between grid points is the interpolant of the given order
    (1 linear, 3 cubic); outside the grid span it is zero, so the measure
    always has compact support strictly inside (0, 1).  Treated as
    immutable after construction.
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
        self._spline = CubicSpline(x, density) if order == 3 else None

    def density_at(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self.order == 1:
            out = np.interp(xs, self.x, self.density, left=0.0, right=0.0)
        else:
            out = self._spline(xs)
            out = np.where((xs < self.x[0]) | (xs > self.x[-1]), 0.0, out)
        # a cubic interpolant of nonnegative data may undershoot slightly
        return np.maximum(out, 0.0)

    def __repr__(self):
        return (
            f"DensityTableMeasure({len(self.x)} points on "
            f"[{self.x[0]:g}, {self.x[-1]:g}], order={self.order})"
        )


LambdaMeasure = Union[AtomicMeasure, BetaMeasure, DensityTableMeasure]


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
    if isinstance(measure, AtomicMeasure):
        if len(measure.locations) == 1 and measure.weights[0] == 1.0:
            return f"delta:{measure.locations[0]:g}"
        body = ",".join(
            f"{x:g}={w:g}" for x, w in zip(measure.locations, measure.weights)
        )
        return f"atoms:{body}"
    if isinstance(measure, BetaMeasure):
        return f"beta:{measure.alpha:g},{measure.beta:g},{measure.mass:g}"
    return f"density-table[{len(measure.x)}pts,order={measure.order}]"


# ---------------------------------------------------------------------------
# basic integrals
# ---------------------------------------------------------------------------


def total_mass(measure: LambdaMeasure) -> float:
    if isinstance(measure, AtomicMeasure):
        return math.fsum(measure.weights)
    if isinstance(measure, BetaMeasure):
        return measure.mass
    return adaptive_integral(measure.density_at, measure.x[0], measure.x[-1])


def _beta_moment(measure: BetaMeasure, p: float, q: float) -> float:
    """integral x**p (1-x)**q against a BetaMeasure, exact in log domain.

    Requires p + alpha > 0 and q + beta > 0.
    """
    a = measure.alpha + p
    b = measure.beta + q
    if a <= 0.0 or b <= 0.0:
        raise NonIntegrableError(
            f"moment x**{p}(1-x)**{q} diverges for beta:{measure.alpha:g},"
            f"{measure.beta:g},{measure.mass:g}"
        )
    return measure.mass * math.exp(betaln(a, b) - betaln(measure.alpha, measure.beta))


def coalescence_rate(measure: LambdaMeasure, b: int, k: int) -> float:
    """Rate at which a fixed k-subset of b lineages merges.

    integral of x**(k-2) (1-x)**(b-k) against the measure, with the
    convention 0**0 = 1 so atoms at the endpoints contribute correctly.
    """
    if not (2 <= k <= b):
        raise ValueError(f"need 2 <= k <= b, got b={b}, k={k}")
    if isinstance(measure, AtomicMeasure):
        terms = [
            w * x ** (k - 2) * (1.0 - x) ** (b - k)
            for x, w in zip(measure.locations, measure.weights)
        ]
        return math.fsum(terms)
    if isinstance(measure, BetaMeasure):
        return _beta_moment(measure, float(k - 2), float(b - k))

    def integrand(x):
        return x ** (k - 2.0) * (1.0 - x) ** (b - k) * measure.density_at(x)

    return adaptive_integral(integrand, measure.x[0], measure.x[-1])


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


def build_rate_table(measure: LambdaMeasure, n_max: int) -> RateTable:
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    rates = np.zeros((n_max + 1, n_max + 1))
    totals = np.zeros(n_max + 1)
    for b in range(2, n_max + 1):
        row = [coalescence_rate(measure, b, k) for k in range(2, b + 1)]
        rates[b, 2 : b + 1] = row
        totals[b] = math.fsum(math.comb(b, k) * row[k - 2] for k in range(2, b + 1))
    return RateTable(n_max, rates, totals, measure_descriptor(measure))


# ---------------------------------------------------------------------------
# dust condition and single-ball integrals
# ---------------------------------------------------------------------------


def dust_integral(measure: LambdaMeasure) -> float:
    """integral of 1/x against the measure (the x-moment of nu).

    Raises DustConditionError when it diverges; finiteness is the standing
    assumption of every sampler built on the subordinator.
    """
    if isinstance(measure, AtomicMeasure):
        if 0.0 in measure.locations:
            raise DustConditionError("atom at 0 makes the 1/x integral infinite")
        return math.fsum(w / x for x, w in zip(measure.locations, measure.weights))
    if isinstance(measure, BetaMeasure):
        if measure.alpha <= 1.0:
            raise DustConditionError(
                f"beta alpha={measure.alpha:g} <= 1 violates the dust condition"
            )
        return _beta_moment(measure, -1.0, 0.0)

    def integrand(x):
        return measure.density_at(x) / x

    return adaptive_integral(integrand, measure.x[0], measure.x[-1])


def require_dust_condition(measure: LambdaMeasure) -> None:
    dust_integral(measure)


def require_population_support(measure: LambdaMeasure) -> None:
    """Standing assumptions of the population construction: no atoms at the
    endpoints and a finite 1/x integral."""
    if isinstance(measure, AtomicMeasure):
        if 0.0 in measure.locations:
            raise PopulationSupportError("atom at 0 is not allowed here")
        if 1.0 in measure.locations:
            raise PopulationSupportError("atom at 1 is not allowed here")
    try:
        dust_integral(measure)
    except DustConditionError as exc:
        raise PopulationSupportError(str(exc)) from exc


def single_ball_integral(measure: LambdaMeasure, n: int) -> float:
    """integral of (1/x) (1-x)**(n-1) against the measure.

    This is the nu-weight of the event that the smallest of n balls falls
    in a litter of its own.  Requires the dust condition.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(measure, AtomicMeasure):
        if 0.0 in measure.locations:
            raise DustConditionError("atom at 0 makes the 1/x integral infinite")
        return math.fsum(
            w * (1.0 - x) ** (n - 1) / x
            for x, w in zip(measure.locations, measure.weights)
        )
    if isinstance(measure, BetaMeasure):
        if measure.alpha <= 1.0:
            raise DustConditionError(
                f"beta alpha={measure.alpha:g} <= 1 violates the dust condition"
            )
        return _beta_moment(measure, -1.0, float(n - 1))

    def integrand(x):
        return measure.density_at(x) * (1.0 - x) ** (n - 1) / x

    return adaptive_integral(integrand, measure.x[0], measure.x[-1])


# ---------------------------------------------------------------------------
# first-part weights and laws
# ---------------------------------------------------------------------------


def first_part_weight(measure: LambdaMeasure, mu: float, n: int, m: int) -> float:
    """Unnormalized weight of "the first part has size m" in a sample of n."""
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
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


def first_part_law(measure: LambdaMeasure, mu: float, n: int) -> FirstPartLaw:
    if n < 1:
        raise ValueError("n must be at least 1")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    lone = n * single_ball_integral(measure, n)
    weights = [mu * n + lone]
    weights += [
        math.comb(n, m) * coalescence_rate(measure, n, m) for m in range(2, n + 1)
    ]
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
    """laws[b] = first_part_law for sample size b, for b = 1..n."""
    laws: list[FirstPartLaw | None] = [None] * (n + 1)
    for b in range(1, n + 1):
        laws[b] = first_part_law(measure, mu, b)
    return laws


# ---------------------------------------------------------------------------
# jump intensity nu = L(dx) / x**2: tails and size sampling
# ---------------------------------------------------------------------------


def _beta_nu_integral(measure: BetaMeasure, p: float, lo: float, hi: float) -> float:
    """integral of x**p against nu restricted to (lo, hi) for a BetaMeasure.

    Exact via regularized incomplete Beta when the effective left exponent
    is positive; otherwise numeric with a substitution that removes the
    (1-x)**(beta-1) endpoint singularity.
    """
    if hi <= lo:
        return 0.0
    # integrand: mass/B(alpha,beta) * x**(alpha+p-3) * (1-x)**(beta-1)
    A = measure.alpha + p - 2.0
    B = measure.beta
    norm = measure.mass
    if A > 0.0:
        scale = norm * math.exp(betaln(A, B) - betaln(measure.alpha, measure.beta))
        return scale * float(betainc(A, B, hi) - betainc(A, B, lo))
    if lo <= 0.0:
        raise InfiniteActivityError(
            "jump intensity integral diverges at 0 without a positive cutoff"
        )
    c = norm * math.exp(-betaln(measure.alpha, measure.beta))
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


def _nu_mass_above(measure: LambdaMeasure, eps: float) -> float:
    """nu(eps, 1]; InfiniteActivityError when it is infinite."""
    if isinstance(measure, AtomicMeasure):
        if 0.0 in measure.locations:
            raise InfiniteActivityError("atom at 0 gives nu infinite mass")
        return math.fsum(
            w / (x * x)
            for x, w in zip(measure.locations, measure.weights)
            if eps < x
        )
    if isinstance(measure, BetaMeasure):
        if eps == 0.0 and measure.alpha <= 2.0:
            raise InfiniteActivityError(
                f"beta alpha={measure.alpha:g} <= 2 has infinite jump intensity"
            )
        return _beta_nu_integral(measure, 0.0, eps, 1.0)
    # density table: compact support inside (0, 1), everything is finite
    x0, x1 = measure.x[0], measure.x[-1]

    def nu_density(x):
        return measure.density_at(x) / (x * x)

    return adaptive_integral(nu_density, max(eps, x0), x1) if eps < x1 else 0.0


def _nu_moment_below(measure: LambdaMeasure, eps: float) -> float:
    """integral of x nu(dx) over (0, eps]: closed form for atoms and Beta
    measures (the Beta exponent alpha - 1 is positive under the dust
    condition), quadrature for tables."""
    if isinstance(measure, AtomicMeasure):
        return math.fsum(
            w / x for x, w in zip(measure.locations, measure.weights) if x <= eps
        )
    if isinstance(measure, BetaMeasure):
        return _beta_nu_integral(measure, 1.0, 0.0, eps) if eps > 0.0 else 0.0
    x0, x1 = measure.x[0], measure.x[-1]

    def x_nu_density(x):
        return measure.density_at(x) / x

    return adaptive_integral(x_nu_density, x0, min(eps, x1)) if eps > x0 else 0.0


def litter_intensity_tail(measure: LambdaMeasure, eps: float) -> tuple[float, float]:
    """(mass of nu above eps, integral of x nu(dx) below eps).

    nu(dx) = L(dx)/x**2 on (0, 1].  "Above" is the interval (eps, 1];
    atoms exactly at eps count toward the lower moment.  eps = 0 is
    allowed only for finite-activity measures; otherwise
    InfiniteActivityError.
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps must be in [0, 1)")
    return _nu_mass_above(measure, eps), _nu_moment_below(measure, eps)


def choose_truncation(
    measure: LambdaMeasure, horizon: float, budget: float = 1e-6
) -> float:
    """Smallest-cost jump-size cutoff eps with horizon * integral_{0}^{eps}
    x nu(dx) <= budget.

    Returns 0.0 for finite-activity measures (no truncation needed).  Only
    Beta measures with alpha <= 2 have infinite activity once the dust
    condition holds; for them the cutoff is found by bisection on log eps
    against the closed-form moment below eps, and the returned value is
    the largest tested eps meeting the budget.
    """
    require_dust_condition(measure)
    if not (isinstance(measure, BetaMeasure) and measure.alpha <= 2.0):
        return 0.0
    lo, hi = math.log(1e-30), math.log(0.5)
    if horizon * _nu_moment_below(measure, math.exp(lo)) > budget:
        raise NonIntegrableError("cannot meet truncation budget")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if horizon * _nu_moment_below(measure, math.exp(mid)) <= budget:
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


def _sample_beta_nu(
    measure: BetaMeasure, eps: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact draws from nu/|nu| restricted to (eps, 1) for a BetaMeasure.

    alpha > 2: rejection of Beta(alpha-2, beta) draws below eps.
    alpha <= 2 (needs eps > 0): two-piece power-law envelope rejection,
    density proportional to x**(alpha-3) (1-x)**(beta-1).  Candidates
    come in rounds of k, each round one (3, k) block of uniforms (piece
    choice, position, acceptance), and the accepted ones are kept in draw
    order.
    """
    a, b = measure.alpha, measure.beta
    out = np.empty(count)
    filled = 0
    if a > 2.0:
        while filled < count:
            need = count - filled
            draw = rng.beta(a - 2.0, b, size=max(need * 2, 16))
            keep = draw[draw > eps][:need]
            out[filled : filled + len(keep)] = keep
            filled += len(keep)
        return out

    if eps <= 0.0:
        raise InfiniteActivityError("alpha <= 2 requires a positive cutoff")
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
    while filled < count:
        need = count - filled
        u, v, acc = rng.random((3, max(need * 2, 16)))
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
        xr = 1.0 - (1.0 - split) * v[right] ** (1.0 / b)
        x[right] = xr
        ok[right] = (xr > eps) & (xr < 1.0) & (acc[right] * c_right <= xr ** (A - 1.0))
        keep = x[ok][:need]
        out[filled : filled + len(keep)] = keep
        filled += len(keep)
    return out


def _sample_table_nu(
    measure: DensityTableMeasure, eps: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draws from the table's nu, treating the nu-density as piecewise
    linear between grid points (exact for that piecewise model; the model
    error vanishes with grid spacing).  Cells at or below eps are dropped,
    the cell containing eps is clipped."""
    x = measure.x
    g = measure.density / (x * x)
    # clip support to (eps, x1]
    if eps >= x[-1]:
        raise InfiniteActivityError("cutoff removes the whole support")
    if eps > x[0]:
        j = int(np.searchsorted(x, eps, side="right"))
        g_eps = float(np.interp(eps, x, g))
        x = np.concatenate(([eps], x[j:]))
        g = np.concatenate(([g_eps], g[j:]))
    widths = np.diff(x)
    cell_mass = 0.5 * (g[:-1] + g[1:]) * widths
    total = cell_mass.sum()
    if total <= 0.0:
        raise DegenerateMeasureError("nu restricted above the cutoff has no mass")
    cells = rng.choice(len(widths), size=count, p=cell_mass / total)
    u = rng.random(count)
    g0 = g[:-1][cells]
    g1 = g[1:][cells]
    w = widths[cells]
    # inverse CDF of the linear density on each cell
    with np.errstate(invalid="ignore"):
        slope = g1 - g0
        disc = g0 * g0 + u * slope * (g0 + g1)
        t = np.where(
            np.abs(slope) < 1e-14 * (g0 + g1 + 1e-300),
            u,
            (np.sqrt(np.maximum(disc, 0.0)) - g0) / np.where(slope == 0.0, 1.0, slope),
        )
    return x[:-1][cells] + np.clip(t, 0.0, 1.0) * w


def sample_jump_sizes(
    measure: LambdaMeasure, eps: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample jump sizes from nu restricted to (eps, 1], normalized."""
    if count == 0:
        return np.empty(0)
    if isinstance(measure, AtomicMeasure):
        locs = np.array(measure.locations)
        wts = np.array(measure.weights)
        keep = locs > eps
        if not np.any(keep):
            raise DegenerateMeasureError("no atoms above the cutoff")
        locs, wts = locs[keep], wts[keep]
        p = wts / (locs * locs)
        return rng.choice(locs, size=count, p=p / p.sum())
    if isinstance(measure, BetaMeasure):
        return _sample_beta_nu(measure, eps, count, rng)
    return _sample_table_nu(measure, eps, count, rng)
