"""Stationary population measure, its genealogy, and family samplers.

Every litter ever born erodes at rate mu and is thinned by each later
litter, so at time 0 the litter born age a_i ago with initial size X_i
occupies mass

    X_i(0) = X_i * exp(-mu * a_i) * prod over younger litters (1 - X_j),

which is exactly the length of litter i's interval in the subordinator
window.  The population measure is the sum of these atoms, each carrying
the genotype of its oldest ancestor, plus a uniform (diffuse) remainder.

Genealogy: litter i originated from whatever its mark U_i hits in the
population just before its birth, i.e. in the sub-window of strictly
older litters.  Chasing marks backwards ends at a litter whose mark fell
on the regenerative set; that litter is a root carrying a fresh genotype,
and the number of steps to reach it is geometric.  Every root comes
from the subordinator module's one chase (_Rows.roots), one parent
query per generation for all its litters at once: the set sampler
chases all the litter hits of a draw block, rho_state all the litters
of its window, and resolve_root one litter, as a one-query chase on a
one-row block.  The set sampler's windows are drawn and settled
together, one kernel draw and one block settle per draw block.  Root
resolution may need litters older than the realized window, which the
window's own ensure_coverage doubles backwards up to its one cap (2**10
times the initial horizon, then WindowExhaustionError); only the
extended window's row of the block is written afresh, and the k-th
extension of a window draws the same numbers whichever query needs it.

Two family-size samplers are cross-checked against the exact recursion:

* set-based: take the hits of the window's composition of n; a hit on
  the regenerative set is a singleton mutant family, and litter hits
  pool by the root of their litter.  The lockstep draw (_set_counts)
  drops the uniforms of a whole block of replicates and chases all
  their roots on one block of windows;
* chain-based: the embedded first-part chain, whose law of b without
  its lone-litter self-loop is the frozen coalescent's event row for b
  blocks divided by its total, so it runs that table and kernel
  (_chain_prepare).

forward_simulate runs the same population forwards in time from an
arbitrary start: jumps at Poisson times (finite jump intensity required)
and exponential erosion toward the uniform measure in between.  Its
jumps are the litter points of the window draw kernel, drawn one slice
of the horizon at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .coalescent import _family_counts, _frozen_table, _partition_counts
from .errors import (
    InfiniteActivityError,
    PopulationSupportError,
    WindowBudgetError,
)
from .measures import (
    FirstPartLaw,
    LambdaMeasure,
    _check_mu,
    build_rate_table,
    dust_integral,
    litter_intensity_tail,
    require_population_support,
    total_mass,
)
from .sampling_formula import PartitionVector
from .subordinator import (
    MAX_WINDOW_POINTS,
    SubordinatorWindow,
    _BLOCK_POINTS,
    _draw_points,
    _part_starts,
    _Rows,
    _window_blocks,
    default_window_horizon,
    sample_window,
    window_from_points,
)

__all__ = [
    "LitterHistory",
    "PopulationMeasure",
    "litter_size_at",
    "rho_state",
    "sample_family_partition_set",
    "sample_family_partition_chain",
    "forward_simulate",
    "cutoff_deviation",
]


@dataclass(frozen=True)
class PopulationMeasure:
    """Atoms (genotype, mass) plus a diffuse remainder; total mass 1."""

    atoms: tuple[tuple[float, float], ...]
    diffuse: float

    def __post_init__(self):
        for g, s in self.atoms:
            if not (0.0 < g < 1.0):
                raise ValueError("genotypes must lie strictly inside (0, 1)")
            if not (s > 0.0):
                raise ValueError("atom masses must be positive")
        if len({g for g, _ in self.atoms}) != len(self.atoms):
            raise ValueError("genotypes must be distinct")
        if self.diffuse < -1e-12:
            raise ValueError("diffuse mass must be nonnegative")

    @classmethod
    def _unchecked(cls, atoms: tuple, diffuse: float) -> PopulationMeasure:
        """One built without the checks of __post_init__, for the states a
        forward run records: its genotypes are distinct draws, its masses
        stay above the prune threshold, and the diffuse part is 1 minus
        their sum."""
        state = object.__new__(cls)
        object.__setattr__(state, "atoms", atoms)
        object.__setattr__(state, "diffuse", diffuse)
        return state

    def total(self) -> float:
        return math.fsum(s for _, s in self.atoms) + self.diffuse

    def atom_mass(self) -> float:
        return math.fsum(s for _, s in self.atoms)

    def to_snapshot(self, truncation_bias: float = 0.0) -> dict:
        return {
            "atoms": [
                {"genotype": g, "size": s}
                for g, s in sorted(self.atoms, key=lambda a: -a[1])
            ],
            "diffuse": self.diffuse,
            "truncationBias": truncation_bias,
        }


def _require_drift(mu: float) -> None:
    if mu <= 0.0:
        raise PopulationSupportError(
            "the stationary construction needs a positive mutation rate"
        )


def _require_population(measure: LambdaMeasure, mu: float) -> None:
    """The domain of the stationary construction, refused in one order: a
    mu outside _check_mu (ValueError), a divergent 1/x integral
    (DustConditionError), mu = 0 (PopulationSupportError: no root chase
    and no first-part chain would end), then an atom at an endpoint
    (require_population_support)."""
    _check_mu(mu)
    dust_integral(measure)
    _require_drift(mu)
    require_population_support(measure)


class LitterHistory:
    """A subordinator window annotated with the origination genealogy.

    Litters are addressed by their age-sorted index in the window; a
    litter's root and height are answers of the window's one chase
    kernel, stable however the window grows, since extension only
    appends strictly older litters.
    """

    def __init__(self, window: SubordinatorWindow):
        _require_drift(window.mu)
        self.window = window

    @classmethod
    def build(
        cls,
        measure: LambdaMeasure,
        mu: float,
        rng: np.random.Generator,
        T0: float | None = None,
        eps: float | str = "auto",
    ) -> "LitterHistory":
        """A history on a fresh window of horizon T0 (default: the
        one-individual horizon), refused as the set sampler refuses: in
        _require_population's order with or without T0, then by the
        window's own checks."""
        if T0 is None:
            T0 = default_window_horizon(measure, mu, 1)
        _require_population(measure, mu)
        return cls(sample_window(measure, mu, T0, eps, rng))

    @classmethod
    def from_points(cls, mu: float, points, T: float) -> "LitterHistory":
        """Deterministic history from (age, size, mark) triples; its
        window has no generator, so it cannot extend."""
        return cls(window_from_points(mu, points, T))

    def resolve_root(self, index: int) -> tuple[int, int]:
        """(root litter index, chain height) for a litter: a one-query
        chase (_Rows.roots) on the window as a one-row block.  The root's
        mark is the litter's genotype."""
        if not 0 <= index < self.window.npoints:
            raise ValueError("index outside window")
        root, height = _Rows([self.window]).roots(
            np.zeros(1, dtype=np.intp), np.array([index], dtype=np.intp)
        )
        return int(root[0]), int(height[0])


def litter_size_at(history: LitterHistory, index: int, t: float = 0.0) -> float:
    """Mass of litter `index` at time t <= 0 (ages are relative to 0).

    Raises ValueError for a litter not yet born at t.
    """
    w = history.window
    index = int(index)
    age = float(w.ages[index])
    if t > 0.0 or t < -w.T:
        raise ValueError("t must lie in [-T, 0]")
    if -age > t:
        raise ValueError(f"litter {index} (age {age:g}) is not born at t={t:g}")
    lo = int(np.searchsorted(w.ages, -t, side="left"))
    log_thin = w.log_prefix[index] - w.log_prefix[lo]
    return float(w.sizes[index] * math.exp(-w.mu * (t + age) + log_thin))


def rho_state(history: LitterHistory) -> PopulationMeasure:
    """Stationary population measure at time 0 from a realized window.

    Atom masses are the litter interval lengths, aggregated by root
    genotype; everything older than the initial horizon stays in the
    diffuse remainder, which bounds the truncation error by
    exp(-mu * T0).  The window settles once, and the roots of all those
    litters come from one chase on it.
    """
    w = history.window
    n_snapshot = int(np.searchsorted(w.ages, w.T0, side="left"))
    roots, _ = _Rows([w]).roots(
        np.zeros(n_snapshot, dtype=np.intp), np.arange(n_snapshot)
    )
    # interval length of litter i = F(age_i) - F(age_i-)
    lengths = np.exp(-w.left_g[:n_snapshot]) - np.exp(-w.right_g[:n_snapshot])
    # a litter's genotype is its root's mark; distinct roots carry distinct
    # marks almost surely, and ones that do not merge
    marks = w.marks.tolist()
    by_genotype: dict[float, list[float]] = {}
    for root, length in zip(roots.tolist(), lengths.tolist()):
        by_genotype.setdefault(marks[root], []).append(length)
    atoms = tuple((g, math.fsum(sizes)) for g, sizes in by_genotype.items())
    diffuse = 1.0 - math.fsum(s for _, s in atoms)
    return PopulationMeasure(atoms, diffuse)


def _family_sizes(block: _Rows, j: np.ndarray, litter: np.ndarray) -> np.ndarray:
    """(R, n) family sizes of the block's hits, zeros to be skipped.

    A regenerative hit is a family of its own; litter hits pool by the
    root of their litter, which one chase finds for the first hit of
    every litter (hits on one litter are consecutive).
    """
    R, n = j.shape
    starts = _part_starts(j, litter)
    heads = starts & litter
    rows, slots = heads.nonzero()
    roots, _ = block.roots(rows, j[rows, slots])
    # a family key per hit: its root, or a negative key of its own
    key = np.where(litter, 0, -1 - np.arange(n))
    key[rows, slots] = roots
    run = np.where(starts, np.arange(n), 0)
    np.maximum.accumulate(run, axis=1, out=run)
    key = np.sort(key[np.arange(R)[:, None], run], axis=1)
    first = np.ones((R, n), dtype=bool)
    first[:, 1:] = key[:, 1:] != key[:, :-1]
    at = first.ravel().nonzero()[0]
    ends = np.full_like(at, R * n)
    ends[:-1] = at[1:]
    sizes = np.zeros(R * n, dtype=np.int64)
    sizes[at] = ends - at
    return sizes.reshape(R, n)


def _set_counts(measure, mu, n, T0, rngs) -> np.ndarray:
    """Set-sampler (R, n) family-size counts, a row per generator: each
    replicate draws its window (one kernel draw per block), then its
    uniforms; a block inverts them and chases all its roots at once."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _require_population(measure, mu)
    return _window_blocks(
        measure, mu, T0, rngs, n, lambda *hits: _partition_counts(_family_sizes(*hits))
    )


def sample_family_partition_set(
    measure: LambdaMeasure,
    mu: float,
    n: int,
    rng: np.random.Generator,
    T0: float | None = None,
) -> PartitionVector:
    """Family sizes of n individuals sampled from the stationary population.

    The window's composition of n gives each individual's hit: one on the
    regenerative set is its own mutant family, and litter hits pool by
    the root of their litter, since litters sharing a root share a
    genotype.  A one-row call of the block draw (_set_counts) on the
    horizon T0 (default: default_window_horizon), so it refuses in
    _require_population's order with or without T0.
    """
    if T0 is None:
        T0 = default_window_horizon(measure, mu, n)
    (counts,) = _set_counts(measure, mu, n, T0, [rng]).tolist()
    return PartitionVector(tuple(counts))


def _chain_prepare(measure: LambdaMeasure, mu: float, n: int) -> np.ndarray:
    """The first-part chain's event table for up to n lineages, which is
    the frozen coalescent's, once _require_population passes."""
    _require_population(measure, mu)
    return _frozen_table(build_rate_table(measure, n), mu, n)


def sample_family_partition_chain(
    measure: LambdaMeasure,
    mu: float,
    n: int,
    rng: np.random.Generator,
    laws: list[FirstPartLaw | None] | None = None,
) -> PartitionVector:
    """Family sizes via the first-part chain.

    State: weighted lineages, initially n singletons.  With b lineages the
    first-part law of b, conditioned on a part other than a lone-litter
    single (which would leave the state as it is), decides the next event:
    a mutant part freezes one lineage as a family, a part of size m merges
    a uniform m-subset.  That conditioned law is the frozen coalescent's
    event row, so this is a one-row call of its table and kernel, with
    the refusals of _require_population.  laws is unused.
    """
    (counts,) = _family_counts(_chain_prepare(measure, mu, n), n, [rng]).tolist()
    return PartitionVector(tuple(counts))


# ---------------------------------------------------------------------------
# forward simulation
# ---------------------------------------------------------------------------


# Atom masses at or below this drop into the diffuse part.
_PRUNE = 1e-15


def forward_simulate(
    measure: LambdaMeasure,
    mu: float,
    horizon: float,
    rng: np.random.Generator,
    init: PopulationMeasure | None = None,
    record_path: bool = True,
) -> list[tuple[float, PopulationMeasure]]:
    """Run the population forwards from `init` (default: purely diffuse).

    Requires a finite jump intensity: jumps arrive at Poisson rate |nu|,
    each with a size X from nu/|nu| and a mark that picks the reproducing
    individual by inverse transform from the pre-jump measure (atom hit:
    reuse the genotype; diffuse hit: fresh uniform genotype).  Between
    jumps atom masses decay by exp(-mu * dt) toward the diffuse part.
    mu = 0 is allowed here; a mu outside _check_mu raises ValueError.  The
    jumps are the litter points of the draw kernel (_draw_points), one
    one-row call per slice of [0, horizon), cut so that a slice expects
    at most _BLOCK_POINTS jumps; the stream is a slice's kernel draws,
    then one uniform per fresh genotype of its jumps, in time order.  A
    run expecting more than MAX_WINDOW_POINTS jumps, |nu| * horizon, is
    refused with WindowBudgetError before its first draw.
    """
    _check_mu(mu)
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    # finite intensity already implies the 1/x integrability the window
    # construction needs; unlike there, an atom at 1 is fine here (a jump
    # of size 1 replaces the whole population)
    try:
        intensity = litter_intensity_tail(measure, 0.0)[0]
    except InfiniteActivityError as exc:
        raise InfiniteActivityError(
            "forward simulation needs a finite jump intensity: " + str(exc)
        ) from exc
    if intensity <= 0.0 and total_mass(measure) > 0.0:
        raise InfiniteActivityError("jump intensity vanished unexpectedly")
    if intensity * horizon > MAX_WINDOW_POINTS:
        raise WindowBudgetError(
            f"forward run on {measure.descriptor()} at jump rate "
            f"{intensity:.3g} over horizon {horizon:g} expects more jumps than "
            f"the budget of {MAX_WINDOW_POINTS:.0e}"
        )
    slices = max(1, math.ceil(intensity * horizon / _BLOCK_POINTS))
    width = horizon / slices

    def jumps():
        """(time, size, mark) of every jump in time order, then the
        horizon with no jump."""
        for k in range(slices):
            points, (count,) = _draw_points(
                measure, 0.0, intensity * horizon / slices, width, [rng]
            )
            ages, sizes, marks = points[:, 0, :count].tolist()
            yield from zip([k * width + a for a in ages], sizes, marks)
        yield horizon, None, None

    atoms = init.atoms if init is not None else ()
    genotypes = [g for g, _ in atoms]
    masses = [s for _, s in atoms]

    def snapshot() -> PopulationMeasure:
        return PopulationMeasure._unchecked(
            tuple(zip(genotypes, masses)), 1.0 - math.fsum(masses)
        )

    t = 0.0
    path = [(t, snapshot())]
    for t_next, x, u in jumps():
        decay = math.exp(-mu * (t_next - t))
        masses = [s * decay for s in masses]
        t = t_next
        if x is not None:
            # the reproducing individual, from the pre-jump measure
            acc = 0.0
            for hit, s in enumerate(masses):
                acc += s
                if u < acc:
                    break
            else:
                hit = None
            masses = [s * (1.0 - x) for s in masses]
            if hit is None:
                g = rng.random()
                while g in genotypes:
                    g = rng.random()
                genotypes.append(g)
                masses.append(x)
            else:
                masses[hit] += x
        if masses and min(masses) <= _PRUNE:
            alive = [s > _PRUNE for s in masses]
            genotypes = list(compress(genotypes, alive))
            masses = list(compress(masses, alive))
        if record_path or x is None:
            path.append((t, snapshot()))
    return path


def cutoff_deviation(
    window: SubordinatorWindow, cutoff: float, ages: np.ndarray
) -> float:
    """Largest gap, over the age grid, between the window's distribution
    function and the one that ignores litters older than `cutoff`.

    The erosion bound guarantees the result is strictly below
    exp(-mu * cutoff); a violation would mean the window arrays are
    inconsistent, so it raises rather than returning.
    """
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    ages = np.asarray(ages, dtype=float)
    if np.any(ages < 0.0):
        raise ValueError("ages must be nonnegative")
    w = window
    idx_full = np.searchsorted(w.ages, ages, side="right")
    idx_cut = np.searchsorted(w.ages, np.minimum(ages, cutoff), side="right")
    f_full = -np.expm1(-w.mu * ages + w.log_prefix[idx_full])
    f_cut = -np.expm1(-w.mu * ages + w.log_prefix[idx_cut])
    dev = float(np.max(np.abs(f_full - f_cut))) if len(ages) else 0.0
    bound = math.exp(-w.mu * cutoff)
    if dev >= bound:
        raise RuntimeError(
            f"cutoff deviation {dev:g} reached the erosion bound {bound:g}; "
            "window state is inconsistent"
        )
    return dev
