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
  pool by the root of their litter.  The lockstep draw (_set_texts)
  drops the uniforms of a whole block of replicates and chases all
  their roots on one block of windows;
* chain-based: the embedded first-part chain, run on the block chain of
  the coalescent module with row b of its event table set to the
  first-part law of b: a mutant first part freezes a uniform lineage and
  a first part of size m merges a uniform m-subset.  A lone-litter first
  part would leave the state as it is, so the chain skips it (its column
  is zero).  For m >= 2 the first-part weight C(b,m) rate(b,m) is the
  frozen coalescent's merger weight, so without the self-loop each row is
  the frozen coalescent's row up to normalisation, and the two samplers
  differ only in how their tables are computed.

forward_simulate runs the same population forwards in time from an
arbitrary start: jumps at Poisson times (finite jump intensity required)
and exponential erosion toward the uniform measure in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .coalescent import _family_rows, _partition_texts
from .errors import (
    DustConditionError,
    InfiniteActivityError,
    PopulationSupportError,
)
from .measures import (
    FirstPartLaw,
    LambdaMeasure,
    _check_mu,
    first_part_laws_upto,
    litter_intensity_tail,
    require_population_support,
    sample_jump_sizes,
    total_mass,
)
from .sampling_formula import PartitionVector
from .subordinator import (
    SubordinatorWindow,
    _part_starts,
    _Rows,
    _window_blocks,
    _window_hits,
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
        n_hint: int = 1,
    ) -> "LitterHistory":
        # the support check is part of sample_window's cached set-up; only
        # the horizon, which needs the dust integral first, converts its
        # error here
        _require_drift(mu)
        if T0 is None:
            try:
                T0 = default_window_horizon(measure, mu, n_hint)
            except DustConditionError as exc:
                raise PopulationSupportError(str(exc)) from exc
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
    by_root: dict[int, list[float]] = {}
    for root, length in zip(roots.tolist(), lengths.tolist()):
        by_root.setdefault(root, []).append(length)
    # distinct roots carry distinct marks almost surely; merge defensively
    by_genotype: dict[float, list[float]] = {}
    for root, sizes in by_root.items():
        by_genotype.setdefault(float(w.marks[root]), []).extend(sizes)
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
    key = np.sort(np.take_along_axis(key, run, axis=1), axis=1)
    first = np.ones((R, n), dtype=bool)
    first[:, 1:] = key[:, 1:] != key[:, :-1]
    at = first.ravel().nonzero()[0]
    sizes = np.zeros(R * n, dtype=np.int64)
    sizes[at] = np.diff(at, append=R * n)
    return sizes.reshape(R, n)


def _set_texts(measure, mu, n, T0, rngs) -> list[str]:
    """Set-sampler partition texts, one per generator: each replicate
    draws its window (one kernel draw per block), then its uniforms; a
    block inverts them and chases the roots of all its replicates at
    once."""
    _require_drift(mu)
    return _window_blocks(
        measure, mu, T0, rngs, n, lambda *hits: _partition_texts(_family_sizes(*hits))
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
    genotype.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    history = LitterHistory.build(measure, mu, rng, T0=T0, n_hint=n)
    (sizes,) = _family_sizes(*_window_hits([history.window], [rng], n))
    return PartitionVector.from_sizes(s for s in sizes.tolist() if s)


def _chain_table(
    measure: LambdaMeasure,
    mu: float,
    n: int,
    laws: list[FirstPartLaw | None] | None = None,
) -> np.ndarray:
    """Cumulative block-chain table of the first-part chain for up to n
    lineages: row b is (p_single_mutant, 0, P(first part = 2), ...,
    P(first part = b)), the first-part law of b without its lone-litter
    part."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if mu <= 0.0:
        raise PopulationSupportError(
            "the chain sampler needs a positive mutation rate to terminate"
        )
    _check_mu(mu)
    require_population_support(measure)
    if laws is None:
        laws = first_part_laws_upto(measure, mu, n)
    table = np.zeros((n + 1, n + 1))
    for b in range(1, n + 1):
        table[b, 0] = laws[b].p_single_mutant
        table[b, 2 : b + 1] = laws[b].probs[1:]
    return np.add.accumulate(table, axis=1)


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
    a uniform m-subset.
    """
    (sizes,) = _family_rows(_chain_table(measure, mu, n, laws), n, [rng])
    return PartitionVector.from_sizes(s for s in sizes.tolist() if s)


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
    each drawing a size X from nu/|nu| and a genotype by inverse transform
    from the pre-jump measure (atom hit: reuse the genotype; diffuse hit:
    fresh uniform genotype).  Between jumps atom masses decay by
    exp(-mu * dt) toward the diffuse part.  mu = 0 is allowed here.
    """
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
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

    genotypes: list[float] = []
    masses: list[float] = []
    if init is not None:
        for g, s in init.atoms:
            genotypes.append(g)
            masses.append(s)

    def snapshot() -> PopulationMeasure:
        pairs = tuple((g, s) for g, s in zip(genotypes, masses))
        return PopulationMeasure(pairs, 1.0 - math.fsum(masses))

    def prune():
        if min(masses) <= _PRUNE:
            alive = [s > _PRUNE for s in masses]
            genotypes[:] = compress(genotypes, alive)
            masses[:] = compress(masses, alive)

    def erode(dt: float):
        if mu == 0.0 or not masses:
            return
        decay = math.exp(-mu * dt)
        masses[:] = [s * decay for s in masses]
        prune()

    t = 0.0
    path = [(0.0, snapshot())]
    while True:
        step = rng.exponential(1.0 / intensity) if intensity > 0.0 else math.inf
        if t + step >= horizon:
            erode(horizon - t)
            final = (horizon, snapshot())
            if record_path:
                path.append(final)
            else:
                path = [path[0], final]
            return path
        t += step
        erode(step)
        x = float(sample_jump_sizes(measure, 0.0, 1, rng)[0])
        u = rng.random()
        # pick the reproducing genotype from the pre-jump measure
        hit = None
        acc = 0.0
        for i, s in enumerate(masses):
            acc += s
            if u < acc:
                hit = i
                break
        masses[:] = [s * (1.0 - x) for s in masses]
        if hit is not None:
            masses[hit] += x
        else:
            g = rng.random()
            while g in genotypes:
                g = rng.random()
            genotypes.append(g)
            masses.append(x)
        prune()
        if record_path:
            path.append((t, snapshot()))


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
