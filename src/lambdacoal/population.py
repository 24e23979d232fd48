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
and the number of steps to reach it is geometric.  Root resolution may
need litters older than the realized window, in which case the window is
doubled backwards; a hard cap (default 2**10 times the initial horizon)
turns runaway extension into an explicit error.

Two family-size samplers are cross-checked against the exact recursion:

* set-based: drop n uniforms on the time-0 window, map each to its litter
  (or to the regenerative set, giving a singleton mutant family), and
  merge litters that share a root;
* chain-based: the block chain of the coalescent module, with row b of
  its event table set to the first-part law of b: a mutant first part
  freezes a uniform lineage, a lone-litter first part leaves the state as
  it is, and a first part of size m merges a uniform m-subset.  For
  m >= 2 the first-part weight C(b,m) rate(b,m) is the frozen
  coalescent's merger weight, so the two samplers share the kernel and
  differ only by the lone-litter self-loop.

forward_simulate runs the same population forwards in time from an
arbitrary start: jumps at Poisson times (finite jump intensity required)
and exponential erosion toward the uniform measure in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coalescent import _block_chain
from .errors import (
    DustConditionError,
    InfiniteActivityError,
    PopulationSupportError,
    WindowExhaustionError,
)
from .measures import (
    FirstPartLaw,
    LambdaMeasure,
    first_part_laws_upto,
    litter_intensity_tail,
    require_population_support,
    sample_jump_sizes,
    total_mass,
)
from .sampling_formula import PartitionVector
from .subordinator import (
    SubordinatorWindow,
    default_window_horizon,
    sample_window,
    window_from_points,
)

__all__ = [
    "ROOT",
    "LitterHistory",
    "PopulationMeasure",
    "litter_size_at",
    "rho_state",
    "sample_family_partition_set",
    "sample_family_partition_chain",
    "forward_simulate",
    "cutoff_deviation",
]

ROOT = -2
_UNRESOLVED = -1


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


class LitterHistory:
    """A subordinator window annotated with the origination genealogy.

    Litters are addressed by their age-sorted index in the window.  The
    parent, root and height of each litter are resolved lazily and
    memoized; extension keeps already-resolved entries valid because it
    only appends strictly older litters.
    """

    def __init__(self, window: SubordinatorWindow, max_doublings: int = 10):
        if window.mu <= 0.0:
            raise PopulationSupportError(
                "the stationary construction needs a positive mutation rate"
            )
        self.window = window
        self.snapshot_T = window.T
        self.max_T = window.T * (2.0**max_doublings)
        m = window.npoints
        self._parent = np.full(m, _UNRESOLVED, dtype=np.int64)
        self._root = np.full(m, _UNRESOLVED, dtype=np.int64)
        self._height = np.full(m, _UNRESOLVED, dtype=np.int64)

    @classmethod
    def build(
        cls,
        measure: LambdaMeasure,
        mu: float,
        rng: np.random.Generator,
        T0: float | None = None,
        eps: float | str = "auto",
        max_doublings: int = 10,
        n_hint: int = 1,
    ) -> "LitterHistory":
        # the support check is part of sample_window's cached set-up; only
        # the horizon, which needs the dust integral first, converts its
        # error here
        if mu <= 0.0:
            raise PopulationSupportError(
                "the stationary construction needs a positive mutation rate"
            )
        if T0 is None:
            try:
                T0 = default_window_horizon(measure, mu, n_hint)
            except DustConditionError as exc:
                raise PopulationSupportError(str(exc)) from exc
        window = sample_window(measure, mu, T0, eps, rng)
        return cls(window, max_doublings=max_doublings)

    @classmethod
    def from_points(
        cls, mu: float, points, T: float, max_doublings: int = 0
    ) -> "LitterHistory":
        """Deterministic history from (age, size, mark) triples."""
        return cls(window_from_points(mu, points, T), max_doublings=max_doublings)

    @property
    def npoints(self) -> int:
        return self.window.npoints

    def _grow(self):
        m = self.window.npoints
        if len(self._parent) < m:
            pad = m - len(self._parent)
            fill = np.full(pad, _UNRESOLVED, dtype=np.int64)
            self._parent = np.concatenate((self._parent, fill))
            self._root = np.concatenate((self._root, fill))
            self._height = np.concatenate((self._height, fill))

    def _ensure_coverage(self, v: float, after: int):
        while not self.window.coverage_ok(v, after):
            if self.window.T * 2.0 > self.max_T * (1.0 + 1e-9):
                raise WindowExhaustionError(
                    f"window extension cap {self.max_T:g} hit while resolving "
                    "origination; increase max_doublings"
                )
            self.window.extend()
            self._grow()

    def resolve_parent(self, index: int) -> int:
        """Sorted index of the originating litter, or ROOT."""
        index = int(index)
        if self._parent[index] != _UNRESOLVED:
            return int(self._parent[index])
        u = float(self.window.marks[index])
        self._ensure_coverage(u, index)
        hit = self.window.invert_after(index, u)
        parent = ROOT if hit.kind == "regenerative" else int(hit.index)
        self._parent[index] = parent
        return parent

    def resolve_root(self, index: int) -> tuple[int, int]:
        """(root litter index, chain height) for a litter."""
        chain = []
        cur = int(index)
        while True:
            if self._root[cur] != _UNRESOLVED:
                root, extra = int(self._root[cur]), int(self._height[cur])
                break
            chain.append(cur)
            parent = self.resolve_parent(cur)
            if parent == ROOT:
                root, extra = cur, 0
                chain.pop()  # cur resolves to itself at height 0
                self._root[cur] = cur
                self._height[cur] = 0
                break
            cur = parent
        for back, idx in enumerate(reversed(chain), start=1):
            self._root[idx] = root
            self._height[idx] = extra + back
        return (int(self._root[index]), int(self._height[index]))

    def genotype(self, index: int) -> float:
        """Genotype carried by a litter = mark of its root."""
        root, _ = self.resolve_root(index)
        return float(self.window.marks[root])


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
    exp(-mu * T0).
    """
    w = history.window
    cutoff = history.snapshot_T
    by_root: dict[int, list[float]] = {}
    n_snapshot = int(np.searchsorted(w.ages, cutoff, side="left"))
    # interval length of litter i = F(age_i) - F(age_i-)
    lengths = np.exp(-w.left_g[:n_snapshot]) - np.exp(-w.right_g[:n_snapshot])
    for i in range(n_snapshot):
        root, _ = history.resolve_root(i)
        by_root.setdefault(root, []).append(float(lengths[i]))
    # distinct roots carry distinct marks almost surely; merge defensively
    by_genotype: dict[float, list[float]] = {}
    for root, sizes in by_root.items():
        by_genotype.setdefault(float(w.marks[root]), []).extend(sizes)
    atoms = tuple((g, math.fsum(sizes)) for g, sizes in by_genotype.items())
    diffuse = 1.0 - math.fsum(s for _, s in atoms)
    return PopulationMeasure(atoms, diffuse)


def sample_family_partition_set(
    measure: LambdaMeasure,
    mu: float,
    n: int,
    rng: np.random.Generator,
    eps: float | str = "auto",
    T0: float | None = None,
    max_doublings: int = 10,
) -> PartitionVector:
    """Family sizes of n individuals sampled from the stationary population.

    Each uniform either lands on the regenerative set (its own mutant
    family) or inside a litter; litters sharing a root share a genotype
    and pool into one family.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    history = LitterHistory.build(
        measure, mu, rng, T0=T0, eps=eps, max_doublings=max_doublings, n_hint=n
    )
    w = history.window
    singles = 0
    families: dict[int, int] = {}
    for v in rng.random(n):
        v = float(v)
        history._ensure_coverage(v, after=-1)
        hit = w.invert(v)
        if hit.kind == "regenerative":
            singles += 1
        else:
            root, _ = history.resolve_root(hit.index)
            families[root] = families.get(root, 0) + 1
    sizes = list(families.values()) + [1] * singles
    return PartitionVector.from_sizes(sizes)


def sample_family_partition_chain(
    measure: LambdaMeasure,
    mu: float,
    n: int,
    rng: np.random.Generator,
    laws: list[FirstPartLaw | None] | None = None,
) -> PartitionVector:
    """Family sizes via the first-part chain.

    State: weighted lineages, initially n singletons.  With b lineages the
    first-part law of b decides the next event: mutant part (freeze one
    lineage as a family), lone-litter part (no-op; the lineage stays), or
    an m-merger of a uniform m-subset.  Row b of the block-chain table is
    (p_single_mutant, p_single_alone, P(first part = 2), ...).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if mu <= 0.0:
        raise PopulationSupportError(
            "the chain sampler needs a positive mutation rate to terminate"
        )
    require_population_support(measure)
    if laws is None:
        laws = first_part_laws_upto(measure, mu, n)
    table = np.zeros((n + 1, n + 1))
    for b in range(1, n + 1):
        law = laws[b]
        table[b, : b + 1] = (law.p_single_mutant, law.p_single_alone) + law.probs[1:]
    families = _block_chain(np.add.accumulate(table, axis=1), [1] * n, rng)
    return PartitionVector.from_sizes(families)


# ---------------------------------------------------------------------------
# forward simulation
# ---------------------------------------------------------------------------


def forward_simulate(
    measure: LambdaMeasure,
    mu: float,
    horizon: float,
    rng: np.random.Generator,
    init: PopulationMeasure | None = None,
    record_path: bool = True,
    prune: float = 1e-15,
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

    def erode(dt: float):
        if mu == 0.0 or not masses:
            return
        decay = math.exp(-mu * dt)
        keep_g, keep_m = [], []
        for g, s in zip(genotypes, masses):
            s *= decay
            if s > prune:
                keep_g.append(g)
                keep_m.append(s)
        genotypes[:] = keep_g
        masses[:] = keep_m

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
        if any(s <= prune for s in masses):
            keep = [(g, s) for g, s in zip(genotypes, masses) if s > prune]
            genotypes[:] = [g for g, _ in keep]
            masses[:] = [s for _, s in keep]
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
