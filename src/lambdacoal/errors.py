"""Exception types shared across the package."""


class LambdaCoalError(Exception):
    """Base class for all package-specific errors."""


class MeasureSpecError(LambdaCoalError):
    """A measure specification string or config value cannot be parsed."""


class NonIntegrableError(LambdaCoalError):
    """A required integral against the driving measure diverges, or the
    quadrature failed to converge to the requested tolerance."""


class DustConditionError(NonIntegrableError):
    """The driving measure puts too much mass near zero: the single-ball
    weight integral of 1/x against the measure is infinite."""


class InfiniteActivityError(LambdaCoalError):
    """The jump intensity has infinite total mass and no positive size
    cutoff was supplied."""


class DegenerateMeasureError(LambdaCoalError):
    """All event weights vanish; no normalizable law exists."""


class StuckChainError(LambdaCoalError):
    """The jump chain reached a state with no outgoing events before
    absorbing."""


class PartitionCapError(LambdaCoalError):
    """A partition enumeration request exceeded the configured cap."""


class BeyondWindowError(LambdaCoalError):
    """An inversion query fell beyond the realized time window; the caller
    must extend the window first."""


class WindowExhaustionError(LambdaCoalError):
    """Backward window extension hit its hard cap before the query could be
    resolved.  Always surfaced, never silently absorbed."""


class WindowBudgetError(LambdaCoalError):
    """A subordinator window would hold more litter points than the point
    budget allows: the jump-size cutoff is too small for the horizon."""


class PopulationSupportError(LambdaCoalError):
    """The driving measure violates the standing assumptions of the
    population construction (atoms at 0 or 1, or zero mutation rate)."""
