"""Multiple-merger coalescents with freezing mutations.

The package computes exact allelic sampling distributions by recursion,
simulates the same distributions two independent ways (coalescent jump
chain, stationary-population lookdown), builds the stationary population
itself from a marked subordinator window, and cross-validates everything
with a Monte Carlo harness.  The composition-driven chain is not a third
way: without its lone-litter part, its first-part law is the
coalescent's event row divided by its total, so it runs the coalescent's
event table.
"""

from .errors import *
from .measures import *
from .sampling_formula import *
from .coalescent import *
from .subordinator import *
from .population import *
from .validation import *
from .streams import *

__version__ = "0.1.0"

# Each module's __all__ is its one export list.  Importing a submodule binds
# its name in this package, so each module is in scope here.
__all__ = sorted(
    errors.__all__ + measures.__all__ + sampling_formula.__all__ + coalescent.__all__
    + subordinator.__all__ + population.__all__ + validation.__all__ + streams.__all__
)
