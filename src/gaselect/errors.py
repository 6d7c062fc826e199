"""Exception hierarchy shared by all gaselect modules.

The hierarchy is the command line's exit-code policy: a ConfigError exits
1 and a DataError exits 2. SolveFailure and NoveltyExhausted are caught
inside the package.
"""


class GaSelectError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GaSelectError):
    """A configuration value, argument or gene index violates its invariants."""


class DataError(GaSelectError):
    """An input is missing, unreadable or malformed, or an output is unwritable."""


class EmptyChromosomeError(ConfigError):
    """An operation produced or received a chromosome with no genes."""


class SolveFailure(GaSelectError):
    """The damped normal equations stayed singular even at maximum damping."""


class NoveltyExhausted(GaSelectError):
    """No never-tested chromosome could be produced; the search space is spent."""
