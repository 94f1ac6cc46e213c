"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class ConfigError(ValueError):
    """A parameter or configuration value is out of range or inconsistent."""


class DataError(ValueError):
    """Input data fails a quality or structural requirement."""


class GraphError(DataError):
    """A graph argument violates a structural precondition."""


class DisconnectedGraphError(GraphError):
    """The operation requires a connected graph (or a connected node pair)."""


class InsufficientOverlapError(DataError):
    """A pair of series has fewer than the minimum overlapping observations."""


class InfiniteDistanceError(DataError):
    """Transport was requested between measures whose supports span
    disconnected components."""


class OracleBudgetError(ConfigError):
    """An exhaustive-search oracle was asked to exceed its stated budget."""


class SolverError(DataError):
    """The transport LP solver failed, or returned a plan that violates
    its marginals, so the instance has no trustworthy W1 value."""
