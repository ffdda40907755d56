"""Exception hierarchy shared across the package."""


class DuioError(Exception):
    """Base class for all package errors."""


class DimensionError(DuioError):
    """Matrix or vector dimensions are mutually inconsistent."""


class DivergenceError(DuioError):
    """Integration produced a non-finite or exploding state."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class GraphError(DuioError):
    """Adjacency matrix violates the undirected-graph invariants."""


class ConnectivityError(GraphError):
    """Communication graph is not connected."""


class ExcitationError(DuioError):
    """Collected data remain rank-deficient after all retries."""


class OracleUnavailableError(DuioError):
    """A ground-truth-only check was requested without the ground truth."""


class RankError(DuioError):
    """A matrix required to have full rank is rank-deficient."""


class SolvabilityError(DuioError):
    """The decoupling equations admit no solution for this node."""


class DesignError(DuioError):
    """A design precondition failed; the message names condition and node."""


class NumericsError(DuioError):
    """A numerical step failed where theory guarantees success."""


class ConsistencyError(DuioError):
    """Data are inconsistent with an LTI system of the assumed structure."""


class EmptyRunError(DuioError):
    """A metric was requested on an empty trajectory."""


class ConfigError(DuioError):
    """Experiment configuration is malformed."""
