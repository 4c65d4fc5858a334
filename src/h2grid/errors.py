"""Exception hierarchy shared across the package."""


class H2GridError(Exception):
    """Base class for all package errors."""


# --- grid / network ---------------------------------------------------------

class NetworkDisconnected(H2GridError):
    pass


class InvalidLine(H2GridError):
    pass


class EmptyNetwork(H2GridError):
    pass


# --- LP / MILP solver -------------------------------------------------------

class InvalidProblem(H2GridError):
    pass


class ResourceLimit(H2GridError):
    """Branch-and-bound hit its node limit.

    Carries the best incumbent solution (may be None) and the proven bound.
    """

    def __init__(self, message, incumbent=None, bound=None):
        super().__init__(message)
        self.incumbent = incumbent
        self.bound = bound


# --- dispatch ---------------------------------------------------------------

class InfeasibleHour(H2GridError):
    def __init__(self, message, hour=None, deficit_mw=None):
        super().__init__(message)
        self.hour = hour
        self.deficit_mw = deficit_mw


class InfeasibleRedispatch(H2GridError):
    def __init__(self, message, hour=None):
        super().__init__(message)
        self.hour = hour


# --- hydrogen demand --------------------------------------------------------

class IncompleteSite(H2GridError):
    pass


class NoCandidates(H2GridError):
    pass


class InvalidStationSpec(H2GridError):
    pass


# --- hydrogen chain ---------------------------------------------------------

class InvalidDepreciation(H2GridError):
    pass


class StructurallyInfeasible(H2GridError):
    pass


class ChainInfeasible(H2GridError):
    pass


class DivisionDomain(H2GridError):
    pass


# --- pipeline ---------------------------------------------------------------

class IncompleteBaseline(H2GridError):
    pass


class CannotScale(H2GridError):
    pass


# --- configuration / io -----------------------------------------------------

class ConfigError(H2GridError):
    pass


class IoError(H2GridError):
    pass


class InvalidSpec(H2GridError):
    pass
