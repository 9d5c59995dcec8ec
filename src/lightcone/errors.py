"""Exception types shared by all lightcone modules."""


class LightconeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LightconeError):
    """Non-finite or structurally malformed numerical input."""


class CausalDomainError(LightconeError):
    """Operation applied to a vector of inadmissible causal character."""


class OutOfChartError(LightconeError):
    """Coordinates lie outside the chart's domain."""


class DegenerateMetricError(LightconeError):
    """Metric is numerically singular where an inverse is needed."""


class IntegrationError(LightconeError):
    """ODE integration failed (step-size underflow or solver breakdown)."""


class EmptySolutionError(IntegrationError):
    """Trajectory left the chart domain immediately; no solution produced."""


class UnreachableDirectionError(LightconeError):
    """Observer-map ray leaves the chart before landing."""


class IllPosedForceError(LightconeError):
    """Zero-component reconstruction of a force has vanishing denominator."""


class CriticalPointError(LightconeError):
    """Observer map is singular at the requested point."""


class NewtonianLimitObstruction(LightconeError):
    """A necessary condition for the Newtonian limit fails.

    Carries the measured residuals so callers can report instead of compute.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = {} if residuals is None else dict(residuals)


class ConfigError(LightconeError):
    """Scenario text failed to parse or validate."""

    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line
