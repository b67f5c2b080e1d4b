"""Exception and warning types shared across the simulator.

Every error carries a short machine-readable ``category`` so the CLI can
emit structured error JSON without string-matching messages.
"""

import math


class SimulationError(Exception):
    """Base class for all simulator errors."""

    category = "simulation"


class InvalidParameterError(SimulationError):
    """An input value violates a documented precondition."""

    category = "invalid-argument"


class OrthogonalPostselectionError(SimulationError):
    """Pre- and post-selected states are (numerically) orthogonal."""

    category = "orthogonal-postselection"


class AccuracyError(SimulationError):
    """A numerical routine failed to converge to its stated tolerance."""

    category = "accuracy"


class UnresolvedSplittingError(SimulationError):
    """The spectrum does not show two resolved transparency windows."""

    category = "unresolved-splitting"


class GridPolicyError(SimulationError):
    """A spectral grid is too narrow or malformed for the requested analysis."""

    category = "precondition"


class DomainError(SimulationError):
    """Argument outside the validated domain of a numerical routine."""

    category = "domain"


class InstabilityError(SimulationError):
    """The feedback loop diverged for the given gains."""

    category = "instability"


class FitFailureError(SimulationError):
    """A regression step failed its goodness-of-fit requirement."""

    category = "fit-failure"


class ConfigError(SimulationError):
    """Configuration file could not be parsed or validated."""

    category = "config"


class RegimeWarning(UserWarning):
    """Inputs left a validated approximation regime; results may degrade."""


def check_ranges(model, finite=(), nonnegative=(), positive=()):
    """Refuse a model whose fields named in ``finite`` are not finite, or
    whose fields named in ``nonnegative`` or ``positive`` are not finite
    and >= 0 or > 0; the refusal names the field and its value."""
    for names, rule, holds in (
        (finite, "finite", math.isfinite),
        (nonnegative, "finite and >= 0", lambda value: 0.0 <= value < math.inf),
        (positive, "finite and > 0", lambda value: 0.0 < value < math.inf),
    ):
        for name in names:
            value = getattr(model, name)
            if not holds(value):
                raise InvalidParameterError(f"{name} must be {rule}, got {value!r}")
