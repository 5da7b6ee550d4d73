"""Exception hierarchy for the package.

Errors fall into two families that the command-line runner maps onto exit
codes:

* :class:`ValidationError` -- bad inputs, violated preconditions, or
  unsupported parameter regimes detected *before* any heavy computation
  (CLI exit code 2).
* :class:`NumericalError` -- failures that surface while a computation is
  running: kernel singularities, aliasing, caustics, non-finite data
  (CLI exit code 3).
"""


class KanaiCavityError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(KanaiCavityError):
    """Invalid input, configuration, or precondition."""


class DomainError(ValidationError):
    """Evaluation requested outside the domain covered by the data."""


class UnsupportedRegimeError(ValidationError):
    """Parameters outside the regime a closed-form branch supports."""


class ContractViolationError(ValidationError):
    """An object does not satisfy the structural contract an operation needs."""


class InvalidScheduleError(ValidationError):
    """Mirror-motion schedule cannot be built from the given initial state."""


class MappingError(ValidationError):
    """Cavity-to-quantum parameter mapping undefined for this geometry."""


class NumericalError(KanaiCavityError):
    """Numerical failure during a run."""


class NearFocalPlaneError(NumericalError):
    """Ray-matrix B element too close to zero for the diffraction kernel."""


class SamplingError(NumericalError):
    """Grid cannot resolve the chirped field (aliasing).

    Carries ``suggested_n``, the smallest power-of-two sample count expected
    to resolve the transform, when one could be estimated.
    """

    def __init__(self, message, suggested_n=None):
        super().__init__(message)
        self.suggested_n = suggested_n


class NearCausticError(NumericalError):
    """Analytic propagator evaluated too close to a zero of u2 (a caustic)."""


class BeamParameterError(NumericalError):
    """Complex beam-parameter map hit a singularity (C q + D = 0)."""


class NearInstabilityError(NumericalError):
    """A split-step trip to be halved has a + d <= -2: no real half."""


class ResolutionError(NumericalError):
    """Field support degenerated to (nearly) a single grid pixel."""
