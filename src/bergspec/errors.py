"""Exception types shared across the package."""


class BergspecError(Exception):
    """Base class for all package errors."""


class ConfigError(BergspecError):
    """Scenario config text is malformed or violates a model invariant."""


class ExprSyntaxError(ConfigError):
    """Expression string could not be parsed; carries line/column info."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at column {pos})")
        self.pos = pos


class EvaluationError(BergspecError):
    """Point evaluation requested outside the supported domain."""


class InversionError(BergspecError):
    """Newton inversion of the conformal map failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class OutsideOmegaError(InversionError):
    """Target point is not in the image domain of the conformal map."""


class PetalExitError(EvaluationError):
    """Backward flow left the image domain (no petal contains the orbit)."""


class WindingError(BergspecError):
    """A function that must be zero-free winds around 0 on a sample circle."""


class ModelInconsistencyError(BergspecError):
    """Declared fixed-point data disagrees with the numeric cross-check."""


class CoverageError(BergspecError):
    """Requested classification lies outside the supported theory."""


class OrbitIntegralError(BergspecError):
    """Orbit integral diverges or its tolerance cannot be met."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved
