"""Exception types shared across the package."""


class GkdvError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(GkdvError):
    """Array shapes or grids do not match the operation's contract."""


class MultiplierEvaluationError(GkdvError):
    """A Fourier multiplier or symbol produced a non-finite value."""


class HypothesisViolationError(GkdvError):
    """A dissipative symbol fails its structural conditions on the scanned range."""


class ResolutionError(GkdvError):
    """The frequency lattice is too small to resolve the quantity of interest."""


class AdmissibilityError(GkdvError):
    """The (symbol, nonlinearity) pair is outside the contraction hypotheses."""


class DivergenceError(GkdvError):
    """A fixed-point iterate left its confinement ball."""


class BlowUpError(GkdvError):
    """A field or norm became non-finite."""


class StabilityError(GkdvError):
    """The reference integrator detected a step-size instability."""


class DoubleRangeError(GkdvError):
    """A quantity computed from a valid configuration left the double range."""


class ConfigError(GkdvError):
    """A run configuration failed strict validation."""


class WorkerError(GkdvError):
    """A worker process of a side-by-side run ended without its results."""
