"""Exception types shared across the toolkit."""


class FramekitError(Exception):
    """Base class for all toolkit errors."""


class NotSquare(FramekitError):
    pass


class NotHermitian(FramekitError):
    pass


class NotPSD(FramekitError):
    pass


class IllConditionedSplit(FramekitError):
    """Core and nilpotent spectra are too close to separate reliably."""


class DimensionMismatch(FramekitError):
    pass


class NonFinite(FramekitError, ValueError):
    """A matrix or vector holds an infinite or NaN entry, such as a product
    of finite inputs that overflowed."""


class OracleMismatch(FramekitError):
    """A closed-form PSD scale fails its two-point certificate: the PSD
    test does not hold just below it, or still holds just above it."""


class HypothesisFailed(FramekitError):
    """A checker hypothesis does not hold on the given instance."""

    def __init__(self, clause, residual=None):
        self.clause = clause
        self.residual = residual
        msg = clause if residual is None else f"{clause} (residual {residual:.6e})"
        super().__init__(msg)


class HypothesisUndecided(HypothesisFailed):
    """Neither a certificate nor a witness decides a pointwise hypothesis."""


class AdmissibilityFailed(HypothesisFailed):
    """Constants fall outside a checker's admissibility window."""


class ZeroDrazin(HypothesisFailed):
    """The Drazin inverse is zero, so the derived bounds are vacuous."""


class InvalidConfig(FramekitError):
    pass
