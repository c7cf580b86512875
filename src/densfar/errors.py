"""Exception hierarchy for the densfar package.

Every error raised by the library derives from :class:`DensfarError`, so
callers can catch one base class. Subclasses mirror the failure modes of the
numerical pipeline: bad grids, incompatible operands, degenerate statistics,
rank problems in the ill-posed inversion, and file-format issues.
"""


class DensfarError(Exception):
    """Base class for all densfar errors."""


# -- grid / function space ----------------------------------------------------

class InvalidSupport(DensfarError):
    """Support bounds do not satisfy a < b."""


class GridTooSmall(DensfarError):
    """Grid size below the minimum of 16 points."""


class GridTooLarge(DensfarError):
    """Grid size above the maximum of 4096 points."""


class GridMismatch(DensfarError):
    """Operands do not live on the same grid."""


class NotSymmetric(DensfarError):
    """Operator kernel is not symmetric within tolerance."""


class NonPSD(DensfarError):
    """Operator has an eigenvalue below the negative tolerance window."""


class NegativeDensity(DensfarError):
    """Function expected to be a (nonnegative) density has negative values."""


class ThresholdOutOfSupport(DensfarError):
    """Tail threshold outside the grid support [a, b]."""


# -- density estimation -------------------------------------------------------

class TooFewObservations(DensfarError):
    """Not enough raw observations for the requested estimate."""


class DegenerateSample(DensfarError):
    """Sample has zero dispersion or no kernel mass inside the support."""


class BandwidthNonpositive(DensfarError):
    """Kernel bandwidth must be strictly positive."""


# -- model estimation ---------------------------------------------------------

class TooFewPeriods(DensfarError):
    """Time dimension too short for the requested operation."""


class RankDeficient(DensfarError):
    """Requested truncation exceeds the usable rank of the covariance."""


# -- analysis / forecasting ---------------------------------------------------

class ZeroVariance(DensfarError):
    """Quadratic form <v, Qv> is zero; the probed functional has no variance."""


class DegenerateMetric(DensfarError):
    """Gram matrix of the moment basis is numerically singular."""


class DegenerateForecast(DensfarError):
    """Clipped forecast carries no mass; the model output is pathological."""


class NoFeasibleK(DensfarError):
    """Every candidate truncation level failed during cross-validation."""


# -- bootstrap ----------------------------------------------------------------

class TooFewResiduals(DensfarError):
    """Model has too few residuals for a residual bootstrap."""


class TooManyDropped(DensfarError):
    """More replications/iterations failed than the configured ceiling."""


# -- simulation ---------------------------------------------------------------

class DegenerateDensity(DensfarError):
    """Target density for sampling has no positive mass."""


class UnstableGenerator(DensfarError):
    """Simulated state diverged; the generator violates the stability bound."""


# -- io -----------------------------------------------------------------------

class ParseError(DensfarError):
    """Malformed input file.

    Carries the 1-based line number when it refers to a CSV row.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyFile(DensfarError):
    """Input file contains no data rows."""


class FormatError(DensfarError):
    """Binary/JSON model file is malformed.

    Carries the byte offset at which reading failed, when known.
    """

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class IoError(DensfarError):
    """Filesystem-level failure while reading or writing an artifact."""
