"""Exception types shared across the package."""


class BSAtlasError(Exception):
    """Base class for all package errors."""


class UnsupportedSeries(BSAtlasError):
    """Requested a root system outside series A (rank >= 1) or C (rank 2)."""


class ZeroDenominator(BSAtlasError):
    """A rational function was built with an identically zero denominator."""


class SubstitutionPole(BSAtlasError):
    """A substitution made a denominator identically zero."""


class EvaluationPole(BSAtlasError):
    """A denominator vanished at the evaluation point."""


class NonReducedWord(BSAtlasError):
    """A Weyl word that must be reduced is not."""


class ZeroTorusValue(BSAtlasError):
    """A torus element was requested with a zero coordinate."""


class NotInBigCell(BSAtlasError):
    """Gauss factorization failed; carries the index of the vanishing minor."""

    def __init__(self, minor_index):
        self.minor_index = minor_index
        super().__init__(f"leading principal minor {minor_index} vanishes")


class NotInChartDomain(BSAtlasError):
    """A point is outside a chart's shifted big cell."""

    def __init__(self, minor_index):
        self.minor_index = minor_index
        super().__init__(f"point outside chart domain: principal minor {minor_index} of the shifted element vanishes")


class NormalizationMismatch(BSAtlasError):
    """A root-vector pair fails the trace-form normalization check."""


class NonPolynomialBracket(BSAtlasError):
    """A chart bracket entry failed to be polynomial (Laurent in the torus block)."""


class DimensionMismatch(BSAtlasError):
    """Bracket table and presentation have different sizes."""


class SingularInput(BSAtlasError):
    """A numeric group element is singular."""


class LengthMismatch(BSAtlasError):
    """A parameter vector has the wrong length for its word."""


class NonPositiveInput(BSAtlasError):
    """A toric-chart parameter vector contains a non-positive entry."""


class HypothesisViolated(BSAtlasError):
    """A stated hypothesis (e.g. v1 weakly below v) fails."""


class NotVerifiedCGL(BSAtlasError):
    """An operation requires a table that passed CGL verification."""


class IncomparableCharts(BSAtlasError):
    """Toric charts can only be compared with toric charts."""
