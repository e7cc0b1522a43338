"""Exception types shared across the library.

Every error raised on purpose derives from UqtrainError so callers can
catch library failures without swallowing programming mistakes.
"""


class UqtrainError(Exception):
    """Base class for all deliberate library errors."""


class ShapeError(UqtrainError):
    """Operands have incompatible or unsupported shapes."""


class ContractError(UqtrainError):
    """A documented precondition was violated by the caller."""


class DegenerateDenominator(UqtrainError):
    """A division (or norm) hit a denominator too close to zero."""


class DegenerateSpatialDims(UqtrainError):
    """Spatial statistics need at least two positions per feature map."""


class DegenerateBatch(UqtrainError):
    """Batch statistics need at least two samples."""


class LabelError(UqtrainError):
    """A class label is outside the valid range for the task."""


class NumericalDivergence(UqtrainError):
    """Training produced a non-finite loss."""


class GenerationError(UqtrainError):
    """Synthetic data generation could not satisfy its constraints."""


class ConfigError(UqtrainError):
    """A configuration file or override is malformed or unknown."""


class DataFormatError(UqtrainError):
    """A dataset file does not parse as the expected CSV layout."""
