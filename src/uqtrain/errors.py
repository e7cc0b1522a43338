"""Exception types shared across the library.

Every error raised on purpose derives from UqtrainError so callers can
catch library failures without swallowing programming mistakes.
"""


class UqtrainError(Exception):
    """Base class for all deliberate library errors."""


class ContractError(UqtrainError):
    """A documented precondition was violated by the caller: a shape, a
    label, or a batch, map or denominator too small for what is asked."""


class NumericalDivergence(UqtrainError):
    """Training produced a non-finite loss."""


class GenerationError(UqtrainError):
    """Synthetic data generation could not satisfy its constraints."""


class ConfigError(UqtrainError):
    """A configuration file or override is malformed or unknown."""


class DataFormatError(UqtrainError):
    """A dataset file does not parse as the expected CSV layout."""
