"""Exception types shared across the package."""


class CateEbmError(Exception):
    """Base class for all package errors; exit_code is the command-line exit
    status each ends in: 3 for the numeric failures that set it, else 2."""

    exit_code = 2


class DimensionError(CateEbmError, ValueError):
    """Shapes of inputs do not line up."""


class DegenerateColumnError(CateEbmError, ValueError):
    """A column has zero variance where nonzero variance is required."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} has zero variance")


class TooFewSamplesError(CateEbmError, ValueError):
    """Not enough rows for the requested fit."""


class TrainingDivergedError(CateEbmError, RuntimeError):
    """Loss or gradients became non-finite during optimization."""

    exit_code = 3


class UntrainedModelError(CateEbmError, RuntimeError):
    """A trained-model operation was invoked on an unfitted model."""


class IllConditionedError(CateEbmError, RuntimeError):
    """A linear system stayed non-SPD after jitter, or a regression input, every
    fit error, a network output or a correlation was not finite."""

    exit_code = 3


class ModelFileError(CateEbmError, RuntimeError):
    """A model file cannot be read: it is shorter than its header, lacks the
    magic bytes, has another format version, fails its CRC32, or (checksum
    intact) ends mid-section or holds fields that disagree with its layer
    widths. The message names the check that failed."""


class CsvFormatError(CateEbmError, ValueError):
    """A data CSV violates the expected schema."""


class DatasetError(CateEbmError, ValueError):
    """A treatment vector (dgp.as_treatment) holds a value other than 0 or 1."""


class ConfigError(CateEbmError, ValueError):
    """Invalid experiment configuration, or an invalid setting passed to the
    library (a ridge penalty, a k, an EbmModel's B or representation scale)."""
