"""Exception types shared across the package."""


class CateEbmError(Exception):
    """Base class for all package errors; exit_code is the command-line exit
    status each ends in: 3 for the numeric failures that set it, else 2."""

    exit_code = 2


class DimensionError(CateEbmError, ValueError):
    """Shapes of inputs do not line up."""


class DegenerateColumnError(CateEbmError, ValueError):
    """A column has zero variance where nonzero variance is required."""

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"column {column} has zero variance")


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
    """Base class for model (de)serialization failures."""


class BadMagicError(ModelFileError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(ModelFileError):
    """Model file was written with an unsupported format version."""


class ChecksumError(ModelFileError):
    """Stored CRC32 does not match the file contents."""


class TruncatedFileError(ModelFileError):
    """File ended before all sections could be read."""


class MalformedModelError(ModelFileError):
    """File passed its checksum but its arrays disagree with the stored layer
    widths, or bytes follow the last field of a section or of the file."""


class CsvFormatError(CateEbmError, ValueError):
    """A data CSV violates the expected schema."""


class ConfigError(CateEbmError, ValueError):
    """Invalid experiment configuration."""
