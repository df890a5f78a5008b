"""Exception types shared across the package."""


class CateEbmError(Exception):
    """Base class for all package errors."""


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


class UntrainedModelError(CateEbmError, RuntimeError):
    """A trained-model operation was invoked on an unfitted model."""


class IllConditionedError(CateEbmError, RuntimeError):
    """A linear system stayed non-SPD after jitter, a regression input was not
    finite, or no fit had a finite error."""


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
