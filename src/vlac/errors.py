"""Exception hierarchy shared across the library.

``DataError`` covers malformed inputs and violated contracts; the CLI maps
these to exit code 2. A failure inside the numeric routines surfaces as
numpy's ``LinAlgError`` or ``FloatingPointError`` (exit code 3).
"""


class VlacError(Exception):
    """Base class for all library errors."""


class DataError(VlacError):
    """Invalid input data or a violated precondition."""


class EmptyInput(DataError):
    """An operation received no data points."""


class DimensionMismatch(DataError):
    """Vector dimensions disagree between operands."""


class KTooLarge(DataError):
    """Requested more cluster centers than available points."""


class InsufficientRows(DataError):
    """Too few rows to fit a basis."""


class DTooLarge(DataError):
    """Requested more principal directions than the data supports."""


class EmptyGof(DataError):
    """A group of frames contains no features."""


class UntrainedModel(DataError):
    """The model is missing parts required by the requested encoder."""


class EmptyVideo(DataError):
    """A video contains no frames."""


class BadMagic(DataError):
    """A binary file does not start with the expected magic bytes."""


class TruncatedFile(DataError):
    """A binary file ended before its declared payload."""


class VideoTooShort(DataError):
    """A video is too short to extract the requested segment."""


class EmptyStore(DataError):
    """A descriptor store holds no sequences."""


class NoRelevant(DataError):
    """A ranking contains no relevant items."""
