"""Exception types shared across the package."""


class MMTuneError(Exception):
    """Base class for all package errors."""


class DataError(MMTuneError):
    """The data a command was given, or a file it names, is at fault; the
    CLI exits 3 on it."""


# numerics
class ShapeMismatch(MMTuneError):
    pass


class KernelTooLarge(MMTuneError):
    pass


class NotAttached(MMTuneError):
    """Backward called on a tensor with no recorded provenance."""


# tokenizer
class InvalidId(MMTuneError):
    pass


# encoders / file formats
class UnknownKind(DataError):
    pass


class BadMagic(DataError):
    pass


class TruncatedFile(DataError):
    pass


# alignment
class BadLength(MMTuneError):
    pass


class MissingText(MMTuneError):
    pass


# cognitive
class SequenceTooLong(MMTuneError):
    pass


# training
class NoResponseSpan(MMTuneError):
    pass


class EmptyDataset(DataError):
    pass


class VersionMismatch(DataError):
    pass


class CorruptPayload(DataError):
    pass


# dataset
class EmptyCaption(MMTuneError):
    pass


class NoPairsFound(MMTuneError):
    pass


class ClientError(MMTuneError):
    """Generation service failed after exhausting retries.

    Carries whatever examples were produced before the failure so callers
    can persist partial results.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial or []


class SourceTooSmall(DataError):
    pass


class SchemaError(DataError):
    """A data file does not match the expected record schema."""


# cli
class ConfigError(MMTuneError):
    pass
