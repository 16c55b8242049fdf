"""Exception types shared across the package."""


class MMTuneError(Exception):
    """Base class for all package errors."""


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


class InvalidUtf8(MMTuneError):
    pass


# encoders / file formats
class UnknownKind(MMTuneError):
    pass


class BadMagic(MMTuneError):
    pass


class TruncatedFile(MMTuneError):
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


class EmptyDataset(MMTuneError):
    pass


class VersionMismatch(MMTuneError):
    pass


class CorruptPayload(MMTuneError):
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


class SourceTooSmall(MMTuneError):
    pass


class SchemaError(MMTuneError):
    """A data file does not match the expected record schema."""


# cli
class ConfigError(MMTuneError):
    pass
