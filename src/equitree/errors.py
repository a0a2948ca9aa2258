"""Exception types shared across the package."""


class EquitreeError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(EquitreeError):
    """Malformed input, or a file that cannot be read or written."""


class PreconditionError(EquitreeError):
    """An operation was called outside its supported parameter range."""


class InfeasibleVectorError(PreconditionError):
    """A class-count vector violates its counting invariants."""


class NotEnoughVerticesError(PreconditionError):
    """The graph has fewer vertices than the requested sequence length."""


class ConfigurationNotFoundError(EquitreeError):
    """No reducible configuration exists; the structural hypothesis fails."""


class NoLowDegreeVertexError(ConfigurationNotFoundError):
    """Vertex selection ran out of low-degree candidates."""
