"""Exception types shared across the package."""


class SkewSupportError(Exception):
    """Base class for all package errors."""


class InvalidShapeError(SkewSupportError, ValueError):
    """Input does not describe a valid partition or skew shape."""


class InvalidArgumentError(SkewSupportError, ValueError):
    """A size, count or setting is outside its allowed range."""


class SizeLimitError(SkewSupportError, ValueError):
    """Requested computation exceeds the configured size bound."""


class SizeMismatchError(SkewSupportError, ValueError):
    """Operation requires two shapes of equal size."""


class ConsistencyError(SkewSupportError, RuntimeError):
    """Two routes that must agree produced different answers."""
