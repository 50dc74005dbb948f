"""Exception types shared across the toolkit."""


class DiskAllocError(Exception):
    """Base class for all diskalloc errors."""


class DocumentError(DiskAllocError):
    """A document could not be read: malformed JSON, missing or unknown
    fields, or values of the wrong shape. Carries the offending field
    path when one is known."""

    def __init__(self, message, path=None):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")


class ValidationError(DiskAllocError):
    """An instance, allocation, or request violates a structural rule."""


class InfeasibleError(DiskAllocError):
    """No placement satisfying the capacity or budget constraints exists."""


class EnumerationCapError(DiskAllocError):
    """An exact enumeration was asked to search a space above its cap."""


class InternalError(DiskAllocError):
    """A solver broke one of its own invariants; the result cannot be
    trusted. Reported like any other error, never as a traceback."""
