"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish parsing problems from semantic ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class XMLSyntaxError(ReproError):
    """Raised by the XML parser on malformed input.

    Carries the 1-based ``line`` and ``column`` of the offending position
    when they are known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class DTDSyntaxError(ReproError):
    """Raised by the DTD parser on malformed element declarations."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class DTDSemanticError(ReproError):
    """Raised for semantically inconsistent DTDs.

    Examples: duplicate element declarations, a root element without a
    declaration, or a content model referencing the reserved ``ANY`` type
    in an invalid position.
    """


class ValidationError(ReproError):
    """Raised when strict validation of a document against a DTD fails."""


class ClassificationError(ReproError):
    """Raised for misuse of the classifier (e.g. an empty DTD set)."""


class EvolutionError(ReproError):
    """Raised when the evolution phase cannot complete.

    The structure-building algorithm is designed to always terminate; this
    error signals a violated internal invariant (a bug or a hand-crafted
    inconsistent extended DTD) rather than an expected runtime condition.
    """


class MiningError(ReproError):
    """Raised for invalid mining parameters (e.g. support out of [0, 1])."""


class SnapshotError(ReproError, ValueError):
    """Raised when a source snapshot cannot be restored: not JSON, not a
    JSON object, an unsupported ``format``, or a missing top-level
    section.  It is also a ``ValueError``, which callers of the loader
    catch."""
