"""Error taxonomy shared by all equiloc modules.

Domain errors (exit code 1 in the CLI) derive from :class:`DomainError`;
malformed input (exit code 2) raises :class:`InputError`.
"""

from __future__ import annotations


class EquilocError(Exception):
    """Base class; ``code`` is the machine-readable error identifier."""

    code = "error"


class InputError(EquilocError):
    """Unparseable input: bad polynomial text, bad JSON, missing job file."""

    code = "parse-error"


class DomainError(EquilocError):
    code = "domain-error"


class NoDominantVariable(DomainError):
    code = "no-dominant-variable"


class WindowOverflow(DomainError):
    code = "window-overflow"


class DegreeMismatch(DomainError):
    code = "degree-mismatch"


class RepeatedWeights(DomainError):
    code = "repeated-weights"


class InconsistentDraws(DomainError):
    code = "inconsistent-draws"


class MissingQ(DomainError):
    code = "missing-q"


class SingularLinearPart(DomainError):
    code = "singular-linear-part"


class TooFewColumns(DomainError):
    code = "too-few-columns"


class SizeLimitExceeded(DomainError):
    """A computation would exceed a documented size limit; raised before
    any of its work starts."""

    code = "size-limit"
