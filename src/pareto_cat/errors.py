"""Exception types shared across the package.

Domain failures carry machine-readable codes of the form
``<area>.<topic>[.<detail>]`` so callers (and the CLI) can react without
parsing prose.
"""

from __future__ import annotations


class ParetoCatError(Exception):
    """Base class for all domain errors raised by this package."""


class StructureError(ParetoCatError):
    """Malformed data: dimension mismatch, ragged table, out-of-range id.

    Structure must be sound before laws are even checkable; law checks
    return ``Violation`` records instead of raising.
    """


class InvariantViolation(ParetoCatError):
    """A failed law, for callers that raise one: the package itself returns
    ``Violation`` records, which this carries, and the loader raises
    :class:`LoadError`.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class PreconditionError(ParetoCatError):
    """An operation was called outside its stated domain."""


class CapacityError(ParetoCatError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, message: str, required: int, cap: int):
        super().__init__(message)
        self.required = required
        self.cap = cap


class SamplingError(ParetoCatError):
    """Rejection sampling exhausted its attempt budget."""

    def __init__(self, message: str, acceptance_rate: float):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate


class LoadError(ParetoCatError):
    """An instance file failed to parse or validate.

    ``code`` is machine readable (e.g. ``distribution.sum``), ``path``
    points into the document (e.g. ``distribution.weights``).
    """

    def __init__(self, code: str, path: str, message: str):
        super().__init__(f"{code} at {path}: {message}")
        self.code = code
        self.path = path
        self.detail = message
