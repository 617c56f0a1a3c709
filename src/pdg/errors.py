"""Exception types shared across the package."""

from __future__ import annotations


class PdgError(Exception):
    """Base class for every error raised by this package."""


class ParameterDomainError(PdgError, ValueError):
    """A numeric parameter lies outside its allowed domain."""


class ValidationError(PdgError, ValueError):
    """Input data violates a structural invariant."""


class ParseError(PdgError, ValueError):
    """Serialized input could not be decoded."""


class StructuralError(PdgError, ValueError):
    """Objects passed together do not fit each other (sizes, grids, slots)."""


class SizeGuardError(PdgError):
    """An exhaustive enumeration or a time grid was asked to exceed its size bound."""


class WrongSolverError(PdgError):
    """The selected solver does not handle the requested aggregation exponent."""


class InvalidCouplingError(PdgError, ValueError):
    """A transport plan violates nonnegativity or its marginal constraints."""


class UnsupportedRegimeError(PdgError):
    """The requested (p, q) range is outside what this operation supports."""
