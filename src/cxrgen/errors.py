"""Exception hierarchy shared across the package.

Every error raised on purpose derives from CxrgenError so callers (and the
CLI exit-code mapping) can distinguish our failures from genuine bugs. Each
is one of four kinds, one per non-zero exit code of the command line:
``ConfigError`` (2), ``IntegrityError`` (3), and ``ContractError`` and
``TrainingError`` (4); ``ShapeError`` and ``DegenerateInputError`` are
kinds of ``ContractError``.
"""


class CxrgenError(Exception):
    """Base class for all package errors."""


class ContractError(CxrgenError, ValueError):
    """A documented precondition or invariant was violated by the caller."""


class ShapeError(ContractError):
    """Operands have incompatible shapes for the requested operation."""


class ConfigError(CxrgenError, ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class IntegrityError(CxrgenError, ValueError):
    """Persisted data is corrupt, truncated, or fails its checksum."""


class DegenerateInputError(ContractError):
    """Input is formally valid but statistically degenerate (e.g. zero variance)."""


class TrainingError(CxrgenError, RuntimeError):
    """Training produced a non-finite loss or otherwise diverged."""
