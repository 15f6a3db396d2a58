"""Exception types shared across the package."""


class CrowdMtlError(Exception):
    """Base class for package errors."""


class UsageError(CrowdMtlError):
    """Settings the command cannot run with (flags, config keys, grid values)."""


class DataError(CrowdMtlError):
    """Malformed or inconsistent input data (bad CSV, schema violations)."""


class NumericalError(CrowdMtlError):
    """Non-finite values or a diverging line search inside a solver."""
