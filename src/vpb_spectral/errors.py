"""Exception types shared across the toolbox."""


class VPBError(Exception):
    """Base class for all toolbox failures."""


class BasisError(VPBError):
    """Invalid velocity-basis construction request."""


class AssemblyError(VPBError):
    """Operator assembly was refused (bad kernel, rule or label) or failed a
    structural check (symmetry, coercivity, ...)."""


class RegimeError(VPBError):
    """Requested mode lies outside the hydrodynamic regime the solver covers."""


class CheckError(VPBError):
    """An invariant that `vpb-spectral check` tests does not hold."""


class FitError(VPBError):
    """A rate fit was refused (too few samples, non-monotone tail, ...)."""


class DataError(VPBError):
    """Initial data violates a compatibility constraint.

    When the constraint has a canonical repair, `suggestion` carries the
    corrected field values so the caller can fix the data and retry.
    """

    def __init__(self, message: str, suggestion: dict | None = None):
        self.suggestion = suggestion
        super().__init__(message)


class ConfigError(VPBError):
    """Malformed or inconsistent experiment configuration."""

    def __init__(self, message: str, field: str | None = None, line: int | None = None):
        self.field = field
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"field '{field}': "
        super().__init__(prefix + message)
