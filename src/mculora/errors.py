"""Exception types shared across the package, one per CLI exit code:
:class:`ConfigError` for bad input (exit 2) and :class:`ContractError` for a
violated precondition, shape or state (exit 3)."""


class ContractError(RuntimeError):
    """A caller violated a documented precondition, shape or state contract."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""
