"""Exception types shared across the package: one per input source, plus run checks."""


class CascSimError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CascSimError, ValueError):
    """A config value, CLI flag or call parameter is invalid; carries its field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class TraceError(CascSimError, ValueError):
    """A trace CSV row is malformed or out of range; carries the field path (or flag)
    that named the trace and the 1-based row number."""

    def __init__(self, field: str, row: int, message: str):
        super().__init__(f"{field}: row {row}: {message}")
        self.field = field
        self.row = row


class InvariantError(CascSimError, RuntimeError):
    """A finished run broke one of the simulator's own invariants (a simulator bug)."""
