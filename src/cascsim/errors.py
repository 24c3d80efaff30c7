"""Exception types shared across the package."""


class CascSimError(Exception):
    """Base class for every error raised by this package."""


class InvalidParamsError(CascSimError, ValueError):
    """A parameter object violates its own invariants."""


class TraceParseError(CascSimError, ValueError):
    """A trace file row could not be parsed; carries the 1-based row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class TraceRangeError(CascSimError, ValueError):
    """A trace value is outside its legal range; carries the 1-based row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EmptyTraceError(CascSimError, ValueError):
    """An operation that needs at least one trace record got none."""


class InvalidTargetError(CascSimError, ValueError):
    """A calibration target is outside the open interval (0, 1)."""


class GridOverflowError(CascSimError, ValueError):
    """A latency budget exceeds the exact solver's time grid limit."""


class ConfigError(CascSimError, ValueError):
    """An experiment config is invalid; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class TraceMissingError(CascSimError, ValueError):
    """A device was configured without a bound trace."""


class InvariantError(CascSimError, RuntimeError):
    """A finished run broke one of the simulator's own invariants (a simulator bug)."""
