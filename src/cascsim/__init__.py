"""Trace-driven discrete-event simulator for multi-device two-model inference
cascades: a shared batched server, per-device forwarding thresholds, and an
adaptive scheduler that retunes those thresholds against queue pressure."""

from .config import load_config
from .engine import parse_event_log_line, run_simulation
from .errors import CascSimError, ConfigError, InvariantError, TraceError
from .trace import SyntheticTraceParams, generate_synthetic_trace, write_trace_csv

__version__ = "0.1.0"
