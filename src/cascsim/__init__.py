"""Trace-driven discrete-event simulator for multi-device two-model inference
cascades: a shared batched server, per-device forwarding thresholds, and an
adaptive scheduler that retunes those thresholds against queue pressure."""

from .cascade import (
    CalibrationSpec,
    Threshold,
    calibrate_static_threshold,
    cascade_accuracy,
    forwards,
    trace_forward_rate,
)
from .config import (
    ExperimentConfig,
    FleetGroup,
    NetworkModel,
    SchedulerSpec,
    config_from_dict,
    load_config,
    preset_names,
)
from .engine import (
    LogEvent,
    classify_server_state,
    estimate_arrival_rate,
    parse_event_log_line,
    run_simulation,
)
from .errors import CascSimError, InvariantError
from .metrics import (
    MetricsReport,
    SampleColumns,
    SampleLifetime,
    accuracy,
    aggregate_by_tier,
    forward_rate,
    mean_report,
    slo_satisfaction,
    throughput,
)
from .scheduler import (
    DeviceState,
    Direction,
    SchedulerConfig,
    SchedulerState,
    ThresholdUpdate,
    Tier,
    flush_check,
    scheduler_tick,
    select_update_targets,
    threshold_change,
)
from .server import (
    BatchLatencyTable,
    CapacityResult,
    compute_capacity_exact,
    compute_capacity_greedy,
    select_batch_size,
)
from .trace import (
    SyntheticTraceParams,
    TraceRecord,
    TraceSet,
    generate_synthetic_trace,
    load_trace_csv,
    write_trace_csv,
)

__version__ = "0.1.0"
