"""End-of-run invariant checks, each exercised on deliberately corrupted run columns."""

import numpy as np
import pytest

from cascsim.engine import check_run_invariants, run_simulation
from cascsim.errors import CascSimError, InvariantError

from conftest import make_trace, small_config


def consistent(**changes) -> dict:
    """Columns of a small consistent run: 10 samples, 6 local, 4 served in 3 batches."""
    columns = dict(
        total=10, decided=10, local=6, served=4,
        batch_sizes=np.array([1, 2, 1], dtype=np.int64), max_batch=2,
        batch_launch=np.array([0.5, 1.5, 3.5]), batch_done=np.array([1.5, 3.5, 4.5]),
        stream_times=(np.array([1.0, 2.0, 2.0, 3.0]), np.array([2.5, 4.0])),
        queue_area=7.5, queue_waits=np.array([0.5, 3.0, 4.0]),
    )
    columns.update(changes)
    return columns


def test_consistent_columns_pass():
    check_run_invariants(**consistent())


@pytest.mark.parametrize("changes, message", [
    (dict(total=11), "conservation"),
    (dict(local=5), "conservation"),
    (dict(decided=9), "conservation"),
    (dict(batch_sizes=np.array([1, 4], dtype=np.int64)), "batch size"),
    (dict(batch_sizes=np.array([0, 1], dtype=np.int64)), "batch size"),
    (dict(batch_launch=np.array([0.5, 1.0, 3.5])), "before the previous one completes"),
    (dict(stream_times=(np.array([1.0, 3.0, 2.0]),)), "decrease"),
    (dict(batch_done=np.array([1.5, 3.5, 3.0])), "decrease"),
    (dict(queue_waits=np.array([-0.5, 4.0, 4.0])), "negative queue wait"),
    (dict(queue_area=7.5 * (1 + 1e-7)), "queue area"),
    (dict(queue_waits=np.array([0.5, 3.0])), "queue area"),
])
def test_corrupted_columns_raise(changes, message):
    with pytest.raises(InvariantError, match=message) as info:
        check_run_invariants(**consistent(**changes))
    assert isinstance(info.value, CascSimError)


def test_little_identity_holds_on_a_congested_run():
    """A real run whose queue builds up passes its own Little check (within 1e-9)."""
    cfg = small_config(groups=[("mid", 8, 20.0)], table_entries={1: 15.0, 2: 20.0},
                       threshold=0.8, uplink=5.0, downlink=5.0, start_phase="staggered")
    rng = np.random.default_rng(11)
    traces = {i: make_trace(rng.random(300), rng.random(300) < 0.7, rng.random(300) < 0.8)
              for i in range(8)}
    report = run_simulation(cfg, traces, seed=0)
    assert report.mean_queue_length > 1.0
    assert report.samples_finalized == 2400
