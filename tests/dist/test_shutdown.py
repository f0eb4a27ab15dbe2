"""Coordinator shutdown: a run leaves no queue feeder thread behind.

Control messages a worker never read (pattern updates broadcast after it
stopped, its own ``Shutdown``) used to stay queued in the coordinator,
each queue's feeder thread blocked on a full pipe for the life of the
process; msi-small's pattern traffic is large enough to fill one.
"""

import multiprocessing
import threading

import pytest

from repro.core import SynthesisConfig
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.dist.coordinator import _close_written_queue


@pytest.mark.parametrize("solution_limit", [None, 1], ids=["full", "limit-1"])
def test_run_leaves_thread_count_unchanged(solution_limit):
    engine = DistributedSynthesisEngine(
        SystemSpec("msi-small", 2),
        SynthesisConfig(compute_fingerprints=True, solution_limit=solution_limit),
        workers=2,
    )
    before = threading.active_count()
    report = engine.run()
    assert threading.active_count() == before
    assert len(report.solutions) == (solution_limit or 126)


def _blocked_queue():
    """A queue whose feeder holds more than one pipe's worth of data."""
    channel = multiprocessing.get_context("fork").Queue()
    for _ in range(4):
        channel.put(b"x" * (1 << 16))
    return channel


def test_drain_joins_a_blocked_feeder():
    before = threading.active_count()
    channel = _blocked_queue()
    assert threading.active_count() == before + 1
    _close_written_queue(channel, drain=True)
    assert threading.active_count() == before

