"""The suite's live path buffers records and folds them in
sample-aligned chunks; it must give the same results however the
stream arrives and whenever the emitting thread reads state.

Three feeds of one event stream are compared: per-event ``emit``,
``emit_batch``, and per-event ``emit`` interleaved at odd offsets with
``flush``, ``live_state``, ``state_size`` and ``collect_streaming``.
"""

import sys
import threading

import pytest

from repro import Machine, StreamingSuite, render_analysis
from repro.kern import Cluster
from repro.obs import MetricsRegistry, collect_streaming
from repro.sim.clock import SECOND


@pytest.fixture(scope="module")
def linux_farm():
    machine = Machine("linux", seed=5)
    machine.scene("serverfarm", connections=2000)
    return machine.finish("serverfarm", 2 * SECOND).trace


@pytest.fixture(scope="module")
def vista_cluster():
    cluster = Cluster("vista", hosts=2, cpus=2, seed=3)
    cluster.scene("serverfarm", connections=1500)
    return cluster.finish("serverfarm", 2 * SECOND).trace


def scanned_open_episodes(suite):
    return sum(1 for group in suite.router.groups()
               if group.builder._armed_at is not None)


def per_event(trace, sample_every):
    suite = StreamingSuite(trace.os_name, trace.workload,
                           sample_every=sample_every)
    longest = 0
    for event in trace.events:
        suite.emit(event)
        longest = max(longest, len(suite._buffer))
    assert longest <= sample_every
    return suite


def batched(trace, sample_every):
    suite = StreamingSuite(trace.os_name, trace.workload,
                           sample_every=sample_every)
    suite.emit_batch(trace.events)
    return suite


def interleaved(trace, sample_every):
    suite = StreamingSuite(trace.os_name, trace.workload,
                           sample_every=sample_every)
    labels = {"os": trace.os_name, "workload": trace.workload}
    for i, event in enumerate(trace.events, 1):
        suite.emit(event)
        if i % 1013 == 0:
            buffered = len(suite._buffer)
            live = suite.live_state()
            assert live["events"] == i
            assert len(suite._buffer) == buffered     # never folds
        if i % 2039 == 7:
            suite.flush()
            assert not suite._buffer
            assert suite.router.open_episodes() == \
                scanned_open_episodes(suite)
        if i % 3001 == 11:
            assert suite.state_size() >= 0
        if i % 4999 == 13:
            collect_streaming(suite, MetricsRegistry(), labels)
            assert not suite._buffer
    return suite


def outcome(suite, duration_ns):
    suite.finish(duration_ns)
    return (render_analysis(suite), suite.peak_state, suite.n_events,
            suite.groups_routed, suite.episodes_routed)


@pytest.mark.parametrize("sample_every", [4096, 97])
@pytest.mark.parametrize("source", ["linux_farm", "vista_cluster"])
def test_three_feeds_agree(source, sample_every, request):
    trace = request.getfixturevalue(source)
    results = [outcome(feed(trace, sample_every), trace.duration_ns)
               for feed in (per_event, batched, interleaved)]
    assert results[0][2] == len(trace.events)
    assert results[0][1] > 0
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_open_episode_count_tracks_the_scan(linux_farm):
    suite = StreamingSuite("linux", "serverfarm")
    for start in range(0, len(linux_farm.events), 1777):
        suite.emit_batch(linux_farm.events[start:start + 1777])
        assert suite.router.open_episodes() == scanned_open_episodes(suite)
    assert suite.router.open_episodes() > 0
    suite.router.finish()
    assert suite.router.open_episodes() == 0


def test_live_state_counts_buffered_records(linux_farm):
    suite = StreamingSuite("linux", "serverfarm")
    for event in linux_farm.events[:100]:
        suite.emit(event)
    live = suite.live_state()
    assert live["events"] == 100
    assert live["groups"] == 0                  # nothing folded yet
    assert suite.state_size() > 0               # folds
    assert suite.live_state()["groups"] > 0


def test_live_state_is_safe_from_other_threads(linux_farm):
    """``/statusz`` reads ``live_state`` on HTTP threads while the loop
    thread emits (and creates groups); readers must never fail and
    must see ``events`` only grow."""
    suite = StreamingSuite("linux", "serverfarm", sample_every=64)
    stop = threading.Event()
    errors = []
    seen = [[] for _ in range(3)]

    def reader(out):
        try:
            while not stop.is_set():
                out.append(suite.live_state()["events"])
        except Exception as exc:          # reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(out,))
               for out in seen]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for event in linux_farm.events:
            suite.emit(event)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for out in seen:
        assert out and out == sorted(out)
