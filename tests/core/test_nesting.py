"""Tests for nested-timeout inference."""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, run_workload
from repro.sim.clock import MILLISECOND, SECOND, millis, seconds
from repro.linuxkern import LinuxKernel
from repro.core import nesting as nesting_mod
from repro.core.index import TraceIndex, as_index
from repro.core.interfaces import ScopedTimeout
from repro.core.nesting import NestedPair, infer_nesting, render_nesting
from repro.tracing import Trace

from .helpers import TraceBuilder


def nested_workload_trace():
    """Outer 30 s RPC guard; inner 5 s retries inside each guard."""
    builder = TraceBuilder(duration_ns=600 * SECOND)
    ts = 0
    for _round in range(8):
        outer_start = ts
        builder.set(ts, 1, 30 * SECOND, site=("outer_guard",))
        for _retry in range(3):
            builder.set(ts + MILLISECOND, 2, 5 * SECOND,
                        site=("inner_retry",))
            ts += seconds(4)
            builder.cancel(ts, 2, site=("inner_retry",))
        builder.cancel(ts + MILLISECOND, 1, site=("outer_guard",))
        ts += seconds(10)
    return builder.build()


class TestInference:
    def test_detects_nesting(self):
        pairs = infer_nesting(nested_workload_trace(), logical=False)
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.outer_site == ("outer_guard",)
        assert pair.inner_site == ("inner_retry",)
        assert pair.support == 24
        assert pair.containment == 1.0

    def test_no_false_positive_for_disjoint_timers(self):
        builder = TraceBuilder()
        ts = 0
        for _ in range(10):
            builder.set(ts, 1, SECOND, site=("a",))
            builder.expire(ts + SECOND, 1, site=("a",))
            ts += 2 * SECOND
            builder.set(ts, 2, SECOND, site=("b",))
            builder.expire(ts + SECOND, 2, site=("b",))
            ts += 2 * SECOND
        assert infer_nesting(builder.build(), logical=False) == []

    def test_cross_pid_not_nested(self):
        builder = TraceBuilder(duration_ns=600 * SECOND)
        ts = 0
        for _ in range(8):
            builder.set(ts, 1, 30 * SECOND, site=("outer",), pid=1)
            builder.set(ts + MILLISECOND, 2, 5 * SECOND,
                        site=("inner",), pid=2)
            builder.cancel(ts + seconds(4), 2, site=("inner",), pid=2)
            builder.cancel(ts + seconds(5), 1, site=("outer",), pid=1)
            ts += seconds(10)
        assert infer_nesting(builder.build(), logical=False) == []

    def test_elidable_counting(self):
        """Inner deadline beyond the outer deadline -> elidable."""
        builder = TraceBuilder(duration_ns=600 * SECOND)
        ts = 0
        for _ in range(5):
            builder.set(ts, 1, seconds(5), site=("outer",))
            # Inner timeout LONGER than the outer: can never fire first.
            builder.set(ts + MILLISECOND, 2, seconds(20),
                        site=("inner",))
            builder.cancel(ts + seconds(2), 2, site=("inner",))
            builder.cancel(ts + seconds(3), 1, site=("outer",))
            ts += seconds(10)
        pairs = infer_nesting(builder.build(), logical=False)
        assert pairs[0].elidable == pairs[0].support == 5

    def test_render(self):
        text = render_nesting(infer_nesting(nested_workload_trace(),
                                            logical=False))
        assert "nested in" in text
        assert render_nesting([]).startswith("(no nested")


class TestOnRealScopedTimeouts:
    def test_scoped_timeout_trace_shows_nesting(self):
        kernel = LinuxKernel(seed=9)
        for _ in range(6):
            with ScopedTimeout(kernel, seconds(30), lambda: None,
                               site=("rpc_outer",), elide_nested=False):
                kernel.run_for(millis(1))      # code runs before the
                with ScopedTimeout(kernel, seconds(5), lambda: None,
                                   site=("rpc_inner",),
                                   elide_nested=False):
                    kernel.run_for(millis(500))
                kernel.run_for(millis(1))      # ...and after the call
            kernel.run_for(seconds(1))
        trace = Trace(os_name="linux", workload="scoped",
                      duration_ns=kernel.engine.now,
                      events=list(kernel.sink))
        pairs = infer_nesting(trace, logical=True, min_support=3)
        sites = {(p.outer_site[0], p.inner_site[0]) for p in pairs}
        assert ("rpc_outer", "rpc_inner") in sites


class TestParameterValidation:
    @pytest.mark.parametrize("value", [float("nan"), -0.1, 1.5])
    def test_rejects_bad_min_containment(self, value):
        with pytest.raises(ValueError, match="min_containment"):
            infer_nesting(nested_workload_trace(), min_containment=value)

    def test_rejects_negative_min_support(self):
        with pytest.raises(ValueError, match="min_support"):
            infer_nesting(nested_workload_trace(), min_support=-1)


# -- differential test against the brute-force definition ---------------

#: (min_support, min_containment) settings the differential tests
#: sweep; (0, 0.0) reports pairs with no contained episode at all.
SETTINGS = [(s, c) for s in (0, 1, 3, 5) for c in (0.0, 0.6, 1.0)]


def _overlap(outer, inner):
    return min(o[0] for o in outer) <= max(i[0] for i in inner) \
        and max(o[1] for o in outer) >= min(i[1] for i in inner)


def brute_force_tallies(grouped):
    """(pid, outer site, inner site, support, elidable, n inner) for
    every ordered same-pid timer pair, straight from the definition:
    each inner episode counts against the first outer episode, in
    episode order, that is armed no later, ends no earlier and is not
    the identical interval.

    A pair whose envelopes do not overlap (the outer's first start
    after the inner's last start, or its last end before the inner's
    first end) is not a candidate at all.  That only shows at a zero
    support floor, where a candidate with no contained episode is
    still reported."""
    per_pid = {}      # pids in order of their first timer with episodes
    for history, episodes in grouped:
        if not episodes:
            continue
        timers = per_pid.setdefault(history.pid, [])
        intervals = [(set_at, ended_at, set_at + value_ns)
                     for set_at, value_ns, _o, ended_at, _g in episodes
                     if ended_at is not None]
        if intervals:
            timers.append((history.site, intervals))
    tallies = []
    for pid, timers in per_pid.items():
        for o_site, outer in timers:
            for i_site, inner in timers:
                if i_site is o_site or not _overlap(outer, inner):
                    continue
                support = elidable = 0
                for i_start, i_end, i_deadline in inner:
                    for o_start, o_end, o_deadline in outer:
                        if o_start <= i_start and i_end <= o_end \
                                and (o_start, o_end) != (i_start, i_end):
                            support += 1
                            elidable += i_deadline >= o_deadline
                            break
                tallies.append((pid, o_site, i_site, support, elidable,
                                len(inner)))
    return tallies


def brute_force_nesting(tallies, min_support, min_containment):
    pairs = [NestedPair(o_site, i_site, pid, support, support / n,
                        elidable)
             for pid, o_site, i_site, support, elidable, n in tallies
             if support >= min_support
             and support / n >= min_containment]
    pairs.sort(key=lambda p: -p.support)
    return pairs


def assert_matches_brute_force(source, grouped, logical=None):
    tallies = brute_force_tallies(grouped)
    for min_support, min_containment in SETTINGS:
        got = infer_nesting(source, min_support=min_support,
                            min_containment=min_containment,
                            logical=logical)
        assert got == brute_force_nesting(tallies, min_support,
                                          min_containment), \
            (min_support, min_containment)


PAPER_TRACES = [(os_name, wl) for os_name in ("linux", "vista")
                for wl in ("idle", "skype", "firefox", "webserver")]


@pytest.fixture(scope="module")
def paper_traces():
    return {key: run_workload(*key, 6 * SECOND, seed=3).trace
            for key in PAPER_TRACES}


@pytest.fixture(scope="module")
def farm_trace():
    """One pid, ~1 000 timers, few of them with enough episodes to
    qualify as an inner."""
    machine = Machine("linux", seed=1001)
    machine.scene("serverfarm", connections=400)
    return machine.finish("serverfarm", 3 * SECOND).trace


class _IntervalIndex(TraceIndex):
    """A :class:`TraceIndex` serving hand-made episode lists, so the
    battery reaches interval shapes a simulated trace produces only
    rarely: unsorted starts and exact collisions across timers."""

    default_logical = False

    def __init__(self, timers):
        self._timers = timers

    def grouped(self, logical=None):
        return iter(self._timers)


# Small coordinates make identical intervals across timers common;
# the list order is kept as drawn, so starts are often unsorted.
_episode = st.tuples(st.integers(0, 20), st.integers(0, 8),
                     st.integers(0, 12), st.booleans())
_timer = st.tuples(st.integers(1, 2), st.lists(_episode, max_size=8),
                   st.booleans())


class TestBruteForceDifferential:
    @pytest.mark.parametrize("logical", [False, True])
    @pytest.mark.parametrize("key", PAPER_TRACES,
                             ids=["/".join(k) for k in PAPER_TRACES])
    def test_paper_traces(self, paper_traces, key, logical):
        trace = paper_traces[key]
        assert_matches_brute_force(trace,
                                   as_index(trace).grouped(logical),
                                   logical)

    def test_serverfarm(self, farm_trace):
        """On the pure path: at support floors 0 and 1 every
        one-episode timer qualifies as an inner, up to ~240 000 pairs
        reach the containment test, and the vectorised path pays a
        fixed cost per pair.  ``test_shard`` checks that both paths
        agree on a serverfarm at the default floor."""
        with mock.patch.object(nesting_mod, "_np", None):
            assert_matches_brute_force(farm_trace,
                                       as_index(farm_trace).grouped())

    @pytest.mark.parametrize("use_numpy", [True, False])
    @settings(max_examples=150, deadline=None)
    @given(timers=st.lists(_timer, max_size=6))
    def test_random_interval_sets(self, use_numpy, timers):
        grouped = []
        for k, (pid, drawn, chronological) in enumerate(timers):
            episodes = [(start, value, None,
                         start + length if resolved else None, None)
                        for start, length, value, resolved in drawn]
            if chronological:
                episodes.sort(key=lambda ep: ep[0])
            grouped.append((SimpleNamespace(pid=pid, site=("site", k)),
                            episodes))
        np_module = nesting_mod._np if use_numpy else None
        with mock.patch.object(nesting_mod, "_np", np_module):
            assert_matches_brute_force(_IntervalIndex(grouped), grouped)
