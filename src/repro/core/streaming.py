"""Streaming incremental analyses — the online half of ``analyze()``.

The batch analyses in :mod:`repro.core` read a fully materialised event
list (the paper's 512 MiB relayfs dump read after the fact).  The
reducers here consume :class:`~repro.tracing.events.TimerEvent` records
through the sink protocol (anything with ``emit``), so
they can be attached *live* to a running machine
(:meth:`LinuxKernel.attach_sink` / :meth:`VistaKernel.attach_sink`) and
aggregate a trace of any length in memory proportional to the number of
*active* timers, not the number of events:

* :class:`StreamingSummary` — Tables 1/2 (including exact maximum
  concurrency, via a watermarked interval sweep),
* :class:`StreamingClassifier` — Figure 2 usage patterns and the
  Table 3 origin rows, from O(1)-per-timer accumulators fed by the
  shared :class:`~repro.core.episodes.EpisodeBuilder` state machine,
* :class:`StreamingValues` — the Figure 3–7 value histograms,
* :class:`StreamingDurations` — the Figure 8–11 scatter, plus exact
  quantiles of the expiry/cancel fraction (free: the fractions are
  already in the bounded cell aggregation),
* :class:`StreamingRates` — the Figure 1 set-rate series,
* :class:`StreamingSuite` — all of the above behind one sink, which
  buffers records and folds them in ``sample_every``-aligned chunks.

Exactness: every reducer is designed to reproduce its batch counterpart
*byte-identically* on the same event stream (the equivalence tests pin
this).  The one subtlety is concurrency: the Vista thread-unblock
record arrives at unblock time but describes an interval that *started*
at block time, so the sweep buffers endpoint deltas inside a sliding
watermark window (``wait_horizon_ns``, generously above the longest
wait timeout any workload uses) and counts any event that still lands
behind the watermark in :attr:`StreamingSummary.late_waits` — zero in
every workload, asserted by the tests, so the streamed maximum equals
the batch maximum.
"""

from __future__ import annotations

import heapq
import sys
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Optional, Tuple

from ..sim.clock import JIFFY, SECOND
from ..tracing.events import (FLAG_WAIT_SATISFIED, EventKind, TimerEvent)
from .classify import PatternBreakdown, TimerClass, TimerStats
from .durations import CUTOFF_PCT, DurationScatter, ScatterPoint
from .episodes import (DEFAULT_TOLERANCE_NS, Episode, EpisodeBuilder,
                       Outcome, quantizes_to_jiffies)
from .origins import OriginRow, attribute_origin
from .rates import RateSeries, default_group
from .summary import TraceSummary
from .values import ValueHistogram

#: Sliding-window slack for retroactive WAIT_UNBLOCK interval starts.
#: A wait unblocks at most its timeout after it blocks; the longest
#: timed wait any modelled workload issues is 60 s, so 120 s of slack
#: keeps the streamed concurrency sweep exact (``late_waits == 0``)
#: while bounding the delta buffer to a two-minute window.
DEFAULT_WAIT_HORIZON_NS = 120 * SECOND


class StreamingSummary:
    """Online Table 1/2 metrics (see :func:`repro.core.summarize`).

    Counters are trivially exact; distinct-timer and concurrency
    tracking keep O(timers) and O(active + horizon window) state.
    """

    def __init__(self, os_name: str, workload: str, *,
                 wait_horizon_ns: Optional[int] = None):
        self.os_name = os_name
        self.workload = workload
        from ..kern.registry import backend_traits
        self._vista = backend_traits(os_name).etw_style
        if wait_horizon_ns is None:
            wait_horizon_ns = DEFAULT_WAIT_HORIZON_NS if self._vista else 0
        self.wait_horizon_ns = wait_horizon_ns
        self.n_events = 0
        #: Interval endpoints that arrived behind the committed
        #: watermark (would make the streamed concurrency inexact).
        self.late_waits = 0
        self.result: Optional[TraceSummary] = None
        self._timer_ids: set[int] = set()
        self._pending: set[int] = set()
        self._deltas: dict[int, list] = {}   # ts -> [closes, opens]
        self._heap: list[int] = []
        self._level = 0
        self._concurrency = 0
        self._committed_ts = -1
        self._user = self._kernel = 0
        self._accesses = 0
        self._set = self._expired = self._canceled = 0

    # -- the interval sweep, incrementally ------------------------------

    def _delta(self, ts: int, idx: int) -> None:
        """Buffer one endpoint (idx 0 = close, 1 = open) at ``ts``."""
        if ts <= self._committed_ts:
            self.late_waits += 1
            ts = self._committed_ts + 1
        cell = self._deltas.get(ts)
        if cell is None:
            cell = self._deltas[ts] = [0, 0]
            heapq.heappush(self._heap, ts)
        cell[idx] += 1

    def _commit(self, watermark: int) -> None:
        """Apply every buffered instant strictly below ``watermark``.

        Closes apply before opens at the same instant — the batch
        sweep's sort places ``(ts, -1)`` before ``(ts, +1)`` — so a
        timer re-armed at time t counts once, not twice.
        """
        heap, deltas = self._heap, self._deltas
        while heap and heap[0] < watermark:
            ts = heapq.heappop(heap)
            closes, opens = deltas.pop(ts)
            self._level += opens - closes
            if self._level > self._concurrency:
                self._concurrency = self._level
            self._committed_ts = ts

    # -- sink protocol ---------------------------------------------------

    def emit(self, event: TimerEvent) -> None:
        self.emit_batch((event,))

    def emit_batch(self, events: Iterable[TimerEvent]) -> None:
        """Fold events in order: count them, track pending timers, and
        buffer interval endpoints, committing every instant that falls
        behind the watermark ``ts - wait_horizon_ns`` after each event.
        """
        set_kind = EventKind.SET
        expire_kind = EventKind.EXPIRE
        cancel_kind = EventKind.CANCEL
        wait_kind = EventKind.WAIT_UNBLOCK
        init_kind = EventKind.INIT
        satisfied = FLAG_WAIT_SATISFIED
        vista = self._vista
        horizon = self.wait_horizon_ns
        add_id = self._timer_ids.add
        pending = self._pending
        deltas = self._deltas
        heap = self._heap
        heappop = heapq.heappop
        delta = self._delta
        n = accesses = user = kernel = 0
        sets = expired = canceled = 0
        # One C-level unpack of the event tuple per iteration replaces
        # the per-field attribute lookups this loop used to pay.
        for (kind, ts, timer_id, _pid, _comm, domain, _site,
             timeout_ns, expires_ns, flags, host, _cpu) in events:
            n += 1
            if host:
                # Cluster traces: ids are per-host counters, so the
                # same raw id on two hosts is two distinct timers.
                timer_id = (host, timer_id)
            add_id(timer_id)

            if not (vista and (kind is expire_kind or kind is init_kind)):
                accesses += 1
                if domain == "user":
                    user += 1
                else:
                    kernel += 1

            if kind is set_kind:
                sets += 1
                if timer_id in pending:
                    delta(ts, 0)
                else:
                    pending.add(timer_id)
                delta(ts, 1)
            elif kind is expire_kind:
                expired += 1
                if timer_id in pending:
                    pending.discard(timer_id)
                    delta(ts, 0)
            elif kind is cancel_kind:
                if expires_ns is not None:
                    canceled += 1
                if timer_id in pending:
                    pending.discard(timer_id)
                    delta(ts, 0)
            elif kind is wait_kind:
                if timeout_ns is not None:
                    sets += 1
                    if flags & satisfied:
                        canceled += 1
                    else:
                        expired += 1
                    delta(expires_ns, 1)   # block timestamp
                    delta(ts, 0)

            # _commit(ts - horizon), inlined.
            watermark = ts - horizon
            while heap and heap[0] < watermark:
                cts = heappop(heap)
                closes, opens = deltas.pop(cts)
                level = self._level + opens - closes
                self._level = level
                if level > self._concurrency:
                    self._concurrency = level
                self._committed_ts = cts
        self.n_events += n
        self._accesses += accesses
        self._user += user
        self._kernel += kernel
        self._set += sets
        self._expired += expired
        self._canceled += canceled

    def state_size(self) -> int:
        """Entries of *transient* sweep state (pending timers plus
        buffered endpoint instants) — the part that would be O(events)
        if the trace were buffered instead."""
        return len(self._pending) + len(self._deltas)

    def finish(self, duration_ns: int) -> TraceSummary:
        # Still-armed timers occupy their slot until the trace ends
        # (their opening +1 was streamed at the SET).
        for _timer_id in self._pending:
            self._delta(duration_ns, 0)
        self._commit(float("inf"))
        self.result = TraceSummary(
            workload=self.workload, os_name=self.os_name,
            timers=len(self._timer_ids), concurrency=self._concurrency,
            accesses=self._accesses, user_space=self._user,
            kernel=self._kernel, set_count=self._set,
            expired=self._expired, canceled=self._canceled)
        self._timer_ids = set()
        self._pending = set()
        self._deltas = {}
        self._heap = []
        return self.result


# ---------------------------------------------------------------------------
# Shared per-timer episode routing
# ---------------------------------------------------------------------------

class _Group:
    """One timer grouping (per-address or per-(site, pid) cluster)."""

    __slots__ = ("key", "comm", "first_site", "set_site", "builder")

    def __init__(self, key, event: TimerEvent):
        self.key = key
        self.comm = event.comm
        self.first_site = event.site
        self.set_site: Optional[Tuple[str, ...]] = None
        self.builder: Optional[EpisodeBuilder] = None

    @property
    def site(self) -> Tuple[str, ...]:
        # TimerHistory.site: the first SET's stack, else the first
        # event's stack.
        return self.set_site if self.set_site is not None \
            else self.first_site


class EpisodeRouter:
    """Route an event stream to per-group :class:`EpisodeBuilder`\\ s.

    Replicates :class:`~repro.core.index.TraceIndex`'s grouping logic
    incrementally: per timer address (``logical=False``) or per
    (most-recent-SET-site, pid) cluster (``logical=True``, the Vista
    default).  Subscribers get ``on_group(group)`` at group creation
    (in first-event order, matching the batch grouping dicts) and
    ``on_episode(group, episode)`` for every completed episode; only
    the open episode per group is retained.
    """

    def __init__(self, os_name: str, *, logical: Optional[bool] = None):
        if logical is None:
            from ..kern.registry import backend_traits
            logical = backend_traits(os_name).logical_timers
        self.os_name = os_name
        self.logical = logical
        self._groups: dict = {}
        self._site_of_id: dict = {}
        self._subscribers: list = []
        #: Groups with an episode open, kept by the builders themselves.
        self._open = [0]
        #: Routing volume counters (mirrored into repro.obs metrics).
        self.groups_created = 0
        self.episodes_routed = 0

    def subscribe(self, consumer) -> None:
        self._subscribers.append(consumer)

    def groups(self) -> Iterable[_Group]:
        return self._groups.values()

    def open_episodes(self) -> int:
        """Groups whose builder holds an armed episode — O(1), and safe
        to read from a thread other than the one emitting."""
        return self._open[0]

    def _new_group(self, key, event: TimerEvent) -> _Group:
        group = self._groups[key] = _Group(key, event)
        self.groups_created += 1
        subscribers = self._subscribers

        def dispatch(episode: Episode, group=group,
                     subscribers=subscribers,
                     router=self) -> None:
            router.episodes_routed += 1
            for consumer in subscribers:
                consumer.on_episode(group, episode)

        group.builder = EpisodeBuilder(self.os_name, dispatch, self._open)
        for consumer in subscribers:
            consumer.on_group(group)
        return group

    def emit(self, event: TimerEvent) -> None:
        self.emit_batch((event,))

    def emit_batch(self, events: Iterable[TimerEvent]) -> None:
        """Route events in order to their groups' builders, creating
        groups (and telling subscribers) on first sight.

        A logical group is keyed by the (site, pid) of the timer's most
        recent SET/INIT/WAIT_UNBLOCK; a group's ``site`` is its first
        SET's stack.  Loop-invariant lookups are hoisted and the hot
        fields come from tuple subscripts.
        """
        logical = self.logical
        lookup = self._groups.get
        site_of_id = self._site_of_id
        site_lookup = site_of_id.get
        new_group = self._new_group
        SET = EventKind.SET
        INIT = EventKind.INIT
        WAIT_UNBLOCK = EventKind.WAIT_UNBLOCK
        # The logical/instance decision is loop-invariant; the hot
        # per-event fields come from C-level tuple subscripts.
        if logical:
            for event in events:
                kind = event[0]
                host = event[10]
                timer_id = (host, event[2]) if host else event[2]
                if kind is SET or kind is INIT or kind is WAIT_UNBLOCK:
                    key = (host, event[6], event[3]) if host \
                        else (event[6], event[3])      # (site, pid)
                    site_of_id[timer_id] = key
                else:
                    key = site_lookup(timer_id)
                    if key is None:
                        key = (host, event[6], event[3]) if host \
                            else (event[6], event[3])
                group = lookup(key)
                if group is None:
                    group = new_group(key, event)
                if group.set_site is None and kind is SET:
                    group.set_site = event[6]
                group.builder.push(event)
        else:
            for event in events:
                host = event[10]
                key = (host, event[2]) if host else event[2]
                group = lookup(key)
                if group is None:
                    group = new_group(key, event)
                if group.set_site is None and event[0] is SET:
                    group.set_site = event[6]
                group.builder.push(event)

    def finish(self) -> None:
        """Flush still-open episodes as UNRESOLVED, then drop the
        builders (and their dispatch closures) so finished consumers
        pickle cleanly across process boundaries."""
        for group in self._groups.values():
            if group.builder is not None:
                group.builder.finish()
                group.builder = None
        self._site_of_id = {}


#: The per-group accumulator moved to :mod:`repro.core.classify` so the
#: batch classifier shares it; the old private name stays importable.
_TimerStats = TimerStats


class StreamingClassifier:
    """Online Figure 2 / Table 3: per-group classification counters fed
    by an :class:`EpisodeRouter` (its own unless one is shared)."""

    def __init__(self, os_name: str, workload: str, *,
                 router: Optional[EpisodeRouter] = None,
                 logical: Optional[bool] = None,
                 tolerance_ns: int = DEFAULT_TOLERANCE_NS):
        self.os_name = os_name
        self.workload = workload
        self.tolerance_ns = tolerance_ns
        self._own_router = router is None
        self.router = EpisodeRouter(os_name, logical=logical) \
            if router is None else router
        self.router.subscribe(self)
        #: (group, stats) in group-creation order — the iteration order
        #: of the batch grouping dicts, which tie-breaks must match.
        self._stats: list[tuple[_Group, _TimerStats]] = []
        self._stats_by_id: dict[int, _TimerStats] = {}
        self.breakdown: Optional[PatternBreakdown] = None
        self._origin_rows: Optional[dict] = None

    # -- router callbacks ------------------------------------------------

    def on_group(self, group: _Group) -> None:
        stats = _TimerStats(self.tolerance_ns)
        self._stats.append((group, stats))
        self._stats_by_id[id(group)] = stats

    def on_episode(self, group: _Group, episode: Episode) -> None:
        self._stats_by_id[id(group)].add(episode)

    def emit(self, event: TimerEvent) -> None:
        """Standalone-sink mode: only forward when this classifier owns
        its router (a shared router is fed by the suite)."""
        if self._own_router:
            self.router.emit(event)

    def state_size(self) -> int:
        return self.router.open_episodes()

    # -- results ---------------------------------------------------------

    def finish(self, duration_ns: int = 0) -> PatternBreakdown:
        if self._own_router:
            self.router.finish()
        breakdown = PatternBreakdown(self.workload, self.os_name)
        origin_rows: dict = {}
        origin_of = lru_cache(maxsize=None)(attribute_origin)
        for group, stats in self._stats:
            timer_class, value = stats.classify()
            breakdown.counts[timer_class] = \
                breakdown.counts.get(timer_class, 0) + 1
            breakdown.total += 1
            if value is None or value <= 0:
                continue
            origin = origin_of(group.site, group.comm)
            key = (value, origin)
            entry = origin_rows.get(key)
            if entry is None:
                entry = origin_rows[key] = {"sets": 0, "classes": {}}
            entry["sets"] += stats.n
            entry["classes"][timer_class] = \
                entry["classes"].get(timer_class, 0) + 1
        self.breakdown = breakdown
        self._origin_rows = origin_rows
        self._stats = []
        self._stats_by_id = {}
        return breakdown

    def origin_table(self, *, min_sets: int = 3) -> list[OriginRow]:
        """The Table 3 rows (call after :meth:`finish`)."""
        if self._origin_rows is None:
            raise RuntimeError("origin_table() requires finish() first")
        out = []
        for (value, origin), entry in self._origin_rows.items():
            if entry["sets"] < min_sets:
                continue
            majority = max(entry["classes"].items(),
                           key=lambda kv: kv[1])[0]
            out.append(OriginRow(value, origin, majority, entry["sets"]))
        out.sort(key=lambda r: (r.timeout_ns, r.origin))
        return out


class StreamingValues:
    """Online Figure 3–7 value histogram (exact: a counter per distinct
    nominal value, same keys and counts as the batch scan)."""

    def __init__(self, os_name: str, workload: str, *,
                 domain: Optional[str] = None,
                 include_waits: bool = True,
                 raw_user_values: bool = True):
        self.os_name = os_name
        self.workload = workload
        self.domain = domain
        self.include_waits = include_waits
        self.raw_user_values = raw_user_values
        #: The backend's value-quantisation trait, resolved once — the
        #: per-event ``nominal_value_ns`` is inlined in the hot loops.
        self._quantize = quantizes_to_jiffies(os_name)
        self._counts: dict[int, int] = {}
        self._total = 0
        self.result: Optional[ValueHistogram] = None

    def emit(self, event: TimerEvent) -> None:
        self.emit_batch((event,))

    def emit_batch(self, events: Iterable[TimerEvent]) -> None:
        """Count the nominal value of every SET (and timed wait) that
        passes the filters, with the filters and the quantisation rule
        hoisted out of the loop."""
        set_kind = EventKind.SET
        wait_kind = EventKind.WAIT_UNBLOCK
        include_waits = self.include_waits
        domain = self.domain
        quantize = self.raw_user_values and self._quantize
        counts = self._counts
        get = counts.get
        total = 0
        for (kind, _ts, _tid, _pid, _comm, event_domain, _site,
             timeout_ns, _expires, _flags, _host, _cpu) in events:
            if kind is wait_kind:
                if not include_waits or timeout_ns is None:
                    continue
            elif kind is not set_kind:
                continue
            if domain is not None and event_domain != domain:
                continue
            value = timeout_ns or 0
            if quantize and value > 0 and event_domain != "user":
                value = -(-value // JIFFY) * JIFFY
            counts[value] = get(value, 0) + 1
            total += 1
        self._total += total

    def state_size(self) -> int:
        return 0       # the histogram itself is the result, not state

    def finish(self, duration_ns: int = 0) -> ValueHistogram:
        self.result = ValueHistogram(self.workload, self.os_name,
                                     self._total, self._counts)
        return self.result


class StreamingDurations:
    """Online Figure 8–11 scatter.

    The aggregated (value, fraction, outcome) cells are exact — the
    batch scatter sorts its cells, so interleaved cross-timer episode
    order cannot show.  Fraction quantiles are exact too, and cost
    nothing per episode: every plotted fraction already lives in the
    bounded cell aggregation with its multiplicity, so
    :meth:`fraction_quantiles` takes weighted quantiles over the cells
    instead of running per-episode online estimators (the P² estimator
    this reducer used to feed lives on in :mod:`repro.core.adaptive`).
    """

    QUANTILES = (0.5, 0.9, 0.99)

    def __init__(self, os_name: str, workload: str, *,
                 router: Optional[EpisodeRouter] = None,
                 logical: Optional[bool] = None,
                 cutoff_pct: float = CUTOFF_PCT):
        self.os_name = os_name
        self.workload = workload
        self.cutoff_pct = cutoff_pct
        self._own_router = router is None
        self.router = EpisodeRouter(os_name, logical=logical) \
            if router is None else router
        self.router.subscribe(self)
        self._agg: dict = {}
        self._skipped = 0
        self._clipped = 0
        self._fq: Optional[dict] = None
        self.result: Optional[DurationScatter] = None

    def on_group(self, group: _Group) -> None:
        pass

    def on_episode(self, _group: _Group, episode: Episode) -> None:
        outcome = episode.outcome
        if outcome == Outcome.UNRESOLVED or outcome == Outcome.REARMED:
            return
        if episode.value_ns <= 0:
            self._skipped += 1
            return
        fraction = episode.elapsed_fraction
        if fraction is None:
            return
        pct = round(100.0 * fraction, 1)
        if pct > self.cutoff_pct:
            self._clipped += 1
            return
        key = (episode.value_ns, pct, outcome)
        self._agg[key] = self._agg.get(key, 0) + 1

    def emit(self, event: TimerEvent) -> None:
        if self._own_router:
            self.router.emit(event)

    def state_size(self) -> int:
        return self.router.open_episodes() if self._own_router else 0

    def fraction_quantiles(self) -> dict[float, Optional[float]]:
        """Exact weighted quantiles of the plotted fraction
        distribution (%), computed from the aggregation cells (or the
        snapshot :meth:`finish` takes before dropping them)."""
        if self._fq is not None:
            return dict(self._fq)
        weights: dict[float, int] = {}
        for (_value, pct, _outcome), n in self._agg.items():
            weights[pct] = weights.get(pct, 0) + n
        total = sum(weights.values())
        if not total:
            return {p: None for p in self.QUANTILES}
        ordered = sorted(weights.items())
        out: dict[float, Optional[float]] = {}
        for p in self.QUANTILES:
            rank = p * total
            cum = 0
            for pct, n in ordered:
                cum += n
                if cum >= rank:
                    out[p] = pct
                    break
        return out

    def finish(self, duration_ns: int = 0) -> DurationScatter:
        if self._own_router:
            self.router.finish()
        self._fq = self.fraction_quantiles()
        scatter = DurationScatter(self.workload, self.os_name)
        scatter.skipped = self._skipped
        scatter.clipped = self._clipped
        scatter.points = [
            ScatterPoint(v, pct, n, outcome) for (v, pct, outcome), n in
            sorted(self._agg.items(), key=lambda kv: (kv[0][0], kv[0][1],
                                                      kv[0][2].value))]
        self.result = scatter
        self._agg = {}
        return scatter


class StreamingRates:
    """Online Figure 1 set-rate series (sparse buckets; the series is
    materialised at :meth:`finish`, once the duration is known)."""

    def __init__(self, os_name: str, workload: str, *,
                 bucket_ns: int = SECOND,
                 group_fn: Callable[[TimerEvent], str] = default_group,
                 kinds: tuple = (EventKind.SET, EventKind.WAIT_UNBLOCK)):
        self.os_name = os_name
        self.workload = workload
        self.bucket_ns = bucket_ns
        self.group_fn = group_fn
        self.kinds = kinds
        self._sparse: dict[str, dict[int, int]] = {}
        self.result: Optional[RateSeries] = None

    def emit(self, event: TimerEvent) -> None:
        self.emit_batch((event,))

    def emit_batch(self, events: Iterable[TimerEvent]) -> None:
        """Count each selected event in its group's bucket (a timed
        wait counts at its block timestamp)."""
        kinds = self.kinds
        wait_kind = EventKind.WAIT_UNBLOCK
        bucket_ns = self.bucket_ns
        group_fn = self.group_fn
        sparse = self._sparse
        sparse_get = sparse.get
        for event in events:
            kind = event[0]
            if kind not in kinds:
                continue
            ts = event[1]
            if kind is wait_kind:
                if event[7] is None:          # timeout_ns
                    continue
                ts = event[8]                 # block timestamp
            name = group_fn(event)
            group = sparse_get(name)
            if group is None:
                group = sparse[name] = {}
            bucket = ts // bucket_ns
            group[bucket] = group.get(bucket, 0) + 1

    def state_size(self) -> int:
        return 0       # the series is the result, not transient state

    def finish(self, duration_ns: int) -> RateSeries:
        n_buckets = max(1, -(-duration_ns // self.bucket_ns))
        series: dict[str, list[int]] = {}
        for name, sparse in self._sparse.items():
            row = [0] * n_buckets
            for bucket, count in sparse.items():
                if bucket < n_buckets:
                    row[bucket] = count
            series[name] = row
        self.result = RateSeries(self.bucket_ns, n_buckets, series)
        self._sparse = {}
        return self.result


class StreamingSuite:
    """Every streaming reducer behind one sink.

    Attach to a machine (``sinks=[suite]`` on any workload runner, or
    ``kernel.attach_sink(suite)`` mid-run), then call
    :meth:`finish` with the trace duration; results land on
    :attr:`summary`, :attr:`breakdown`, :attr:`histogram`,
    :attr:`scatter`, :attr:`rates` and :meth:`origin_table`.  After
    ``finish`` the suite holds only plain result dataclasses, so it
    pickles across process boundaries (the ``run_study_traces``
    ``sink_factory`` path).

    :meth:`state_size` counts the transient aggregation entries (open
    episodes, pending timers, buffered sweep instants); ``peak_state``
    samples its maximum every ``sample_every`` events — the number the
    bounded-memory benchmark tracks.

    :meth:`emit` only buffers the record.  The buffer is folded through
    :meth:`emit_batch`'s column-wise path when it reaches the next
    ``sample_every`` boundary, so it never holds more than
    ``sample_every`` records, and also by :meth:`flush`, which
    :meth:`state_size`, :meth:`finish`, ``collect_streaming`` and each
    ``serve`` slice call.  Folding touches reducer state, so only the
    emitting thread may fold; :meth:`live_state` (read by the serve
    daemon's HTTP threads) never does.
    """

    def __init__(self, os_name: str, workload: str, *,
                 logical: Optional[bool] = None,
                 tolerance_ns: int = DEFAULT_TOLERANCE_NS,
                 sample_every: int = 4096):
        self.os_name = os_name
        self.workload = workload
        #: Records emitted so far, folded or still buffered.
        self.n_events = 0
        self.sample_every = sample_every
        self.peak_state = 0
        self._buffer: list[TimerEvent] = []
        self._folded = 0
        self._fold_at = sample_every
        self.router = EpisodeRouter(os_name, logical=logical)
        self.summary_reducer = StreamingSummary(os_name, workload)
        self.classifier = StreamingClassifier(
            os_name, workload, router=self.router,
            tolerance_ns=tolerance_ns)
        self.values_reducer = StreamingValues(os_name, workload)
        self.durations_reducer = StreamingDurations(
            os_name, workload, router=self.router)
        self.rates_reducer = StreamingRates(os_name, workload)
        self.finished = False
        self.duration_ns: Optional[int] = None
        self._groups_routed = 0
        self._episodes_routed = 0
        self.summary: Optional[TraceSummary] = None
        self.breakdown: Optional[PatternBreakdown] = None
        self.histogram: Optional[ValueHistogram] = None
        self.scatter: Optional[DurationScatter] = None
        self.rates: Optional[RateSeries] = None

    def emit(self, event: TimerEvent) -> None:
        self._buffer.append(event)
        self.n_events += 1
        if self.n_events >= self._fold_at:
            self.flush()

    def flush(self) -> None:
        """Fold the buffered records into the reducers."""
        buffer = self._buffer
        if buffer:
            self._buffer = []
            self._fold(buffer)

    def emit_batch(self, events: Iterable[TimerEvent]) -> None:
        """Fold a whole batch of events through every reducer.

        Result-identical to calling :meth:`emit` per event.  The
        reducers are mutually independent (each one's state is touched
        only by its own ``emit``), so the batch is processed
        column-wise — one batch call per reducer, then one
        :meth:`EpisodeRouter.emit_batch` — in chunks aligned to the
        ``sample_every`` boundary, which keeps every reducer's event
        order *and* the ``peak_state`` sampling points identical to
        the sequential path (see ``benchmarks/bench_streaming.py``).

        A zero-copy :class:`~repro.tracing.binfmt2.ColumnarTrace` is a
        first-class source: its ``__iter__`` hydrates events lazily
        from the mmap'd columns, so each chunk is materialised once,
        shared by all four reducer loops, and released — the whole
        event list never exists in memory.
        """
        self.flush()
        self._fold(events)
        self.n_events = self._folded

    def _fold(self, events: Iterable[TimerEvent]) -> None:
        it = iter(events)
        sample_every = self.sample_every
        summary_batch = self.summary_reducer.emit_batch
        values_batch = self.values_reducer.emit_batch
        rates_batch = self.rates_reducer.emit_batch
        route_batch = self.router.emit_batch
        while True:
            take = sample_every - self._folded % sample_every
            chunk = list(islice(it, take))
            if not chunk:
                break
            summary_batch(chunk)
            values_batch(chunk)
            rates_batch(chunk)
            route_batch(chunk)
            self._folded += len(chunk)
            if len(chunk) == take:
                self._sample()
        # emit folds again when the count reaches the next boundary.
        self._fold_at = self._folded + take

    def _state_size(self) -> int:
        return self.summary_reducer.state_size() \
            + self.router.open_episodes()

    def _sample(self) -> None:
        size = self._state_size()
        if size > self.peak_state:
            self.peak_state = size

    def state_size(self) -> int:
        self.flush()
        return self._state_size()

    def finish(self, duration_ns: int) -> "StreamingSuite":
        if self.finished:
            return self
        self.flush()
        self._sample()
        self.duration_ns = duration_ns
        self.router.finish()
        self.summary = self.summary_reducer.finish(duration_ns)
        self.breakdown = self.classifier.finish(duration_ns)
        self.histogram = self.values_reducer.finish(duration_ns)
        self.scatter = self.durations_reducer.finish(duration_ns)
        self.rates = self.rates_reducer.finish(duration_ns)
        self._groups_routed = self.router.groups_created
        self._episodes_routed = self.router.episodes_routed
        self.router = None          # drop dispatch closures: picklable
        self.classifier.router = None
        self.durations_reducer.router = None
        self.finished = True
        return self

    @property
    def late_waits(self) -> int:
        return self.summary_reducer.late_waits

    @property
    def groups_routed(self) -> int:
        """Timer groups created by the shared router (live or final)."""
        router = self.router
        return self._groups_routed if router is None \
            else router.groups_created

    @property
    def episodes_routed(self) -> int:
        """Completed episodes dispatched to subscribers."""
        router = self.router
        return self._episodes_routed if router is None \
            else router.episodes_routed

    def live_state(self) -> dict:
        """Point-in-time progress counters, safe both mid-run and after
        :meth:`finish` (when the transient state has been dropped) —
        the ``timerstudy serve`` daemon reports these on ``/statusz``.
        Never folds: ``events`` counts buffered records, the other
        entries describe the records folded so far.
        """
        return {
            "events": self.n_events,
            "state_entries": 0 if self.finished else self._state_size(),
            "state_peak": self.peak_state,
            "groups": self.groups_routed,
            "episodes": self.episodes_routed,
            "late_waits": self.late_waits,
            "finished": self.finished,
        }

    def origin_table(self, *, min_sets: int = 3) -> list[OriginRow]:
        return self.classifier.origin_table(min_sets=min_sets)

    def fraction_quantiles(self) -> dict[float, Optional[float]]:
        return self.durations_reducer.fraction_quantiles()


class ProgressSink:
    """Live event counter for ``timerstudy run --stream``: prints a
    carriage-return progress line every ``every`` events."""

    def __init__(self, every: int = 200_000, label: str = "",
                 stream=None):
        self.every = every
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.n_events = 0
        self._printed = False

    def emit(self, event: TimerEvent) -> None:
        self.n_events += 1
        if self.n_events % self.every == 0:
            print(f"\r{self.label}{self.n_events:,} events",
                  end="", file=self.stream, flush=True)
            self._printed = True

    def finish(self, duration_ns: int = 0) -> int:
        if self._printed:
            print(file=self.stream)
            self._printed = False
        return self.n_events
