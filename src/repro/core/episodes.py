"""Per-timer episode extraction.

An *episode* is one arming of a timer and its outcome: it expired, it
was cancelled while pending, or it was re-armed (``mod_timer`` on a
pending timer) before either happened.  Episodes are the unit both the
usage-pattern classifier (Section 4.1) and the duration analysis
(Section 4.3) operate on.

Nominal timeout values: the Linux kernel quantises expiry to jiffies,
so a kernel-side observation of 50.3 jiffies of relative time means a
nominal 51-jiffy (0.204 s) timeout; user-space values are recorded
exactly at the syscall and Vista values are taken as requested.  The
2 ms tolerance the paper determined experimentally (Section 3.1) is
applied when comparing values.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from typing import NamedTuple, Optional

from ..kern.registry import backend_traits
from ..sim.clock import JIFFY, MILLISECOND
from ..tracing.events import FLAG_WAIT_SATISFIED, EventKind
from ..tracing.trace import TimerHistory

#: The jitter allowance the paper determined from the workqueue timer.
DEFAULT_TOLERANCE_NS = 2 * MILLISECOND


class ValueBuckets:
    """First-fit tolerance pooling of set values.

    Each value joins the *earliest-created* bucket whose center lies
    within the tolerance, or opens a new bucket at itself — the exact
    semantics of scanning the bucket dict in insertion order, but
    found through a sorted view of the centers, so countdown timers
    (every set value distinct) cost O(log n) per episode instead of a
    full scan.
    """

    __slots__ = ("tolerance_ns", "counts", "_seq", "_sorted")

    def __init__(self, tolerance_ns: int):
        self.tolerance_ns = tolerance_ns
        #: center -> count, in bucket-creation order.
        self.counts: dict[int, int] = {}
        self._seq: dict[int, int] = {}
        self._sorted: list[int] = []

    def add(self, value: int) -> None:
        counts = self.counts
        if value in counts:
            # Exact center hit.  Centers are pairwise more than the
            # tolerance apart (a bucket only opens when no existing
            # center is within tolerance), so this bucket is the only
            # candidate — the dominant case for periodic timers
            # re-arming one fixed value.
            counts[value] += 1
            return
        lo = bisect_left(self._sorted, value - self.tolerance_ns)
        hi = bisect_right(self._sorted, value + self.tolerance_ns)
        if lo < hi:
            center = min(self._sorted[lo:hi], key=self._seq.__getitem__)
            self.counts[center] += 1
        else:
            self.counts[value] = 1
            self._seq[value] = len(self._seq)
            insort(self._sorted, value)

    def dominant(self) -> tuple[int, int]:
        """(center, count) of the fullest bucket; ties go to the
        earliest-created bucket, as with ``max`` over the dict."""
        return max(self.counts.items(), key=lambda kv: kv[1])


class Outcome(enum.Enum):
    EXPIRED = "expired"
    CANCELED = "canceled"
    REARMED = "rearmed"        #: re-set while still pending
    UNRESOLVED = "unresolved"  #: trace ended while pending


class Episode(NamedTuple):
    """One arming of a timer.

    A NamedTuple rather than a dataclass: episode extraction builds
    hundreds of thousands of these per trace, and tuple construction
    is the cheapest object allocation Python offers while keeping the
    named-field API every analysis reads.
    """

    set_at: int            #: timestamp of the SET
    value_ns: int          #: nominal relative timeout
    outcome: Outcome
    ended_at: Optional[int]   #: when the outcome occurred
    gap_before_ns: Optional[int]  #: idle time since previous episode end

    @property
    def elapsed_ns(self) -> Optional[int]:
        if self.ended_at is None:
            return None
        return self.ended_at - self.set_at

    @property
    def elapsed_fraction(self) -> Optional[float]:
        """Elapsed life as a fraction of the set value (Figures 8–11)."""
        if self.ended_at is None or self.value_ns <= 0:
            return None
        return (self.ended_at - self.set_at) / self.value_ns


def quantizes_to_jiffies(os_name: str) -> bool:
    """Whether kernel-side timeout observations on this backend must be
    quantised back to whole jiffies — the backend trait the hot loops
    hoist out of their per-event path."""
    return backend_traits(os_name).jiffy_values


def nominal_value_ns(event, os_name: str) -> int:
    """Recover the nominal timeout from an observed SET event.

    The quantisation rule is a backend trait
    (:func:`repro.kern.registry.backend_traits`), not a hard-coded OS
    check, so plugin backends choose their own value semantics.
    """
    timeout = event.timeout_ns or 0
    if (timeout > 0 and event.domain != "user"
            and quantizes_to_jiffies(os_name)):
        # Kernel-side observation: quantise back to whole jiffies
        # (arming happened mid-jiffy, so observed <= nominal).
        return -(-timeout // JIFFY) * JIFFY
    return timeout


#: Kind singletons hoisted to module level for the per-event dispatch.
_SET = EventKind.SET
_EXPIRE = EventKind.EXPIRE
_CANCEL = EventKind.CANCEL
_WAIT_UNBLOCK = EventKind.WAIT_UNBLOCK


class EpisodeBuilder:
    """Incremental episode extraction for one timer's event stream.

    The streaming router (:mod:`repro.core.streaming`) keeps one per
    timer group; :func:`extract_episodes` is the same state machine
    inlined for the batch path, and the differential tests pin the two
    to byte-identical episodes.

    Push events in trace order with :meth:`push`; each completed
    episode goes to the ``on_episode`` callback, so only the
    open-episode state is retained — O(1) per timer.  ``open_count`` is
    a one-element list shared by the builders of one router: each adds
    one when it arms and takes one away when it closes, so the cell
    holds how many of them have an episode open.  Call :meth:`finish`
    once at end of stream to close a still-armed episode as UNRESOLVED.
    """

    __slots__ = ("os_name", "on_episode", "open_count",
                 "_armed_at", "_armed_value", "_last_end", "_quantize")

    def __init__(self, os_name: str, on_episode, open_count: list[int]):
        self.os_name = os_name
        self.on_episode = on_episode
        self.open_count = open_count
        self._armed_at: Optional[int] = None
        self._armed_value = 0
        self._last_end: Optional[int] = None
        self._quantize = quantizes_to_jiffies(os_name)

    def _close(self, outcome: Outcome, ended_at: Optional[int]) -> None:
        armed_at = self._armed_at
        gap = None
        if self._last_end is not None and armed_at is not None:
            gap = armed_at - self._last_end
        self.on_episode(Episode(armed_at, self._armed_value, outcome,
                                ended_at, gap))
        self._last_end = ended_at if ended_at is not None else armed_at
        self._armed_at = None
        self.open_count[0] -= 1

    def push(self, event) -> None:
        # Tuple subscripts over the TimerEvent NamedTuple: this runs
        # once per event in the streaming router's hot path.
        kind = event[0]
        if kind is _SET:
            if self._armed_at is not None:
                self._close(Outcome.REARMED, event[1])
            self._armed_at = event[1]
            self.open_count[0] += 1
            timeout = event[7] or 0            # timeout_ns
            if timeout > 0 and self._quantize and event[5] != "user":
                timeout = -(-timeout // JIFFY) * JIFFY
            self._armed_value = timeout
        elif kind is _EXPIRE:
            if self._armed_at is not None:
                self._close(Outcome.EXPIRED, event[1])
        elif kind is _CANCEL:
            # Cancels of an inactive timer carry expires_ns=None and do
            # not end an episode (they are the "repeated deletions").
            if self._armed_at is not None and event[8] is not None:
                self._close(Outcome.CANCELED, event[1])
        elif kind is _WAIT_UNBLOCK:
            # Self-contained: expires_ns holds the block timestamp.
            if event[7] is None:
                return
            if self._armed_at is None:
                self.open_count[0] += 1        # _close takes it back
            self._armed_at = event[8]
            self._armed_value = event[7]
            satisfied = bool(event[9] & FLAG_WAIT_SATISFIED)
            self._close(Outcome.CANCELED if satisfied else Outcome.EXPIRED,
                        event[1])

    def finish(self) -> None:
        if self._armed_at is not None:
            self._close(Outcome.UNRESOLVED, None)


def extract_episodes(history: TimerHistory, os_name: str) -> list[Episode]:
    """Walk one timer's events and produce its episode list.

    This is :class:`EpisodeBuilder`'s state machine inlined with local
    state — the batch path walks millions of events per study, and the
    per-event method dispatch of ``push`` was its dominant cost.  The
    streaming reducers keep using the builder; the differential tests
    in ``tests/core`` pin the two paths to identical output.
    """
    SET = EventKind.SET
    EXPIRE = EventKind.EXPIRE
    CANCEL = EventKind.CANCEL
    WAIT_UNBLOCK = EventKind.WAIT_UNBLOCK
    REARMED = Outcome.REARMED
    EXPIRED = Outcome.EXPIRED
    CANCELED = Outcome.CANCELED
    quantize = quantizes_to_jiffies(os_name)

    episodes: list[Episode] = []
    append = episodes.append
    armed_at = None
    armed_value = 0
    last_end = None
    # One C-level unpack of the event tuple per iteration replaces the
    # per-field attribute lookups this loop used to pay; episodes are
    # built through tuple.__new__ directly, skipping the generated
    # NamedTuple __new__ wrapper (all five fields always supplied).
    E = Episode
    new = tuple.__new__
    for (kind, ts, _tid, _pid, _comm, domain, _site,
         timeout_ns, expires_ns, flags, _host, _cpu) in history.events:
        if kind is SET:
            if armed_at is not None:
                gap = None if last_end is None else armed_at - last_end
                append(new(E, (armed_at, armed_value, REARMED, ts, gap)))
                last_end = ts
            armed_at = ts
            timeout = timeout_ns or 0
            if timeout > 0 and quantize and domain != "user":
                timeout = -(-timeout // JIFFY) * JIFFY
            armed_value = timeout
        elif kind is EXPIRE:
            if armed_at is not None:
                gap = None if last_end is None else armed_at - last_end
                append(new(E, (armed_at, armed_value, EXPIRED, ts, gap)))
                last_end = ts
                armed_at = None
        elif kind is CANCEL:
            if armed_at is not None and expires_ns is not None:
                gap = None if last_end is None else armed_at - last_end
                append(new(E, (armed_at, armed_value, CANCELED, ts,
                               gap)))
                last_end = ts
                armed_at = None
        elif kind is WAIT_UNBLOCK:
            if timeout_ns is None:
                continue
            armed_at = expires_ns
            armed_value = timeout_ns
            gap = None if last_end is None else armed_at - last_end
            outcome = CANCELED if flags & FLAG_WAIT_SATISFIED \
                else EXPIRED
            append(new(E, (armed_at, armed_value, outcome, ts, gap)))
            last_end = ts
            armed_at = None
    if armed_at is not None:
        gap = None if last_end is None else armed_at - last_end
        append(new(E, (armed_at, armed_value, Outcome.UNRESOLVED,
                       None, gap)))
    return episodes


def dominant_value(episodes: list[Episode],
                   tolerance_ns: int = DEFAULT_TOLERANCE_NS
                   ) -> tuple[Optional[int], float]:
    """Most common set value and the fraction of episodes using it.

    Values within the tolerance of each other are pooled, mirroring the
    paper's jitter allowance.
    """
    if not episodes:
        return None, 0.0
    buckets = ValueBuckets(tolerance_ns)
    for ep in episodes:
        buckets.add(ep.value_ns)
    center, count = buckets.dominant()
    return center, count / len(episodes)
