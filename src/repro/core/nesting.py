"""Inferring nested timeouts from traces (Section 5.2's provenance,
recovered after the fact).

"Common idioms we have seen in GUI programming suggest that timeouts
are frequently nested — operations that time out at one layer are
retried until a higher-level, enclosing timeout fires."  Without
explicit provenance, nesting can still be *inferred* from a trace:
timer B is (probably) nested inside timer A when B's armed episodes
are repeatedly contained within A's episodes on the same process, with
A armed first and outliving B.

The inference feeds the Section 5.2 optimisations: a confirmed nested
pair whose inner timeout exceeds the enclosing remaining time is a
candidate for elision (see :class:`repro.core.interfaces.ScopedTimeout`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Tuple

from .episodes import Episode
from .index import as_index

try:                     # optional accelerator, never required: the
    import numpy as _np  # pure-python paths below are the reference
except ImportError:      # and produce identical output.
    _np = None


@dataclass
class NestedPair:
    """Evidence that ``inner`` timers run inside ``outer`` timers."""

    outer_site: Tuple[str, ...]
    inner_site: Tuple[str, ...]
    pid: int
    #: How many inner episodes were contained in some outer episode.
    support: int
    #: Fraction of all inner episodes that were contained.
    containment: float
    #: How many contained inner episodes could never have fired first
    #: (inner deadline at or after the enclosing deadline): the
    #: elision opportunity of Section 5.4.
    elidable: int

    def __str__(self) -> str:
        return (f"{'/'.join(self.inner_site[-1:])} nested in "
                f"{'/'.join(self.outer_site[-1:])} "
                f"(pid {self.pid}, support {self.support}, "
                f"containment {self.containment:.0%}, "
                f"{self.elidable} elidable)")


def _resolved_intervals(episodes: list[Episode]
                        ) -> list[tuple[int, int, int]]:
    """(start, end, deadline) for each completed episode."""
    return [(set_at, ended_at, set_at + value_ns)
            for set_at, value_ns, _outcome, ended_at, _gap in episodes
            if ended_at is not None]


class _TimerIntervals:
    """One timer's resolved episodes plus the search structures the
    pairwise containment test needs.

    Containment asks, per inner episode, for the *first* (in episode
    order) outer episode with ``o_start <= i_start`` and
    ``i_end <= o_end``.  The first episode whose end reaches ``i_end``
    is always a running-maximum *record* of the ends sequence (an
    earlier episode with a greater-or-equal end would match first), and
    the records' ends are strictly increasing — so a single ``bisect``
    over the record ends answers each query in O(log n).  The start
    constraint then reduces to one comparison because starts are
    chronological for almost every timer; unsorted starts (mixed
    SET/WAIT clusters) fall back to the plain first-match scan.
    Results are identical to the brute-force pairwise scan either way.

    As an inner, the timer needs ``needed`` contained episodes (see
    :func:`_support_floor`).  An outer can contain an episode only if
    it is armed by the episode's start and lives to its end, so it can
    reach ``needed`` only when its earliest start is at most the
    ``needed``-th latest start (``start_cap``) and its latest end at
    least the ``needed``-th earliest end (``end_floor``).  Every pair
    outside that envelope is rejected before any containment test.
    """

    __slots__ = ("site", "intervals", "starts", "sorted_starts",
                 "min_start", "max_start", "min_end", "max_end",
                 "record_ends", "record_at", "needed", "start_cap",
                 "end_floor", "_columns")

    def __init__(self, site, intervals: list[tuple[int, int, int]],
                 needed: int):
        self.site = site
        self.intervals = intervals
        self.needed = needed
        starts = [iv[0] for iv in intervals]
        self.starts = starts
        self.sorted_starts = all(a <= b for a, b in
                                 zip(starts, starts[1:]))
        self.min_start = min(starts)
        self.max_start = max(starts)
        ends = [iv[1] for iv in intervals]
        self.min_end = min(ends)
        record_ends: list[int] = []
        record_at: list[int] = []
        peak = -1
        for j, (_start, end, _deadline) in enumerate(intervals):
            if end > peak:
                peak = end
                record_ends.append(end)
                record_at.append(j)
        self.max_end = peak
        self.record_ends = record_ends
        self.record_at = record_at
        if 0 < needed <= len(intervals):
            ends.sort()
            self.start_cap = (starts if self.sorted_starts
                              else sorted(starts))[len(starts) - needed]
            self.end_floor = ends[needed - 1]
        else:
            # A zero floor keeps every pair whose envelopes touch at
            # all; a floor above n never makes this timer an inner.
            self.start_cap, self.end_floor = self.max_start, self.min_end
        self._columns = None

    def columns(self):
        """(starts, ends, deadlines) int64 columns in episode order,
        built lazily for the vectorised containment tally."""
        cols = self._columns
        if cols is None:
            # One C pass over the (start, end, deadline) tuples beats
            # three per-element generator fromiters.
            arr = _np.array(self.intervals, dtype=_np.int64)
            cols = self._columns = (arr[:, 0], arr[:, 1], arr[:, 2])
        return cols

    def first_containing(self, i_start: int, i_end: int
                         ) -> Optional[tuple[int, int, int]]:
        """First episode containing [i_start, i_end] (an identical
        interval does not count as containing itself)."""
        intervals = self.intervals
        if self.sorted_starts:
            record_ends = self.record_ends
            k = bisect_left(record_ends, i_end)
            if k == len(record_ends):
                return None
            j = self.record_at[k]
            candidate = intervals[j]
            # Sorted starts make "index < bisect(starts, i_start)"
            # equivalent to this one comparison.
            if candidate[0] > i_start:
                return None
            if candidate[0] != i_start or candidate[1] != i_end:
                return candidate
            # Rare: the first match is the identical interval (another
            # timer armed and ended at exactly the same instants).
            # Fall through to the ordered scan past it.
            hi = bisect_right(self.starts, i_start)
            for j2 in range(j + 1, hi):
                candidate = intervals[j2]
                if candidate[1] >= i_end and \
                        (candidate[0] != i_start or candidate[1] != i_end):
                    return candidate
            return None
        for candidate in intervals:
            o_start, o_end, _o_deadline = candidate
            if o_start <= i_start and i_end <= o_end \
                    and (o_start, o_end) != (i_start, i_end):
                return candidate
        return None


_MISS = object()   # memo sentinel: None is a valid cached answer


def _support_floor(n_inner: int, min_support: int,
                   min_containment: float) -> int:
    """The smallest support count that could let a pair with ``n_inner``
    inner episodes qualify — the same float comparison the emission
    check uses, so pruning below this floor can never change output."""
    needed = int(min_containment * n_inner)
    if needed < min_support:
        needed = min_support
    while needed <= n_inner and needed / n_inner < min_containment:
        needed += 1
    return needed


def _batch_first_containing(outer: _TimerIntervals,
                            queries: list[tuple[int, int]]
                            ) -> list[Optional[tuple[int, int, int]]]:
    """Answer :meth:`_TimerIntervals.first_containing` for many queries
    against an unsorted-starts outer in O((n + q) log n) total.

    The first match in episode-list order is the *minimum list index*
    among episodes with ``start <= i_start`` and ``end >= i_end``.
    Sweep queries in ``i_start`` order, admitting episodes as their
    start is passed, and keep a min-index Fenwick tree over the
    (compressed, reversed) episode ends so "min index with end >= Y"
    is a prefix query.
    """
    intervals = outer.intervals
    n = len(intervals)
    # Decorated tuple sorts: the C-level tuple comparison beats a
    # Python key callable per element on these hot, large inputs.
    by_start = sorted((iv[0], j) for j, iv in enumerate(intervals))
    ends_sorted = sorted({iv[1] for iv in intervals})
    end_pos = {end: pos for pos, end in enumerate(ends_sorted)}
    m = len(ends_sorted)
    tree = [n] * (m + 1)    # min-BIT over reversed end positions

    answers: list[Optional[tuple[int, int, int]]] = [None] * len(queries)
    order = sorted((qs, q) for q, (qs, _qe) in enumerate(queries))
    redo_memo: dict = {}    # collision query -> exclusion-aware answer
    ptr = 0
    for _qs, q in order:
        i_start, i_end = queries[q]
        while ptr < n and by_start[ptr][0] <= i_start:
            j = by_start[ptr][1]
            node = m - end_pos[intervals[j][1]]
            while node <= m:
                if tree[node] <= j:
                    # Update-path ranges nest, so every node above
                    # already holds a smaller index: stop early.
                    break
                tree[node] = j
                node += node & -node
            ptr += 1
        kpos = bisect_left(ends_sorted, i_end)
        if kpos == m:
            continue
        node = m - kpos
        best = n
        while node > 0:
            if tree[node] < best:
                best = tree[node]
            node -= node & -node
        if best == n:
            continue
        candidate = intervals[best]
        if candidate[0] == i_start and candidate[1] == i_end:
            # Identical interval: redo this one query with the
            # exclusion-aware linear scan.  Tick quantisation makes the
            # same collision repeat heavily, so memoize per sweep.
            key = (i_start, i_end)
            candidate = redo_memo.get(key, _MISS)
            if candidate is _MISS:
                candidate = redo_memo[key] = \
                    outer.first_containing(i_start, i_end)
        answers[q] = candidate
    return answers


def infer_nesting(source, *, min_support: int = 3,
                  min_containment: float = 0.6,
                  logical: Optional[bool] = None) -> list[NestedPair]:
    """Find nested-timeout pairs in a trace (or pre-built index).

    Containment is strict on the start side (the outer timer must be
    armed first) and inclusive on the end side.  Pairs must share a
    pid: nesting across processes is not meaningful at this level.
    With both thresholds at zero, a pair is reported even with no
    contained episode, provided the two timers' envelopes overlap.
    """
    if min_support < 0:
        raise ValueError(f"min_support must be >= 0, got {min_support}")
    if not 0.0 <= min_containment <= 1.0:     # also rejects NaN
        raise ValueError(f"min_containment must be in [0, 1], "
                         f"got {min_containment!r}")
    index = as_index(source)
    if logical is None:
        logical = index.default_logical
    per_pid: dict[int, list] = {}
    for history, episodes in index.grouped(logical):
        if episodes:
            per_pid.setdefault(history.pid, []).append(
                (history.site, episodes))

    pairs: list[NestedPair] = []
    for pid, timers in per_pid.items():
        prepared = []
        for site, episodes in timers:
            intervals = _resolved_intervals(episodes)
            if intervals:
                prepared.append(_TimerIntervals(
                    site, intervals, _support_floor(
                        len(intervals), min_support, min_containment)))
        inners = [timer for timer in prepared
                  if timer.needed <= len(timer.intervals)]
        for outer in prepared:
            # Pair-level reject: the outer's envelope cannot contain
            # enough of the inner's episodes to qualify.
            o_min_start = outer.min_start
            o_max_end = outer.max_end
            eligible = [inner for inner in inners
                        if inner.site is not outer.site
                        and o_min_start <= inner.start_cap
                        and o_max_end >= inner.end_floor]
            if not eligible:
                continue
            o_intervals = outer.intervals
            record_ends = outer.record_ends
            record_at = outer.record_at
            n_records = len(record_ends)
            tallies: dict[int, tuple[int, int]] = {}
            fc_memo: dict = {}    # (i_start, i_end) -> first_containing
            if outer.sorted_starts:
                if _np is not None:
                    # Vectorised fast path: the record bisect, the
                    # start comparison and the deadline test run as
                    # int64 column operations; only the (rare)
                    # identical-interval collisions fall back to the
                    # exclusion-aware scan.  Identical tallies to the
                    # reference loop below.
                    o_starts_a, o_ends_a, o_deads_a = outer.columns()
                    rec_at_a = _np.fromiter(record_at, _np.intp,
                                            n_records)
                    rec_ends_a = o_ends_a[rec_at_a]
                    rec_starts_a = o_starts_a[rec_at_a]
                    rec_deads_a = o_deads_a[rec_at_a]
                    for idx, inner in enumerate(eligible):
                        starts_a, ends_a, deads_a = inner.columns()
                        k = rec_ends_a.searchsorted(ends_a, side="left")
                        valid = k < n_records
                        kc = _np.where(valid, k, 0)
                        m_start = rec_starts_a[kc]
                        contained = valid & (m_start <= starts_a)
                        identical = contained & (m_start == starts_a) \
                            & (rec_ends_a[kc] == ends_a)
                        plain = contained & ~identical
                        support = int(plain.sum())
                        elidable = int((plain &
                                        (deads_a >= rec_deads_a[kc]))
                                       .sum())
                        if identical.any():
                            # Tick quantisation repeats the same
                            # collision queries across this outer's
                            # inners: resolve each through the
                            # per-outer memo, tallying in plain Python
                            # (tolist hands back machine ints in one C
                            # pass; the rows are unique within one
                            # inner, so np.unique buys nothing here).
                            idxs = _np.nonzero(identical)[0]
                            c_rows = _np.stack(
                                (starts_a[idxs], ends_a[idxs],
                                 deads_a[idxs]), axis=1).tolist()
                            for c_start, c_stop, c_dead in c_rows:
                                q = (c_start, c_stop)
                                match = fc_memo.get(q, _MISS)
                                if match is _MISS:
                                    match = fc_memo[q] = \
                                        outer.first_containing(*q)
                                if match is not None:
                                    support += 1
                                    if c_dead >= match[2]:
                                        elidable += 1
                        tallies[idx] = (support, elidable)
                else:
                    # Inlined reference loop of first_containing (this
                    # double loop dominates the whole analysis battery
                    # on busy traces when numpy is absent).
                    for idx, inner in enumerate(eligible):
                        needed = inner.needed
                        support = elidable = 0
                        remaining = len(inner.intervals)
                        for i_start, i_end, i_deadline in inner.intervals:
                            remaining -= 1
                            k = bisect_left(record_ends, i_end)
                            if k == n_records:
                                if support + remaining < needed:
                                    break
                                continue
                            match = o_intervals[record_at[k]]
                            if match[0] > i_start:
                                if support + remaining < needed:
                                    break
                                continue
                            if match[0] == i_start and match[1] == i_end:
                                # Identical interval: the exclusion-
                                # aware scan, memoized per query (tick
                                # quantisation makes exact collisions
                                # repeat heavily).
                                q = (i_start, i_end)
                                match = fc_memo.get(q, _MISS)
                                if match is _MISS:
                                    match = fc_memo[q] = \
                                        outer.first_containing(i_start,
                                                               i_end)
                                if match is None:
                                    if support + remaining < needed:
                                        break
                                    continue
                            support += 1
                            if i_deadline >= match[2]:
                                elidable += 1
                        tallies[idx] = (support, elidable)
            else:
                # Unsorted starts (interleaved SET/WAIT clusters): one
                # offline sweep answers every inner's queries at once.
                queries = []
                meta = []
                for idx, inner in enumerate(eligible):
                    for i_start, i_end, i_deadline in inner.intervals:
                        queries.append((i_start, i_end))
                        meta.append((idx, i_deadline))
                for (idx, i_deadline), match in zip(
                        meta, _batch_first_containing(outer, queries)):
                    if match is not None:
                        support, elidable = tallies.get(idx, (0, 0))
                        tallies[idx] = (support + 1, elidable +
                                        (1 if i_deadline >= match[2]
                                         else 0))
            for idx, inner in enumerate(eligible):
                support, elidable = tallies.get(idx, (0, 0))
                containment = support / len(inner.intervals)
                if support >= min_support \
                        and containment >= min_containment:
                    pairs.append(NestedPair(outer.site, inner.site,
                                            pid, support, containment,
                                            elidable))
    pairs.sort(key=lambda p: -p.support)
    return pairs


def render_nesting(pairs: list[NestedPair]) -> str:
    if not pairs:
        return "(no nested timeout pairs found)"
    return "\n".join(str(pair) for pair in pairs)
