"""Differential test: the dict-bucket wheel against a list-bucket model.

``TimerWheel`` keeps each bucket as an insertion-ordered dict so that
``remove`` is O(1).  The reference below is the straightforward list
version (``list.remove``, drain by ``pop(0)``), whose firing order is
the kernel's: within a jiffy, timers fire in the order they were
queued, and a timer queued for the current jiffy by a callback fires in
the same pass.  Random scripts drive both with callbacks that delete a
timer queued behind them, re-add into the current jiffy, re-arm other
timers, and re-add far enough out to cascade across ``tv2`` wraps.
"""

import random

import pytest

from repro.linuxkern.wheel import (MAX_TVAL, TVN_BITS, TVN_MASK, TVN_SIZE,
                                   TVR_BITS, TVR_MASK, TVR_SIZE, TimerWheel,
                                   WheelTimer)


class ListTimer:
    __slots__ = ("expires", "_bucket")

    def __init__(self):
        self.expires = 0
        self._bucket = None

    @property
    def pending(self):
        return self._bucket is not None


class ListBucketWheel:
    """Five-level cascading wheel with plain list buckets."""

    def __init__(self):
        self.timer_jiffies = 0
        self.tv1 = [[] for _ in range(TVR_SIZE)]
        self.tvn = [[[] for _ in range(TVN_SIZE)] for _ in range(4)]
        self.pending_count = 0

    def _bucket_for(self, expires):
        idx = expires - self.timer_jiffies
        if idx < 0:
            return self.tv1[self.timer_jiffies & TVR_MASK]
        if idx < TVR_SIZE:
            return self.tv1[expires & TVR_MASK]
        for level in range(4):
            shift = TVR_BITS + (level + 1) * TVN_BITS
            if idx < (1 << shift):
                return self.tvn[level][(expires >> (shift - TVN_BITS))
                                       & TVN_MASK]
        expires = self.timer_jiffies + MAX_TVAL
        return self.tvn[3][(expires >> (TVR_BITS + 3 * TVN_BITS))
                           & TVN_MASK]

    def add(self, timer, expires):
        assert timer._bucket is None
        timer.expires = expires
        bucket = self._bucket_for(expires)
        bucket.append(timer)
        timer._bucket = bucket
        self.pending_count += 1

    def remove(self, timer):
        if timer._bucket is None:
            return False
        timer._bucket.remove(timer)
        timer._bucket = None
        self.pending_count -= 1
        return True

    def _cascade(self, level, slot):
        bucket = self.tvn[level][slot]
        moved = bucket[:]
        bucket.clear()
        for timer in moved:
            timer._bucket = None
            self.pending_count -= 1
            self.add(timer, timer.expires)

    def run_timers(self, now_jiffies, fire):
        while self.timer_jiffies <= now_jiffies:
            index = self.timer_jiffies & TVR_MASK
            if index == 0:
                for level in range(4):
                    slot = (self.timer_jiffies
                            >> (TVR_BITS + level * TVN_BITS)) & TVN_MASK
                    self._cascade(level, slot)
                    if slot != 0:
                        break
            bucket = self.tv1[index]
            while bucket:
                timer = bucket.pop(0)
                timer._bucket = None
                self.pending_count -= 1
                fire(timer)
            self.timer_jiffies += 1

    def occupancy(self):
        return (sum(len(b) for b in self.tv1),) + tuple(
            sum(len(b) for b in level) for level in self.tvn)


def drive(wheel, timers, seed, log):
    """Run one random script on ``wheel``; append every firing (jiffy,
    timer index) and a per-step occupancy snapshot to ``log``."""
    rng = random.Random(seed)
    index_of = {id(t): i for i, t in enumerate(timers)}
    fire_counts = [0] * len(timers)

    def due_pending():
        return [i for i, t in enumerate(timers)
                if t.pending and t.expires <= wheel.timer_jiffies]

    def fire(timer):
        i = index_of[id(timer)]
        now = wheel.timer_jiffies
        log.append(("fire", now, i))
        fire_counts[i] += 1
        # The callback's choices depend only on (seed, timer, firing),
        # so both wheels take the same ones while they agree.
        choice = random.Random(seed * 1_000_003 + i * 1009
                               + fire_counts[i])
        action = choice.random()
        if action < 0.2:
            # Delete a timer still queued behind this one.
            later = due_pending()
            if later:
                wheel.remove(timers[choice.choice(later)])
        elif action < 0.35 and fire_counts[i] < 4:
            wheel.add(timer, now)                       # current jiffy
        elif action < 0.45:
            wheel.add(timer, now - choice.randrange(1, 5))  # in the past
        elif action < 0.6:
            wheel.add(timer, now + choice.randrange(1, 20_000))
        elif action < 0.7:
            # Re-arm another timer (mod_timer: remove, then add).
            other = timers[choice.randrange(len(timers))]
            if other is not timer:
                wheel.remove(other)
                wheel.add(other, now + choice.randrange(0, 300))

    for i, timer in enumerate(timers):
        wheel.add(timer, rng.randrange(0, 3) * 16_384
                  + rng.randrange(0, 600))
    horizon = 0
    while horizon < 70_000:
        horizon += rng.randrange(1, 2_000)
        for _ in range(rng.randrange(0, 4)):
            timer = timers[rng.randrange(len(timers))]
            if rng.random() < 0.5:
                wheel.remove(timer)
            elif not timer.pending:
                wheel.add(timer, wheel.timer_jiffies
                          + rng.randrange(0, 40_000))
        wheel.run_timers(horizon, fire)
        log.append(("step", wheel.timer_jiffies, wheel.occupancy(),
                    wheel.pending_count))


@pytest.mark.parametrize("seed", range(12))
def test_dict_buckets_fire_like_list_buckets(seed):
    n = 40
    got, want = [], []
    drive(TimerWheel(), [WheelTimer() for _ in range(n)], seed, got)
    drive(ListBucketWheel(), [ListTimer() for _ in range(n)], seed, want)
    assert sum(entry[0] == "fire" for entry in want) > 50
    assert got == want


def test_callback_removing_later_timer_in_same_bucket():
    wheel = TimerWheel()
    a, b, c = WheelTimer(), WheelTimer(), WheelTimer()
    for timer in (a, b, c):
        wheel.add(timer, 5)
    fired = []

    def fire(timer):
        fired.append(timer)
        if fired == [a]:
            wheel.remove(b)
            wheel.add(a, wheel.timer_jiffies)   # fires again this pass

    wheel.run_timers(5, fire)
    assert fired == [a, c, a]
    assert wheel.pending_count == 0
    assert wheel.occupancy() == (0, 0, 0, 0, 0)
