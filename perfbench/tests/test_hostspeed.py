"""Host-speed scaling: sample windows, speeds and scaled pass times.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import time

import pytest

from perfbench.hostspeed import REFERENCE_S, Sampler, speed
from perfbench.run import scale_passes
from perfbench.workloads import SpanRecorder


def sampler_with(samples):
    sampler = Sampler()
    for start, seconds in samples:
        sampler.starts.append(start)
        sampler.seconds.append(seconds)
    return sampler


def test_window_excludes_sampling_time_and_keeps_its_samples():
    sampler = sampler_with([(0.5, 0.001), (1.5, 0.002), (2.5, 0.004)])
    busy, taken = sampler.window(1.0, 3.0)
    assert taken == [0.002, 0.004]
    assert busy == pytest.approx(2.0 - 0.006)


def test_speed_is_mean_reference_over_sample_time():
    assert speed([]) is None
    assert speed([REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(0.75)


def test_scaling_undoes_a_uniform_slowdown():
    """A pass that ran at half speed scales back to half its seconds;
    a span without samples takes its pass's speed."""
    rec = SpanRecorder()
    rec.spans = [
        {"pass": 0, "stage": "build", "start": 0.0, "end": 0.4},
        {"pass": 0, "stage": "simulate", "start": 1.0, "end": 3.0},
        {"pass": 0, "stage": "analyze", "start": 3.0, "end": 3.005},
    ]
    slow = 2 * REFERENCE_S
    sampler = sampler_with([(0.1, slow)] + [(1.0 + 0.1 * i, slow)
                                            for i in range(20)])
    result = {"pass": 0}
    run_speed = scale_passes([result], rec, sampler)
    assert run_speed == pytest.approx(0.5)
    sampled = 20 * slow
    assert result["busy"]["simulate"] == pytest.approx(2.0 - sampled)
    assert result["scaled"]["simulate"] == pytest.approx(
        (2.0 - sampled) / 2)
    assert result["scaled"]["analyze"] == pytest.approx(0.005 / 2)
    assert result["scaled"]["build"] == pytest.approx((0.4 - slow) / 2)


def test_sampler_samples_while_running_and_stops():
    sampler = Sampler(interval=0.005)
    with sampler.running():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    taken = len(sampler.seconds)
    assert taken >= 5
    assert all(seconds > 0 for seconds in sampler.seconds)
    time.sleep(0.02)
    assert len(sampler.seconds) == taken
