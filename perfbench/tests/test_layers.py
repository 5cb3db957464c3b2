"""The layer map covers ``src/repro`` exactly once, and profiled self
time is conserved when it is charged to layers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import cProfile
import os
import pstats
import sys

import pytest

from perfbench.layers import (LAYERS, LayerMap, find, matching_layers,
                              repro_modules)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = repro_modules(SRC)
    assert "repro.linuxkern.wheel" in modules
    assert "repro.linuxkern.subsystems.net" in modules
    unmapped = [m for m in modules if not matching_layers(m)]
    ambiguous = {m: matching_layers(m) for m in modules
                 if len(matching_layers(m)) > 1}
    assert unmapped == [], f"modules with no layer: {unmapped}"
    assert ambiguous == {}, f"modules in several layers: {ambiguous}"


def test_layer_rules_name_only_existing_modules():
    from perfbench.layers import LAYER_RULES
    modules = set(repro_modules(SRC))
    named = [name for exact, packages in LAYER_RULES.values()
             for name in exact + packages]
    assert sorted(set(named) - modules) == []


@pytest.fixture(scope="module")
def traced_stats(tmp_path_factory):
    from repro import render_analysis, run_workload
    from repro.tracing import open_trace, write_trace

    profiler = cProfile.Profile()
    profiler.enable()
    run = run_workload("linux", "webserver", 3_000_000_000, seed=3)
    path = tmp_path_factory.mktemp("layers") / "webserver.bin"
    try:
        write_trace(run.trace, path)
        render_analysis(open_trace(path))
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


def test_layer_self_times_sum_to_profiled_total(traced_stats):
    self_times = LayerMap(SRC).self_times(traced_stats)
    assert set(self_times) == set(LAYERS)
    assert all(t >= 0 for t in self_times.values())
    assert sum(self_times.values()) == pytest.approx(
        traced_stats.total_tt, rel=1e-9, abs=1e-9)


def test_builtin_time_is_charged_to_its_callers_layer(traced_stats):
    self_times = LayerMap(SRC).self_times(traced_stats)
    # A Linux run exercises the wheel, and list.remove inside
    # TimerWheel.remove is a builtin charged back to it.
    remove = find(traced_stats, os.path.join("linuxkern", "wheel.py"),
                  "remove")
    assert remove is not None and remove[1] > 0
    assert self_times["linuxkern.wheel"] >= remove[2]
    # Foreign time only stays in "other" when no repro frame called it.
    assert self_times["other"] < 0.5 * sum(self_times.values())
