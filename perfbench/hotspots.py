"""Scaling probe for the three superlinear hot spots named in
``perfbench/README.md``.

Runs one traced pass of ``farm-stream`` and ``farm-batch`` at several
connection counts and prints, per size, the records emitted and the
cost per record or per call of the code a fix should speed up.  Flat
cost means linear scaling; rising cost is the hot spot.

    python3 perfbench/hotspots.py

Not part of a benchmark run: it takes a few minutes and reports no
result line.
"""

from __future__ import annotations

import copy
import cProfile
import gc
import os
import pstats
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for path in (ROOT, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.layers import LayerMap, hotspot_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, SpanRecorder  # noqa: E402

SEED = 1
#: Connection counts around and above the benchmark's own sizes.
STREAM_SIZES = (10_000, 20_000, 40_000)
BATCH_SIZES = (1_000, 1_500, 2_000)


def traced(name: str, connections: int, workdir: str):
    workload = copy.copy(WORKLOADS[name])
    workload.params = dict(workload.params, connections=connections)
    if "farms" in workload.params:
        # One farm of the given size at SEED, so the sizes compare.
        workload.params["farms"] = 1
    rec = SpanRecorder()
    rec.profiler = cProfile.Profile()
    gc.collect()
    out = workload.run_pass(SEED, workdir, rec)
    if out.problems:
        raise SystemExit(f"{name} at {connections}: {out.problems}")
    stats = pstats.Stats(rec.profiler)
    return out.counts["tracing.records"], hotspot_metrics(stats), \
        LayerMap(SRC).self_times(stats)


def per_record_us(seconds: float, records: int) -> str:
    return f"{seconds / records * 1e6:8.1f}"


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="hotspots-",
                               dir=os.path.join(ROOT, ".perfbench"))
    try:
        # Warm-up: the first pass in a process pays one-off costs.
        traced("farm-stream", STREAM_SIZES[0], workdir)
        print("farm-stream: core.streaming self time per record; "
              "EpisodeRouter.open_episodes calls and cumulative us per "
              "call; TimerWheel.remove calls and cumulative us per call")
        print(f"{'conns':>7} {'records':>9} {'us/rec':>8} "
              f"{'open_eps':>8} {'us/call':>9} {'removes':>8} "
              f"{'us/call':>8}")
        for conns in STREAM_SIZES:
            records, hot, layers = traced("farm-stream", conns, workdir)
            print(f"{conns:>7} {records:>9} "
                  f"{per_record_us(layers['core.streaming'], records)} "
                  f"{hot['core.streaming.open_episodes_calls']:>8} "
                  f"{hot['core.streaming.us_per_open_episodes']:9.1f} "
                  f"{hot['linuxkern.wheel.removes']:>8} "
                  f"{hot['linuxkern.wheel.us_per_remove']:8.3f}",
                  flush=True)
        print("farm-batch: core.nesting self time per record; (outer, "
              "inner) pairs the pair loop examines, and per record")
        print(f"{'conns':>7} {'records':>9} {'us/rec':>8} {'pairs':>9} "
              f"{'pairs/rec':>9}")
        for conns in BATCH_SIZES:
            records, hot, layers = traced("farm-batch", conns, workdir)
            pairs = hot["core.nesting.pairs"]
            print(f"{conns:>7} {records:>9} "
                  f"{per_record_us(layers['core.nesting'], records)} "
                  f"{pairs:>9} {pairs / records:9.1f}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
