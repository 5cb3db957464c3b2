"""The benchmark's four workloads, each one pass of a user-visible path.

A pass drives only public entry points of ``repro``: ``Machine`` /
``Cluster`` with ``scene`` and ``finish``, ``run_workload``,
``StreamingSuite``, ``write_trace``, ``open_trace`` and
``render_analysis``.  Every public call on the measured path is timed
as one stage span; what the benchmark does to check the outputs
(digests, event counts, metric collection) happens after the pass and
is not timed.

``repro`` is imported lazily, inside the pass functions, so that the
set-up measurement in :mod:`perfbench.run` sees the import cost and
this module can be imported without the package on the path.
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import contextmanager
from time import perf_counter

SECOND_NS = 1_000_000_000
MINUTE_NS = 60 * SECOND_NS

#: The paper's traces: both OSes x the four Section 3 workloads, plus
#: the Figure 1 Vista desktop (see ``Paper.params``).
PAPER_TRACES = [(os_name, name)
                for os_name in ("linux", "vista")
                for name in ("idle", "skype", "firefox", "webserver")]

#: The stages of a pass, from the first simulated event to the rendered
#: analysis.  ``build`` (constructing the ``Machine``/``Cluster`` and
#: its scene) is timed too but is set-up, not pass time.
STAGES = ("simulate", "save", "load", "analyze", "stream_finish")
BUILD = "build"


class SpanRecorder:
    """In-memory stage spans, written out once at the end of a run.

    With ``profiler`` set (a :class:`cProfile.Profile`), the profiler
    runs inside each pass-stage span and nowhere else, so a traced pass
    profiles exactly the stage calls: not the build, not the checks
    between them.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.pass_id = 0
        self.profiler = None

    @contextmanager
    def span(self, stage: str):
        profiler = self.profiler if stage != BUILD else None
        start = perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            yield
        finally:
            if profiler is not None:
                profiler.disable()
            self.spans.append({"pass": self.pass_id, "stage": stage,
                               "start": start, "end": perf_counter()})

    def stage_seconds(self, pass_id: int) -> dict[str, float]:
        totals = dict.fromkeys(STAGES + (BUILD,), 0.0)
        for span in self.spans:
            if span["pass"] == pass_id:
                totals[span["stage"]] += span["end"] - span["start"]
        return totals


COUNTS = ("sim.dispatched", "sim.scheduled", "sim.queue_depth_peak",
          "sim.sched.cascaded_timers", "sim.sched.compactions",
          "tracing.records", "tracing.dropped", "tracing.bytes",
          "core.streaming.peak_state")

#: Engine series every host of a cluster reports for the one engine
#: they share, so each run contributes them once.
_ENGINE_SERIES = {
    "sim.dispatched": "repro_engine_events_dispatched_total",
    "sim.scheduled": "repro_engine_events_scheduled_total",
    "sim.sched.cascaded_timers": "repro_engine_sched_cascaded_timers_total",
    "sim.sched.compactions": "repro_engine_sched_compactions_total",
}


def _series(snapshot, name: str) -> list:
    return [sample.value for sample in snapshot.filter(name)]


class PassOutput:
    """Checks one pass's outputs as they are produced.

    Each finished trace is folded in right away (counts, digests,
    record-count check) so that a pass holds one trace at a time, as
    the CLI does.  Nothing here runs inside a stage span.
    """

    def __init__(self) -> None:
        self.counts = dict.fromkeys(COUNTS, 0)
        self.problems: list[str] = []
        self._trace = hashlib.sha256()
        self._files = 0
        self._analysis = hashlib.sha256()

    def add(self, run, text: str, path: str | None = None,
            loaded=None, streamed: int | None = None) -> None:
        snap = run.metrics()
        counts = self.counts
        for key, series in _ENGINE_SERIES.items():
            counts[key] += int(max(_series(snap, series)))
        counts["sim.queue_depth_peak"] = max(
            counts["sim.queue_depth_peak"],
            int(max(_series(snap, "repro_engine_queue_depth_peak"))))
        emitted = int(sum(_series(snap, "repro_sink_records_total")))
        dropped = int(sum(_series(snap, "repro_sink_dropped_total")))
        if streamed is not None:
            emitted += streamed
        counts["tracing.records"] += emitted
        counts["tracing.dropped"] += dropped
        if dropped:
            self.problems.append(f"{run.trace.workload}: {dropped} "
                                 f"records dropped")
        if path is not None:
            counts["tracing.bytes"] += os.path.getsize(path)
            with open(path, "rb") as fh:
                self._trace.update(hashlib.sha256(fh.read()).digest())
            self._files += 1
            if len(loaded) != emitted:
                self.problems.append(
                    f"{os.path.basename(path)}: loaded {len(loaded)} "
                    f"records, emitted {emitted}")
            os.remove(path)
        self._analysis.update(hashlib.sha256(text.encode()).digest())

    def digests(self) -> dict[str, str]:
        """sha256 over the trace files' bytes and the analysis texts."""
        return {"trace": self._trace.hexdigest() if self._files
                else "none (no trace file)",
                "analysis": self._analysis.hexdigest()}


class Workload:
    """One named workload: fixed parameters and a pass function."""

    name = ""
    params: dict = {}

    def run_pass(self, seed: int, workdir: str,
                 rec: SpanRecorder) -> PassOutput:
        raise NotImplementedError


def _save_load_analyze(rec: SpanRecorder, out: PassOutput, run,
                       path: str) -> None:
    from repro import render_analysis
    from repro.tracing import open_trace, write_trace
    with rec.span("save"):
        write_trace(run.trace, path)
    with rec.span("load"):
        loaded = open_trace(path)
    with rec.span("analyze"):
        text = render_analysis(loaded)
    out.add(run, text, path, loaded)


class Paper(Workload):
    name = "paper"
    # The desktop is short because its record count swings with the
    # seed (32 000 to 58 000 at 0.3 virtual min) where the other
    # traces' counts hardly move.
    params = {"traces": [f"{o}/{w}" for o, w in PAPER_TRACES]
              + ["vista/desktop"],
              "virtual_minutes": 0.3, "desktop_virtual_minutes": 0.1,
              "format": "binfmt2"}

    def run_pass(self, seed, workdir, rec):
        from repro import run_workload
        p = self.params
        out = PassOutput()
        duration = int(p["virtual_minutes"] * MINUTE_NS)
        jobs = [(o, w, duration) for o, w in PAPER_TRACES]
        jobs.append(("vista", "desktop",
                     int(p["desktop_virtual_minutes"] * MINUTE_NS)))
        for i, (os_name, name, length) in enumerate(jobs):
            with rec.span("simulate"):
                run = run_workload(os_name, name, length, seed=seed)
            _save_load_analyze(rec, out, run,
                               os.path.join(workdir, f"paper{i}.bin"))
        return out


class FarmStream(Workload):
    name = "farm-stream"
    params = {"os": "linux", "scene": "serverfarm", "connections": 20_000,
              "virtual_seconds": 2.0, "retain_events": False}

    def run_pass(self, seed, workdir, rec):
        from repro import Machine, StreamingSuite, render_analysis
        from repro.core.streaming import ProgressSink
        p = self.params
        with rec.span(BUILD):
            suite = StreamingSuite(p["os"], p["scene"])
            # The run --stream path attaches a progress counter too;
            # its count is the emitted-record total the checks use.
            progress = ProgressSink(stream=io.StringIO())
            machine = Machine(p["os"], seed=seed, sinks=[suite, progress],
                              retain_events=p["retain_events"])
            machine.scene(p["scene"], connections=p["connections"])
        out = PassOutput()
        with rec.span("simulate"):
            run = machine.finish(p["scene"],
                                 int(p["virtual_seconds"] * SECOND_NS))
        with rec.span("stream_finish"):
            suite.finish(run.trace.duration_ns)
        with rec.span("analyze"):
            text = render_analysis(suite)
        progress.finish(run.trace.duration_ns)
        if suite.n_events != progress.n_events:
            out.problems.append(
                f"streaming suite saw {suite.n_events} records, kernel "
                f"emitted {progress.n_events}")
        out.add(run, text, streamed=progress.n_events)
        out.counts["core.streaming.peak_state"] = suite.peak_state
        return out


def sub_seeds(seed: int, count: int) -> list[int]:
    """``count`` machine seeds drawn from one benchmark seed, the first
    being the seed itself.  A pass over several farms costs close to
    the mean over seeds, where one farm's nesting cost swings by half
    with how its timers fall on pids."""
    return [seed + 1000 * k for k in range(count)]


class FarmBatch(Workload):
    name = "farm-batch"
    params = {"os": "linux", "scene": "serverfarm", "connections": 400,
              "farms": 8, "virtual_seconds": 3.0, "format": "binfmt2"}

    def run_pass(self, seed, workdir, rec):
        from repro import Machine
        p = self.params
        out = PassOutput()
        for k, farm_seed in enumerate(sub_seeds(seed, p["farms"])):
            with rec.span(BUILD):
                machine = Machine(p["os"], seed=farm_seed)
                machine.scene(p["scene"], connections=p["connections"])
            with rec.span("simulate"):
                run = machine.finish(p["scene"],
                                     int(p["virtual_seconds"] * SECOND_NS))
            _save_load_analyze(rec, out, run,
                               os.path.join(workdir, f"farm-batch{k}.bin"))
        return out


class ClusterFarm(Workload):
    name = "cluster"
    params = {"os": "vista", "scene": "serverfarm", "hosts": 2, "cpus": 2,
              "connections_per_host": 3_000, "virtual_seconds": 4.0,
              "format": "binfmt2 v3"}

    def run_pass(self, seed, workdir, rec):
        from repro.kern import Cluster
        p = self.params
        with rec.span(BUILD):
            cluster = Cluster(p["os"], hosts=p["hosts"], cpus=p["cpus"],
                              seed=seed)
            cluster.scene(p["scene"],
                          connections=p["connections_per_host"])
        out = PassOutput()
        with rec.span("simulate"):
            run = cluster.finish(p["scene"],
                                 int(p["virtual_seconds"] * SECOND_NS))
        _save_load_analyze(rec, out, run,
                           os.path.join(workdir, "cluster.bin"))
        return out


WORKLOADS = {w.name: w for w in (Paper(), FarmStream(), FarmBatch(),
                                 ClusterFarm())}
