"""Pipeline benchmark for the timer-study reproduction.

Runs one named workload (or ``all`` of them, one after another) for a
fixed number of seconds as a closed loop with a single client: each
pass starts when the previous one has finished.  Every pass is checked
(digests of the trace bytes and the rendered analysis, loaded versus
emitted record counts, dropped records); a pass that raises or fails a
check counts as failed, not as an abort.

    python3 perfbench/run.py --workload farm-batch --seed 1 \\
        --seconds 28 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with profiling
off; pass and set-up times are host seconds scaled to a quiet host by
the speed :mod:`perfbench.hostspeed` samples while they run.
``--trace 1`` measures the same untraced passes, then profiles
one extra pass with cProfile and reports the per-layer metrics.
Metric names and units come from ``BENCHMARK.json`` at the repository
root; ``perfbench/README.md`` says what each one means.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run
(provenance, parameters, per-pass stage spans, digests) is written to
``--out``, by default under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.hostspeed import Sampler, speed  # noqa: E402
from perfbench.layers import LAYERS, LayerMap, hotspot_metrics  # noqa: E402
from perfbench.workloads import (BUILD, STAGES, WORKLOADS,  # noqa: E402
                                 SpanRecorder)

#: Fresh interpreters timed per run for the import part of set-up.
IMPORT_SAMPLES = 5

#: Untraced passes' worth of time a ``--trace 1`` run keeps for its
#: profiled pass (cProfile makes a pass 2 to 4.5 times slower).
TRACED_PASS_COST = 4.0

_IMPORT_PROBE = """
import json
import sys
from time import perf_counter
sys.path[:0] = sys.argv[1:3]
from perfbench.hostspeed import Sampler
sampler = Sampler()
with sampler.running():
    start = perf_counter()
    import repro
    repro.backend_names()
    end = perf_counter()
print(json.dumps(sampler.window(start, end)))
"""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def require_src() -> None:
    """Exit 2 unless this checkout holds the ``repro`` sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        raise SystemExit(2)


def import_repro():
    """Import the checkout's own ``repro``, not an installed one."""
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        raise SystemExit(2)
    return repro


def import_windows() -> list[list]:
    """Time ``import repro`` plus backend resolution in fresh
    interpreters (bytecode already cached by this process's import),
    each sampling its host speed: ``[seconds, samples]`` per import."""
    windows = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC, ROOT],
            capture_output=True, text=True, check=True, timeout=60)
        windows.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return windows


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, workload) -> dict:
    return {"git_sha": git_sha(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workload": workload.name,
            "params": workload.params}


def run_one_pass(workload, seed, workdir, rec) -> dict:
    """One checked pass; exceptions become a failed pass."""
    gc.collect()
    try:
        out = workload.run_pass(seed, workdir, rec)
    except Exception:
        return {"ok": False, "problems": [traceback.format_exc()]}
    stages = rec.stage_seconds(rec.pass_id)
    return {"ok": not out.problems, "problems": out.problems,
            "wall_s": sum(stages[stage] for stage in STAGES),
            "stages": stages, "counts": out.counts,
            "digests": out.digests()}


def check_against(result: dict, reference: dict | None) -> None:
    if reference is None or result is reference or not result["ok"]:
        return
    for key in ("digests", "counts"):
        if result[key] != reference[key]:
            result["ok"] = False
            result["problems"].append(
                f"{key} differ from pass {reference['pass']}: "
                f"{result[key]} != {reference[key]}")


def measure(workload, seed, deadline, workdir, rec, passes,
            reserve=0.0) -> None:
    """Closed-loop passes, appended to ``passes``, until the next one,
    plus ``reserve`` passes' worth of time kept for what follows, would
    overrun ``deadline`` (at least one pass)."""
    durations = []
    while True:
        rec.pass_id = len(durations)
        began = perf_counter()
        result = run_one_pass(workload, seed, workdir, rec)
        durations.append(perf_counter() - began)
        result["pass"] = rec.pass_id
        passes.append(result)
        if (perf_counter() + (1 + reserve) * statistics.median(durations)
                > deadline):
            return


def peak_probe(workload, seed) -> dict:
    """One checked pass in a fresh interpreter, whose peak resident
    memory is the workload's.

    Linux starts a child's ``ru_maxrss`` at its parent's resident size,
    so this must run while the calling process is still small: before
    it imports ``repro`` or runs a pass.
    """
    began = perf_counter()
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-probe-",
                               dir=STATE_DIR)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           workload.name, "--seed", str(seed), "--peak-probe", workdir]
    problem = None
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            problem = (f"peak probe exited {done.returncode}: "
                       f"{done.stderr[-2000:]}")
        else:
            result = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        problem = "peak probe did not finish within 170 s"
    except ValueError:
        problem = f"peak probe printed no result: {lines[-1][:200]}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problem is not None:
        result = {"ok": False, "problems": [problem]}
    result["pass"] = "rss"
    result["probe_s"] = perf_counter() - began
    return result


def probe_main(args) -> int:
    """Child side of :func:`peak_probe`."""
    import_repro()
    result = run_one_pass(WORKLOADS[args.workload], args.seed,
                          args.peak_probe, SpanRecorder())
    result["peak_rss_kib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


def traced_pass(workload, seed, workdir, rec) -> tuple:
    """One extra pass with cProfile running inside the stage spans."""
    profiler = rec.profiler = cProfile.Profile()
    rec.pass_id = -1
    try:
        result = run_one_pass(workload, seed, workdir, rec)
    finally:
        rec.profiler = None
    result["pass"] = -1
    return result, pstats.Stats(profiler) if result["ok"] else None


def scale_passes(timed, rec, sampler) -> float:
    """Add to each timed pass its stage seconds less sampling time
    (``busy``) and scaled to a quiet host (``scaled``); return the
    run's mean host speed.

    A span is scaled by the mean speed of the samples taken in it; a
    span too short to hold one takes its pass's speed."""
    run_speed = speed(sampler.seconds) or 1.0
    for result in timed:
        spans = [span for span in rec.spans
                 if span["pass"] == result["pass"]]
        windows = [sampler.window(span["start"], span["end"])
                   for span in spans]
        fallback = speed([x for _, taken in windows for x in taken]) \
            or run_speed
        busy = dict.fromkeys(STAGES + (BUILD,), 0.0)
        scaled = dict(busy)
        for span, (seconds, taken) in zip(spans, windows):
            busy[span["stage"]] += seconds
            scaled[span["stage"]] += seconds * (speed(taken) or fallback)
        result["busy"], result["scaled"] = busy, scaled
    return run_speed


def median_stage(good, key, stages) -> float:
    return statistics.median(sum(p[key][stage] for stage in stages)
                             for p in good)


def end_to_end(good, probe, imports, run_speed) -> dict:
    wall = median_stage(good, "scaled", STAGES)
    build = median_stage(good, "scaled", (BUILD,))
    setup_import = statistics.median(
        seconds * (speed(taken) or run_speed) for seconds, taken in imports)
    records = good[0]["counts"]["tracing.records"]
    return {"setup_s": setup_import + build,
            "wall_s": wall,
            "events_per_s": records / wall,
            "peak_rss_mib": probe["peak_rss_kib"] / 1024.0}


def per_layer(good, traced, stats, src_root, run_speed) -> dict:
    metrics = {f"stage.{stage}_s": median_stage(good, "scaled", (stage,))
               for stage in STAGES}
    self_times = LayerMap(src_root).self_times(stats)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_times[layer]
    unscaled = median_stage(good, "busy", STAGES)
    metrics["trace.overhead"] = traced["wall_s"] / unscaled
    metrics["host.speed"] = run_speed
    metrics["host.unscaled_wall_s"] = unscaled
    counts = good[0]["counts"]
    metrics.update(counts)
    metrics.update(hotspot_metrics(stats))
    metrics["sim.us_per_dispatch"] = \
        metrics["stage.simulate_s"] / counts["sim.dispatched"] * 1e6
    return metrics


def bench_workload(workload, args, spec, imports, probe) -> dict:
    """Measure one workload; print its report; return the result.  The
    peak-memory ``probe`` already ran and counts against ``--seconds``."""
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=STATE_DIR)
    rec = SpanRecorder()
    sampler = Sampler()
    stats = None
    passes = [probe]
    try:
        deadline = perf_counter() + args.seconds - probe["probe_s"]
        with sampler.running():
            measure(workload, args.seed, deadline, workdir, rec, passes,
                    reserve=TRACED_PASS_COST if args.trace else 0.0)
        if args.trace:
            traced, stats = traced_pass(workload, args.seed, workdir, rec)
            passes.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every pass must reproduce the first good pass's outputs exactly.
    reference = next((p for p in passes if p["ok"]), None)
    for result in passes:
        check_against(result, reference)
    probe, timed = passes[0], [p for p in passes[1:] if p["pass"] != -1]
    good = [p for p in timed if p["ok"]]
    attempted = len(passes)
    failed = sum(1 for p in passes if not p["ok"])
    for p in passes:
        for problem in p["problems"]:
            print(f"pass {p['pass']} failed: {problem}", file=sys.stderr)

    run_speed = scale_passes(timed, rec, sampler)
    e2e = end_to_end(good, probe, imports, run_speed) \
        if good and probe["ok"] else {}
    traced = passes[-1] if args.trace else None
    layer = per_layer(good, traced, stats, SRC, run_speed) \
        if traced is not None and good and traced["ok"] else {}
    section = "per_layer" if args.trace else "end_to_end"
    computed = layer if args.trace else e2e
    metrics = {}
    if computed:
        named = [entry["name"] for entry in spec[section]]
        if set(named) != set(computed):
            raise SystemExit(
                f"BENCHMARK.json {section} names {sorted(named)}, the "
                f"benchmark computes {sorted(computed)}")
        metrics = {entry["name"]: {"value": computed[entry["name"]],
                                   "unit": entry["unit"]}
                   for entry in spec[section]}

    print(f"workload {workload.name}  seed {args.seed}  "
          f"passes {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:g} ratio")
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']}")
    if reference is not None:
        for name, digest in reference["digests"].items():
            print(f"digest.{name:27s} {digest}")

    why = next(entry["why"] for entry in spec["workloads"]
               if entry["name"] == workload.name)
    record = {"provenance": provenance(args, workload),
              "why": why,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted,
              "imports": [{"seconds": seconds, "samples": len(taken),
                           "speed": speed(taken)}
                          for seconds, taken in imports],
              "host": {"samples": len(sampler.seconds),
                       "speed": run_speed,
                       "chunk_s_quartiles": statistics.quantiles(
                           sampler.seconds, n=4)
                       if len(sampler.seconds) > 1 else None},
              "end_to_end": e2e, "per_layer": layer,
              "passes": passes, "spans": rec.spans}
    out = args.out or os.path.join(
        STATE_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    if args.workload == "all" and args.out:
        out = f"{args.out}.{workload.name}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measuring time per run (default 28)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from an extra "
                             "cProfile pass")
    parser.add_argument("--out", default=None,
                        help="run record path (default .perfbench/...)")
    parser.add_argument("--peak-probe", metavar="WORKDIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_src()
    if args.peak_probe:
        return probe_main(args)
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(STATE_DIR, exist_ok=True)
    probes = {name: peak_probe(WORKLOADS[name], args.seed)
              for name in names}
    import_repro()
    imports = import_windows()
    results = {name: bench_workload(WORKLOADS[name], args, spec,
                                    imports, probes[name])
               for name in names}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{metric}": entry
                   for name, r in results.items()
                   for metric, entry in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
