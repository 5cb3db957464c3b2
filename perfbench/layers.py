"""Map ``src/repro`` modules to benchmark layers and charge profiled
self time to them.

Every module under ``src/repro`` belongs to exactly one layer.  A rule
is either an exact module name or a package (the package module and
everything below it); the rules are written so that no module matches
two of them, and ``perfbench/tests/test_layers.py`` enforces that.

Self time comes from a stdlib :mod:`cProfile` pass.  A function defined
in a ``repro`` module is charged to that module's layer.  A function
defined anywhere else (a C builtin such as ``list.remove``, the
stdlib, NumPy, a namedtuple's generated ``__new__``) is charged to its
callers, using the per-caller times pstats records: a ``repro`` caller
takes its share directly, a foreign caller passes it on to its own
callers in proportion to the cumulative time each spent in it.  The
layer totals therefore add up to the profile's total self time.
"""

from __future__ import annotations

import os
import pstats

#: Layer name -> (exact modules, packages).  A package covers itself
#: and every module below it.
LAYER_RULES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "sim.engine": (("repro.sim.engine",), ()),
    "sim.sched": (("repro.sim.sched",), ()),
    "sim.other": (("repro.sim", "repro.sim.clock", "repro.sim.devices",
                   "repro.sim.netmodel", "repro.sim.power",
                   "repro.sim.rng", "repro.sim.tasks"), ()),
    "linuxkern.wheel": (("repro.linuxkern.wheel",), ()),
    "linuxkern.other": (("repro.linuxkern", "repro.linuxkern.hrtimer",
                         "repro.linuxkern.jiffies",
                         "repro.linuxkern.kernel",
                         "repro.linuxkern.softtimers",
                         "repro.linuxkern.syscalls",
                         "repro.linuxkern.timer",
                         "repro.linuxkern.timer_stats"),
                        ("repro.linuxkern.subsystems",)),
    "vistakern": ((), ("repro.vistakern",)),
    "kern": ((), ("repro.kern",)),
    "workloads": ((), ("repro.workloads",)),
    "tracing.emit": (("repro.tracing", "repro.tracing.events",
                      "repro.tracing.relay", "repro.tracing.etw",
                      "repro.tracing.trace", "repro.tracing.requests"),
                     ()),
    "tracing.io": (("repro.tracing.formats", "repro.tracing.binfmt",
                    "repro.tracing.binfmt2", "repro.tracing.errors"), ()),
    "core.index": (("repro.core.index", "repro.core.episodes"), ()),
    "core.streaming": (("repro.core.streaming",), ()),
    "core.nesting": (("repro.core.nesting",), ()),
    "core.analyses": (("repro.core", "repro.core.adaptive",
                       "repro.core.adaptivity", "repro.core.analyze",
                       "repro.core.classify", "repro.core.compare",
                       "repro.core.dispatch", "repro.core.durations",
                       "repro.core.interfaces", "repro.core.origins",
                       "repro.core.planned", "repro.core.provenance",
                       "repro.core.rates", "repro.core.report",
                       "repro.core.shard", "repro.core.summary",
                       "repro.core.timespec", "repro.core.values"), ()),
    "obs": ((), ("repro.obs",)),
    "other": (("repro", "repro.cli"),
              ("repro.serve", "repro.study", "repro.userspace")),
}

#: Reporting order; ``other`` also takes time outside ``repro``.
LAYERS = tuple(LAYER_RULES)


def matching_layers(module: str) -> list[str]:
    """Every layer whose rules match ``module`` (exactly one for a
    well-formed map)."""
    found = []
    for layer, (exact, packages) in LAYER_RULES.items():
        if module in exact or any(module == pkg or
                                  module.startswith(pkg + ".")
                                  for pkg in packages):
            found.append(layer)
    return found


def layer_of_module(module: str) -> str:
    found = matching_layers(module)
    return found[0] if len(found) == 1 else "other"


def repro_modules(src_root: str) -> list[str]:
    """Dotted names of every module under ``<src_root>/repro``."""
    modules = []
    base = os.path.join(src_root, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        rel = os.path.relpath(dirpath, src_root).split(os.sep)
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            parts = rel if name == "__init__.py" else rel + [name[:-3]]
            modules.append(".".join(parts))
    return modules


class LayerMap:
    """Resolves profiled code locations to layers for one source tree."""

    def __init__(self, src_root: str):
        self.repro_root = os.path.realpath(
            os.path.join(src_root, "repro")) + os.sep
        self._cache: dict[str, str | None] = {}

    def module_of(self, filename: str) -> str | None:
        """Dotted ``repro`` module for a code file, or None when the
        file is not part of ``repro``."""
        if filename not in self._cache:
            path = os.path.realpath(filename)
            module = None
            if path.startswith(self.repro_root) and path.endswith(".py"):
                rel = path[len(self.repro_root):-3].split(os.sep)
                if rel[-1] == "__init__":
                    rel = rel[:-1]
                module = ".".join(["repro"] + rel)
            self._cache[filename] = module
        return self._cache[filename]

    def layer_of(self, func: tuple) -> str | None:
        """Layer of a pstats function key, or None for foreign code."""
        module = self.module_of(func[0])
        return None if module is None else layer_of_module(module)

    def self_times(self, stats: pstats.Stats) -> dict[str, float]:
        """Seconds of self time per layer, summing to the profile's
        total self time."""
        rows = stats.stats
        shares: dict[tuple, dict[str, float]] = {}

        def caller_share(func: tuple, visiting: frozenset) -> dict:
            # Which layers a foreign function's calls came from,
            # weighted by the cumulative time each caller spent in it.
            layer = self.layer_of(func)
            if layer is not None:
                return {layer: 1.0}
            if func in shares:
                return shares[func]
            if func in visiting or func not in rows:
                return {"other": 1.0}
            weights: dict[str, float] = {}
            for caller, caller_stats in rows[func][4].items():
                for name, part in caller_share(
                        caller, visiting | {func}).items():
                    weights[name] = weights.get(name, 0.0) \
                        + part * caller_stats[3]
            total = sum(weights.values())
            share = {name: w / total for name, w in weights.items()} \
                if total > 0 else {"other": 1.0}
            shares[func] = share
            return share

        totals = dict.fromkeys(LAYERS, 0.0)
        for func, (_cc, _nc, tottime, _ct, callers) in rows.items():
            layer = self.layer_of(func)
            if layer is not None:
                totals[layer] += tottime
                continue
            charged = 0.0
            for caller, caller_stats in callers.items():
                for name, part in caller_share(
                        caller, frozenset({func})).items():
                    totals[name] += part * caller_stats[2]
                charged += caller_stats[2]
            # Time no recorded caller accounts for (the profile's own
            # entry point) stays in ``other``.
            totals["other"] += tottime - charged
        return totals


def find(stats: pstats.Stats, filename_suffix: str,
         funcname: str) -> tuple | None:
    """Stats row ``(cc, nc, tottime, cumtime, callers)`` of one
    function, matched by file suffix and qualified name."""
    suffix = os.path.normpath(filename_suffix)
    for (filename, _line, name), row in stats.stats.items():
        if name == funcname and os.path.normpath(filename).endswith(suffix):
            return row
    return None


#: Hot spots the traced pass measures: (calls metric, microseconds per
#: call metric, file suffix, function).  Per-call time is cumulative.
HOTSPOTS = (
    ("linuxkern.wheel.removes", "linuxkern.wheel.us_per_remove",
     os.path.join("linuxkern", "wheel.py"), "remove"),
    ("core.streaming.open_episodes_calls",
     "core.streaming.us_per_open_episodes",
     os.path.join("core", "streaming.py"), "open_episodes"),
)


def hotspot_metrics(stats: pstats.Stats) -> dict[str, float]:
    """Calls and microseconds per call of each hot spot, plus the
    (outer, inner) timer pairs nesting inference examines: the calls of
    ``_support_floor``."""
    metrics: dict[str, float] = {}
    for calls_name, per_call_name, filename, funcname in HOTSPOTS:
        row = find(stats, filename, funcname)
        calls = row[1] if row else 0
        metrics[calls_name] = calls
        metrics[per_call_name] = row[3] / calls * 1e6 if calls else 0.0
    pairs = find(stats, os.path.join("core", "nesting.py"),
                 "_support_floor")
    metrics["core.nesting.pairs"] = pairs[1] if pairs else 0
    return metrics
