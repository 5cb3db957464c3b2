"""Tests for sharded per-trace analysis (:mod:`repro.core.shard`) and
the numpy/pure dual paths of the nesting inference."""

import pytest

from repro import Machine
from repro.core import nesting as nesting_mod
from repro.core.index import TraceIndex
from repro.core.nesting import infer_nesting
from repro.core.report import render_analysis
from repro.core.shard import shard_episodes, shard_of, sharded_analysis
from repro.kern import Cluster
from repro.sim.clock import SECOND
from repro.workloads import run_workload


@pytest.fixture(scope="module")
def traces():
    # One pid with ~1 000 mostly single-episode timers.
    farm = Machine("linux", seed=11)
    farm.scene("serverfarm", connections=400)
    # Two hosts whose timers carry dozens of episodes each.
    cluster = Cluster("vista", hosts=2, cpus=2, seed=11)
    cluster.scene("serverfarm", connections=600)
    return {
        "linux": run_workload("linux", "firefox", 20 * SECOND,
                              seed=11).trace,
        "vista": run_workload("vista", "skype", 20 * SECOND,
                              seed=11).trace,
        "linux-farm": farm.finish("serverfarm", 3 * SECOND).trace,
        "vista-cluster": cluster.finish("serverfarm", 3 * SECOND).trace,
    }


class TestShardPlan:
    def test_int_keys_shard_by_id(self):
        assert shard_of(17, 0, 4) == 1
        assert shard_of(17, 3, 4) == 1      # ordinal ignored for ids

    def test_tuple_keys_shard_by_ordinal(self):
        key = (("site",), 42)
        assert shard_of(key, 5, 4) == 1
        assert shard_of(key, 6, 4) == 2

    def test_rejects_zero_jobs(self, traces):
        index = TraceIndex.of(traces["linux"])
        with pytest.raises(ValueError):
            shard_episodes(index, 0)


class TestShardedEpisodes:
    @pytest.mark.parametrize("os_name", ["linux", "vista"])
    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_merge_equals_serial_extraction(self, traces, os_name,
                                            jobs):
        trace = traces[os_name]
        index = TraceIndex.of(trace)
        logical = index.default_logical
        serial = index.episodes(logical)
        sharded = shard_episodes(index, jobs, logical=logical)
        assert sharded == serial

    def test_adopt_rejects_wrong_length(self, traces):
        index = TraceIndex.of(traces["linux"])
        with pytest.raises(ValueError):
            index.adopt_episodes([[]], logical=False)


class TestShardedAnalysis:
    @pytest.mark.parametrize("os_name", ["linux", "vista"])
    def test_output_identical_across_jobs(self, traces, os_name):
        trace = traces[os_name]
        serial = render_analysis(trace)
        for jobs in (1, 2, 8):
            trace._index = None       # fresh index: no cache reuse
            assert sharded_analysis(trace, jobs=jobs) == serial

    def test_accepts_v2_path(self, traces, tmp_path):
        from repro.tracing import write_trace
        path = str(tmp_path / "t.bin")
        write_trace(traces["linux"], path)
        assert sharded_analysis(path, jobs=2) == \
            render_analysis(traces["linux"])

    def test_cli_jobs_matches_serial(self, traces, tmp_path, capsys):
        from repro.cli import main
        from repro.tracing import write_trace
        path = str(tmp_path / "t.bin")
        write_trace(traces["linux"], path)
        assert main(["analyze", path]) == 0
        serial = capsys.readouterr().out
        for jobs in ("2", "8"):
            assert main(["analyze", path, "--jobs", jobs]) == 0
            assert capsys.readouterr().out == serial


class TestNestingDualPath:
    def test_pure_python_fallback_matches_numpy(self, traces,
                                                monkeypatch):
        """CI runs one leg without numpy: the pure path must produce
        the identical pair list the vectorised path does, where the
        per-inner prefilter drops nearly every timer (the farm) and
        where most timers qualify with many episodes (the cluster)."""
        names = ("linux", "linux-farm", "vista-cluster")
        with_np = [infer_nesting(traces[name]) for name in names]
        assert all(with_np)
        monkeypatch.setattr(nesting_mod, "_np", None)
        for name, expected in zip(names, with_np):
            traces[name]._index = None
            assert infer_nesting(traces[name]) == expected, name
