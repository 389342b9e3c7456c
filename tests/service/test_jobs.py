"""The job service: submit, serve, stream, stop, resume — on disk.

Jobs are self-contained (description + embedded program source), so
every test round-trips through fresh :class:`JobStore` instances to
prove nothing leaks through in-memory state.
"""

import json
import threading
import time

import pytest

from repro import SearchOptions, run_search
from repro.service import JobStore
from repro.service.jobs import run_job, serve

from .conftest import FIG3_SRC

FIG3_DESCRIPTION = {
    "program": "fig3.rc",
    "close": {"env_params": {"q": ["x"]}},
    "objects": [{"kind": "sink", "name": "out"}],
    "processes": [{"name": "P", "proc": "q", "args": []}],
}

TOSS_LOOP_SRC = """
proc main() {
    var i = 0;
    while (i < 10) {
        var t;
        t = VS_toss(1);
        i = i + 1;
    }
    send(out, i);
}
"""

TOSS_LOOP_DESCRIPTION = {
    "program": "loop.rc",
    "objects": [{"kind": "sink", "name": "out"}],
    "processes": [{"name": "p", "proc": "main", "args": []}],
}


def _options(**kwargs):
    kwargs.setdefault("count_states", True)
    kwargs.setdefault("max_depth", 60)
    kwargs.setdefault("jobs", 1)
    return SearchOptions(strategy="parallel", **kwargs)


def _submit_fig3(store, **options):
    return store.submit(
        FIG3_DESCRIPTION, _options(**options), program_source=FIG3_SRC, name="fig3"
    )


class TestJobStore:
    def test_submit_is_self_contained_and_queued(self, tmp_path):
        store = JobStore(tmp_path)
        job = _submit_fig3(store)
        assert job.state == "queued"
        # A brand-new store instance sees the same job from disk alone.
        again = JobStore(tmp_path).get(job.id)
        assert again.state == "queued"
        assert again.system["program_source"] == FIG3_SRC
        assert again.search_options().strategy == "parallel"

    def test_submit_embeds_program_from_base_dir(self, tmp_path):
        (tmp_path / "fig3.rc").write_text(FIG3_SRC)
        store = JobStore(tmp_path / "jobs")
        job = store.submit(FIG3_DESCRIPTION, _options(), base_dir=tmp_path)
        assert job.system["program_source"] == FIG3_SRC

    def test_get_unknown_job_raises(self, tmp_path):
        with pytest.raises(KeyError):
            JobStore(tmp_path).get("job-missing")

    def test_claim_is_exclusive(self, tmp_path):
        store = JobStore(tmp_path)
        _submit_fig3(store)
        first = store.claim_next()
        assert first is not None
        assert JobStore(tmp_path).claim_next() is None

    def test_resume_requires_stopped_or_failed(self, tmp_path):
        store = JobStore(tmp_path)
        job = _submit_fig3(store)
        with pytest.raises(ValueError):
            store.resume(job.id)


class TestJobLifecycle:
    def test_serve_once_completes_job_with_artifacts(self, tmp_path):
        store = JobStore(tmp_path)
        job = _submit_fig3(store)
        assert serve(store, once=True) == 1
        job = store.get(job.id)
        assert job.state == "done"
        result = json.loads(job.result_path.read_text())
        assert result["ok"] is False
        assert result["stats"]["paths_explored"] == 8
        assert result["groups"] == [{"kind": "assertion", "count": 5}]
        manifest = json.loads(job.manifest_path.read_text())
        assert manifest["report"]["stats"]["leases"] >= 1
        assert manifest["report"]["workers"] is not None
        assert manifest["job"]["id"] == job.id
        traces = sorted(p.name for p in job.traces_dir.iterdir())
        assert len(traces) == 5
        assert not job.frontier_path.exists()
        beat = job.latest_stats()
        assert beat["state"] == "final"

    def test_result_matches_direct_search(self, tmp_path):
        from repro import System

        store = JobStore(tmp_path)
        job = _submit_fig3(store)
        serve(store, once=True)
        result = json.loads(store.get(job.id).result_path.read_text())

        system = store.get(job.id).build_system()
        assert isinstance(system, System)
        base = run_search(
            system, SearchOptions(strategy="dfs", count_states=True, max_depth=60)
        )
        for field in ("paths_explored", "states_visited", "transitions_executed"):
            assert result["stats"][field] == getattr(base.stats, field)

    def test_job_written_before_the_static_partition_was_removed_runs(
        self, tmp_path
    ):
        # job.json exactly as an older store wrote it: its options still
        # carry the removed "scheduler"/"prefix_depth" keys.
        job_dir = tmp_path / "job-0123456789ab"
        job_dir.mkdir()
        old_options = {
            "strategy": "parallel", "max_depth": 60, "por": True,
            "backtrack": "restore", "engine": "walk", "count_states": True,
            "stop_on_first": False, "max_paths": None, "max_transitions": None,
            "time_budget": None, "max_events": 25, "state_cache": "off",
            "cache_bits": 24, "cache_mode": "safe", "walks": 100, "seed": 0,
            "jobs": 1, "prefix_depth": None, "scheduler": "steal",
            "progress_interval": 0.5, "profile": False, "coverage": False,
            "stall_timeout": 10.0,
        }
        (job_dir / "job.json").write_text(
            json.dumps(
                {
                    "id": job_dir.name,
                    "name": "fig3",
                    "state": "queued",
                    "created": 1.0,
                    "updated": 1.0,
                    "system": {
                        "description": FIG3_DESCRIPTION,
                        "program_source": FIG3_SRC,
                    },
                    "options": old_options,
                    "error": None,
                }
            )
        )
        store = JobStore(tmp_path)
        options = store.get(job_dir.name).search_options()
        assert "scheduler" not in options.as_dict()
        assert "prefix_depth" not in options.as_dict()
        assert serve(store, once=True) == 1
        job = store.get(job_dir.name)
        assert job.state == "done", job.error
        result = json.loads(job.result_path.read_text())
        base = run_search(
            job.build_system(),
            SearchOptions(strategy="dfs", count_states=True, max_depth=60),
        )
        for field in ("paths_explored", "states_visited", "transitions_executed"):
            assert result["stats"][field] == getattr(base.stats, field)

    def test_saved_traces_replay(self, tmp_path):
        from repro.counterex import load_trace, verify_trace

        store = JobStore(tmp_path)
        job = _submit_fig3(store)
        serve(store, once=True)
        job = store.get(job.id)
        trace = load_trace(sorted(job.traces_dir.iterdir())[0])
        system = job.build_system()
        assert verify_trace(system, trace).ok

    def test_bad_description_fails_cleanly(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit(
            {"program": "x.rc", "processes": [{"name": "p", "proc": "nope"}]},
            _options(),
            program_source="proc main() { skip; }",
        )
        serve(store, once=True)
        job = store.get(job.id)
        assert job.state == "failed"
        assert job.error

    def test_serve_respects_max_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        _submit_fig3(store)
        _submit_fig3(store)
        assert serve(store, once=True, max_jobs=1) == 1
        states = sorted(j.state for j in store.jobs())
        assert states == ["done", "queued"]


class TestStopResume:
    def _submit_loop(self, store, **options):
        return store.submit(
            TOSS_LOOP_DESCRIPTION,
            _options(**options),
            program_source=TOSS_LOOP_SRC,
            name="loop",
        )

    def test_stop_mid_run_then_resume_completes_identically(self, tmp_path):
        store = JobStore(tmp_path)
        job = self._submit_loop(store, progress_interval=0.01)
        claimed = store.claim_next()
        assert claimed.id == job.id

        worker = threading.Thread(
            target=run_job,
            args=(store, claimed),
            kwargs={"stop_poll_interval": 0.0, "checkpoint_interval": 0.01},
        )
        worker.start()
        # Stop as soon as the first heartbeat proves the search is live.
        deadline = time.monotonic() + 30
        while not job.stats_path.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        store.request_stop(job.id)
        worker.join(timeout=60)
        assert not worker.is_alive()

        job = store.get(job.id)
        if job.state == "done":
            # The search finished before the stop landed — legal, but
            # then there is nothing to resume; the parity half of this
            # contract is still asserted below via the result file.
            pass
        else:
            assert job.state == "stopped"
            assert job.frontier_path.exists()
            # Resume via a *fresh* store (nothing in memory carries over).
            fresh = JobStore(tmp_path)
            fresh.resume(job.id)
            assert fresh.get(job.id).state == "queued"
            assert serve(fresh, once=True) == 1
            job = fresh.get(job.id)
            assert job.state == "done"
            assert not job.frontier_path.exists()

        result = json.loads(job.result_path.read_text())
        base = run_search(
            job.build_system(),
            SearchOptions(strategy="dfs", count_states=True, max_depth=60),
        )
        assert result["ok"] is True
        for field in ("paths_explored", "states_visited", "transitions_executed"):
            assert result["stats"][field] == getattr(base.stats, field), field
        assert result["distinct_states"] == base.distinct_states

    def test_resume_clears_stop_marker(self, tmp_path):
        store = JobStore(tmp_path)
        job = _submit_fig3(store)
        job.set_state("stopped")
        store.request_stop(job.id)
        store.resume(job.id)
        job = store.get(job.id)
        assert job.state == "queued"
        assert not job.stop_path.exists()


@pytest.mark.slow
class TestCrashRecoveryJob:
    """Satellite: a worker process SIGKILLed mid-subtree must not lose
    or double-count work — the finished job matches the jobs=1 run."""

    def test_job_completes_after_worker_kill(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit(
            TOSS_LOOP_DESCRIPTION,
            _options(jobs=2),
            program_source=TOSS_LOOP_SRC,
            name="loop-crash",
        )
        claimed = store.claim_next()
        run_job(store, claimed, kill_worker_after_paths=3)
        job = store.get(job.id)
        assert job.state == "done"
        result = json.loads(job.result_path.read_text())
        assert result["stats"]["leases_requeued"] >= 1

        base = run_search(
            job.build_system(),
            SearchOptions(strategy="dfs", count_states=True, max_depth=60),
        )
        for field in ("paths_explored", "states_visited", "transitions_executed"):
            assert result["stats"][field] == getattr(base.stats, field), field
        assert result["distinct_states"] == base.distinct_states


class TestObservabilitySurface:
    """Coverage gauges in heartbeats, the shared manifest ``meta``
    block, and the ``--metrics-out`` Prometheus textfile exporter."""

    def test_coverage_flows_into_manifest_and_heartbeat(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit(
            FIG3_DESCRIPTION,
            _options(coverage=True),
            program_source=FIG3_SRC,
            name="fig3-cov",
        )
        serve(store, once=True)
        job = store.get(job.id)
        manifest = json.loads(job.manifest_path.read_text())
        meta = manifest["meta"]
        assert meta["tool"] == "repro" and meta["version"]
        assert meta["language"] == "rc"
        assert meta["engine"] in ("walk", "compiled")
        coverage = manifest["report"]["coverage"]
        assert coverage["summary"]["nodes_covered"] > 0
        # The embedded program text lets `repro report` annotate lines.
        assert manifest["program"]["text"] == FIG3_SRC
        beat = job.latest_stats()
        assert beat["stats"]["coverage_nodes"] == (
            coverage["summary"]["nodes_covered"]
        )
        assert beat["stats"]["coverage_nodes_total"] == (
            coverage["summary"]["nodes_total"]
        )

    def test_serve_exports_prometheus_textfile(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        _submit_fig3(store)
        metrics = tmp_path / "metrics" / "repro.prom"
        serve(store, once=True, metrics_out=metrics)
        text = metrics.read_text()
        assert 'repro_jobs{state="done"} 1' in text
        assert "repro_states_visited{" in text
        assert "# TYPE repro_jobs gauge" in text
        assert not metrics.with_name(metrics.name + ".tmp").exists()
