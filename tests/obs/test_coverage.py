"""Tests for the coverage collector: exact counters, cross-engine and
cross-driver parity, merge edge cases, source-line projection.

The headline contract mirrors the scheduler's: coverage counters are
**bit-identical** across the walk and compiled engines, across
``jobs=1`` / ``jobs=4`` and the work-stealing scheduler, and across a
worker crash/requeue — every fresh edge is counted exactly once
system-wide, regardless of who executed it.
"""

import json
import pickle

import pytest

from repro import SearchOptions, run_search
from repro.obs import CoverageCollector
from repro.service import work_stealing_search

from .conftest import deadlock_system, fig2_system


def cov_key(report):
    """Every counter the collector owns, as a comparable value."""
    c = report.coverage
    return (
        dict(c.nodes),
        dict(c.edges),
        dict(c.toss_values),
        {p: frozenset(s) for p, s in c.process_nodes.items()},
    )


def _search(build, **kwargs):
    kwargs.setdefault("coverage", True)
    return run_search(build(), SearchOptions(**kwargs))


class TestCollector:
    def test_fig2_full_coverage(self):
        report = _search(fig2_system)
        cov = report.coverage
        assert cov.nodes_covered == cov.nodes_total > 0
        assert cov.edges_covered == cov.edges_total > 0
        assert cov.node_percent() == 100.0
        assert cov.unreached_nodes() == {}
        # The single process reached the whole universe.
        assert len(cov.process_nodes) == 1

    def test_node_counts_sum_to_trace_volume(self):
        # Every counted node visit is one executed CFG node on fresh
        # ground; the restore-mode DFS replays nothing, so node counts
        # are a complete execution census (edges: one per visit that
        # followed a predecessor).
        report = _search(fig2_system)
        cov = report.coverage
        assert sum(cov.nodes.values()) > report.transitions_executed
        assert sum(cov.edges.values()) <= sum(cov.nodes.values())

    def test_toss_value_distribution(self):
        report = _search(fig2_system)
        points = report.coverage.toss_points()
        assert points  # the closed Figure 2 has a toss point
        for (proc, node), point in points.items():
            assert point["bound"] is not None
            # Exhaustive search drives every value at the driven points.
            if point["values"]:
                assert point["missing"] == []

    def test_bounded_search_leaves_toss_values_missing(self):
        report = _search(fig2_system, max_paths=1)
        points = report.coverage.toss_points()
        missing = [p for p in points.values() if p["values"] and p["missing"]]
        assert missing  # one path cannot drive both toss outcomes

    def test_line_coverage_projection(self):
        report = _search(fig2_system)
        lines = report.coverage.line_coverage()
        assert lines
        for entry in lines.values():
            assert 0 < entry["covered"] <= entry["nodes"]
        reached, total, missing = report.coverage.lines_reached()
        assert reached == total and missing == []

    def test_render_summary(self):
        report = _search(fig2_system)
        text = report.coverage.render_summary(program="fig2.rc")
        assert text.startswith("coverage: fig2.rc: nodes")
        assert "(100.0%)" in text

    def test_as_dict_is_json_ready_and_self_contained(self):
        report = _search(fig2_system)
        payload = json.loads(json.dumps(report.coverage.as_dict()))
        assert payload["version"] == 1
        assert payload["summary"]["node_percent"] == 100.0
        assert payload["static"]["procs"]  # static tables ride along
        # Edge keys are proc:src:dst over the static arcs.
        for key in payload["edges"]:
            proc, src, dst = key.rsplit(":", 2)
            assert [int(src), int(dst)] in payload["static"]["procs"][proc]["arcs"]


class TestPickleAndMerge:
    def test_shard_roundtrip_keeps_counters_drops_parsers(self):
        report = _search(fig2_system)
        shard = pickle.loads(pickle.dumps(report.coverage))
        assert dict(shard.nodes) == dict(report.coverage.nodes)
        assert dict(shard.edges) == dict(report.coverage.edges)
        assert shard.static == report.coverage.static

    def test_unpickled_shard_refuses_new_segments(self):
        shard = pickle.loads(pickle.dumps(_search(fig2_system).coverage))
        with pytest.raises(RuntimeError):
            shard.segment("P", [("p", 0)], True)

    def test_merged_sums_counters(self):
        a = _search(fig2_system).coverage
        b = _search(fig2_system).coverage
        merged = CoverageCollector.merged([a, b, None])
        assert merged.nodes == a.nodes + b.nodes
        assert merged.edges == a.edges + b.edges
        assert merged.toss_values == a.toss_values + b.toss_values
        assert merged.nodes_total == a.nodes_total  # static adopted

    def test_empty_shard_merges_as_identity(self):
        # Satellite: a worker that never got a lease ships an empty
        # shard; merging it must not perturb anything.
        full = _search(fig2_system).coverage
        merged = CoverageCollector.merged([full, CoverageCollector()])
        assert merged.nodes == full.nodes
        assert merged.edges == full.edges
        assert merged.process_nodes == full.process_nodes
        assert merged.nodes_total == full.nodes_total

    def test_bare_collector_views_degrade(self):
        empty = CoverageCollector()
        assert empty.nodes_total == 0
        assert empty.node_percent() == 0.0
        assert empty.unreached_nodes() == {}
        assert empty.line_coverage() == {}


class TestEngineParity:
    """Walk and compiled engines record instruction-identical traces,
    and the restore/replay backtracking modes anchor identically."""

    @pytest.mark.parametrize("build", [fig2_system, deadlock_system],
                             ids=["fig2", "deadlock"])
    def test_walk_vs_compiled_vs_replay(self, build):
        base = cov_key(_search(build, engine="walk"))
        assert cov_key(_search(build, engine="compiled")) == base
        assert cov_key(_search(build, backtrack="replay")) == base


class TestRandomWalks:
    """Random walks build their own collector from ``options.coverage``."""

    def test_walk_vs_compiled(self):
        options = dict(strategy="random", walks=20, seed=7)
        base = cov_key(_search(fig2_system, engine="walk", **options))
        assert sum(base[0].values()) > 0
        compiled = _search(fig2_system, engine="compiled", **options)
        assert compiled.stats.engine == "compiled"
        assert cov_key(compiled) == base

    def test_stats_gauges_follow_the_collector(self):
        report = _search(deadlock_system, strategy="random", walks=20, seed=7)
        assert report.stats.coverage_nodes == report.coverage.nodes_covered > 0
        assert report.stats.coverage_nodes_total == report.coverage.nodes_total


class TestDriverParity:
    """jobs=1 / jobs=4 / steal produce bit-identical counters."""

    def test_fig2_parallel_and_steal(self):
        base = cov_key(_search(fig2_system))
        assert cov_key(_search(fig2_system, strategy="parallel", jobs=1)) == base
        steal = work_stealing_search(
            fig2_system(), SearchOptions(coverage=True, jobs=1)
        )
        assert cov_key(steal) == base

    @pytest.mark.slow
    def test_deadlock_multiprocess(self):
        base = cov_key(_search(deadlock_system))
        four = _search(deadlock_system, strategy="parallel", jobs=4)
        assert cov_key(four) == base
        steal = work_stealing_search(
            deadlock_system(), SearchOptions(coverage=True, jobs=2)
        )
        assert cov_key(steal) == base

    @pytest.mark.slow
    def test_worker_death_after_partial_flush(self):
        # Satellite: SIGKILL a worker mid-subtree.  Its uncommitted
        # lease (and the coverage shard it would have flushed) is
        # discarded and the lease re-runs elsewhere, so the merged
        # counters still match the undisturbed sequential run exactly.
        base = cov_key(_search(deadlock_system, max_depth=40))
        report = work_stealing_search(
            deadlock_system(),
            SearchOptions(coverage=True, jobs=2, max_depth=40),
            kill_worker_after_paths=1,
        )
        assert cov_key(report) == base

    def test_stats_gauges_follow_the_merged_collector(self):
        report = work_stealing_search(
            deadlock_system(), SearchOptions(coverage=True, jobs=1)
        )
        assert report.stats.coverage_nodes == report.coverage.nodes_covered
        assert report.stats.coverage_nodes_total == report.coverage.nodes_total
        # The frontier gauge is live-only: drained by the time we merge.
        assert report.stats.frontier_pending == 0
