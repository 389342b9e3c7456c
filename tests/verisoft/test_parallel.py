"""Tests for parallel stateless exploration (``strategy="parallel"``).

The partition must be *exact*: searching disjoint subtree leases
independently and merging the reports has to reproduce the sequential
DFS report counter for counter and event for event.  The determinism
tests pin that guarantee on the paper's Figure 2/3 programs.
"""

import json
import pickle

import pytest

from tests.helpers import dfs_search
from repro import SearchOptions, System, Tracer, close_program, run_search
from repro.obs import validate_chrome_trace
from repro.service.scheduler import _merge_lease_blocks, explore_lease
from repro.verisoft import ChoicePrefix, prefix_key

P_SRC = """
proc p(x) {
    var y = x % 2;
    var cnt = 0;
    while (cnt < 4) {
        if (y == 0) { send(out, 'even'); } else { send(out, 'odd'); }
        cnt = cnt + 1;
    }
}
"""

Q_SRC = """
proc q(x) {
    var cnt = 0;
    while (cnt < 4) {
        var y = x % 2;
        if (y == 0) { send(out, 'even'); } else { send(out, 'odd'); }
        x = x / 2;
        cnt = cnt + 1;
    }
}
"""


def toss_system(bound=3):
    system = System(
        f"proc main() {{ var t; t = VS_toss({bound}); send(out, t); }}"
    )
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


def closed_figure_system(source, proc):
    closed = close_program(source, env_params={proc: ["x"]})
    system = System(closed.cfgs)
    system.add_env_sink("out")
    system.add_process("P", proc, [])
    return system


def racing_system():
    """Two producers racing into one consumer: scheduling nondeterminism."""
    src = """
    proc producer(id) { send(c, id); }
    proc consumer() { var a; var b; a = recv(c); b = recv(c); send(out, a * 10 + b); }
    """
    system = System(src)
    system.add_env_sink("out")
    system.add_channel("c", capacity=1)
    system.add_process("p1", "producer", [1])
    system.add_process("p2", "producer", [2])
    system.add_process("con", "consumer", [])
    return system


def deadlock_system():
    src = """
    proc grab(first, second) {
        sem_p(first);
        sem_p(second);
        sem_v(second);
        sem_v(first);
    }
    """
    system = System(src)
    s1 = system.add_semaphore("s1", 1)
    s2 = system.add_semaphore("s2", 1)
    system.add_process("a", "grab", [s1, s2])
    system.add_process("b", "grab", [s2, s1])
    return system


def suspended_lease(system, paths, **kwargs):
    """Explore the root lease, suspending it after ``paths`` completed
    paths; returns the partial report and the harvested residuals."""
    calls = [0]

    def yield_check():
        calls[0] += 1
        return calls[0] >= paths

    report, residuals, _ = explore_lease(
        system, None, SearchOptions(max_depth=20, **kwargs), yield_check=yield_check
    )
    return report, residuals


def lease_blocks(build, paths, **kwargs):
    """Run the lease pipeline by hand, without a pool: the root lease
    suspends after ``paths`` paths, then every residual runs to
    exhaustion.  Returns the ``(prefix_key, report)`` blocks."""
    report, residuals = suspended_lease(build(), paths, **kwargs)
    blocks = [((), report)]
    for prefix in residuals:
        lease_report = explore_lease(
            build(), prefix, SearchOptions(max_depth=20, **kwargs)
        )[0]
        blocks.append((prefix_key(prefix), lease_report))
    return blocks


class TestPrefixEnumeration:
    """The residual prefixes harvested from a suspended lease."""

    def test_prefixes_are_deterministic(self):
        _, first = suspended_lease(racing_system(), 1)
        _, second = suspended_lease(racing_system(), 1)
        assert first == second
        assert first
        assert all(isinstance(p, ChoicePrefix) for p in first)

    def test_toss_fanout_reflected_in_prefix_count(self):
        # VS_toss(9) at the root: after the path through value 0, one
        # residual prefix per untried value (9 of them) remains.
        _, prefixes = suspended_lease(toss_system(9), 1)
        assert len(prefixes) == 9

    def test_prefix_pins_every_decision(self):
        _, prefixes = suspended_lease(racing_system(), 1)
        indices = [prefix_key(p) for p in prefixes]
        # All distinct, in DFS order.
        assert len(set(indices)) == len(indices)
        assert indices == sorted(indices)

    def test_describe_is_readable(self):
        _, prefixes = suspended_lease(toss_system(3), 1)
        assert prefixes[0].describe() == "toss=1"


def toss_9_system():
    return toss_system(9)


#: ``(system builder, paths before the root lease suspends)``; the toss
#: cases are identified by ``paths`` alone.  Every case splits into
#: several lease blocks (racing_system has only two paths).
MERGE_CASES = [
    *(pytest.param(toss_9_system, paths, id=str(paths)) for paths in (1, 2, 3)),
    pytest.param(racing_system, 1, id="racing-1"),
    pytest.param(deadlock_system, 1, id="deadlock-1"),
    pytest.param(deadlock_system, 2, id="deadlock-2"),
]


class TestManualMerge:
    """Drive the lease pipeline by hand (no pool) and demand parity."""

    @pytest.mark.parametrize("build, paths", MERGE_CASES)
    def test_merge_matches_sequential(self, build, paths):
        sequential = dfs_search(build(), max_depth=20, max_events=1000)
        blocks = lease_blocks(build, paths, max_events=1000)
        assert len(blocks) > 1
        merged = _merge_lease_blocks(blocks, max_events=1000, fingerprints=None)
        assert merged.summary() == sequential.summary()
        for kind in ("deadlocks", "violations", "crashes", "divergences"):
            merged_traces = [e.trace for e in getattr(merged, kind)]
            assert merged_traces == [e.trace for e in getattr(sequential, kind)]

    def test_merge_respects_event_cap(self):
        blocks = lease_blocks(deadlock_system, 1, max_events=1)
        merged = _merge_lease_blocks(blocks, max_events=1, fingerprints=None)
        assert len(merged.deadlocks) == 1

    def test_merged_stats_aggregate_workers(self):
        blocks = lease_blocks(lambda: toss_system(9), 2, backtrack="replay")
        merged = _merge_lease_blocks(blocks, max_events=25, fingerprints=None)
        assert merged.stats is not None
        assert merged.stats.states_visited == merged.states_visited
        assert merged.stats.replays == sum(r.stats.replays for _, r in blocks) > 0


class TestParallelSearch:
    @pytest.mark.parametrize(
        "make_system",
        [toss_system, racing_system, deadlock_system],
        ids=["toss", "racing", "deadlock"],
    )
    def test_matches_sequential_dfs(self, make_system):
        options = SearchOptions(max_depth=30, max_events=1000)
        sequential = run_search(make_system(), options)
        for jobs in (1, 2):
            parallel = run_search(
                make_system(),
                options,
                strategy="parallel",
                jobs=jobs,
            )
            assert parallel.summary() == sequential.summary(), f"jobs={jobs}"

    @pytest.mark.parametrize(
        "source,proc", [(P_SRC, "p"), (Q_SRC, "q")], ids=["figure2", "figure3"]
    )
    def test_jobs_1_and_4_identical_on_figures(self, source, proc):
        """The satellite determinism requirement: closed Figure 2/3
        programs searched with --jobs 1 and --jobs 4 merge identically."""
        options = SearchOptions(
            strategy="parallel", max_depth=40, max_events=1000, count_states=True
        )
        one = run_search(closed_figure_system(source, proc), options, jobs=1)
        four = run_search(closed_figure_system(source, proc), options, jobs=4)
        assert one.summary() == four.summary()
        assert one.paths_explored > 1  # the closing introduced real branching
        # And both equal the plain sequential DFS.
        sequential = run_search(
            closed_figure_system(source, proc),
            SearchOptions(max_depth=40, max_events=1000, count_states=True),
        )
        assert one.summary() == sequential.summary()

    def test_count_states_unions_fingerprints(self):
        options = SearchOptions(max_depth=30, count_states=True, max_events=1000)
        sequential = run_search(racing_system(), options)
        parallel = run_search(racing_system(), options, strategy="parallel", jobs=2)
        assert parallel.states_visited == sequential.states_visited

    def test_stop_on_first_reports_an_event(self):
        report = run_search(
            deadlock_system(),
            SearchOptions(strategy="parallel", jobs=2, stop_on_first=True, max_depth=20),
        )
        assert report.deadlocks
        assert not report.ok

    def test_stats_record_jobs_and_leases(self):
        report = run_search(
            toss_system(9), SearchOptions(strategy="parallel", jobs=2, max_depth=20)
        )
        assert report.stats.strategy == "parallel"
        assert report.stats.jobs == 2
        assert report.stats.leases >= 1
        assert report.stats.wall_time > 0

    def test_system_factory_escape_hatch(self):
        report = run_search(
            toss_system(9),
            SearchOptions(strategy="parallel", jobs=2, max_depth=20),
            system_factory=lambda: toss_system(9),
        )
        assert report.summary() == dfs_search(toss_system(9), max_depth=20).summary()


class TestParallelTracing:
    def test_one_lease_span_per_committed_lease(self, tmp_path):
        tracer = Tracer()
        report = run_search(
            closed_figure_system(P_SRC, "p"),
            SearchOptions(strategy="parallel", jobs=2, max_depth=40, tracer=tracer),
        )
        trace = tracer.chrome_trace()
        assert validate_chrome_trace(trace) == []
        path = tracer.write(tmp_path / "trace.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []
        events = trace["traceEvents"]
        leases = [e for e in events if e["name"] == "lease" and e["ph"] == "X"]
        assert len(leases) == report.stats.leases >= 1
        # The workers' per-path spans come along: one per explored path.
        paths = [e for e in events if e["name"] == "path" and e.get("cat") == "dfs"]
        assert len(paths) == report.paths_explored
        # Payloads are spliced into the tracer, never left on the report.
        assert report.trace_payload is None


class TestPicklability:
    def test_system_roundtrips_through_pickle(self):
        system = toss_system(3)
        clone = pickle.loads(pickle.dumps(system))
        assert dfs_search(clone).summary() == dfs_search(toss_system(3)).summary()

    def test_run_refuses_to_pickle(self):
        run = toss_system(3).start()
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(run)
