"""Differential tests: the compiled engine vs the walking reference.

The compiled engine (:mod:`repro.runtime.compile`) must be
*observationally identical* to the tree-walking interpreter: the same
choice trees, the same counters (states, transitions, toss points,
paths), the same violation events with the same traces, and the same
triage groups — under every search configuration.  These tests run the
same searches under both engines and compare the results field by
field; any divergence is a bug in the compiler, full stop.
"""

import random
from dataclasses import replace

import pytest

from repro import SearchOptions, System, run_search
from repro.fiveess import build_app
from repro.verisoft import replay
from repro.verisoft.random_walk import random_walks


# ---------------------------------------------------------------------------
# Fixture systems: one per language/runtime feature family
# ---------------------------------------------------------------------------

TOSS_AND_CALL = """
proc helper(n) {
    var r;
    r = VS_toss(n);
    return r;
}
proc main() {
    var a;
    a = helper(2);
    var b;
    b = a + VS_toss(1);
    send(out, b);
}
"""

CHANNELS_AND_ASSERT = """
proc producer(c, n) {
    var i;
    i = 0;
    while (i < n) {
        send(c, i);
        i = i + 1;
    }
}
proc consumer(c, n) {
    var i;
    i = 0;
    var v;
    while (i < n) {
        v = recv(c);
        VS_assert(v <= n);
        i = i + 1;
    }
}
"""

SEMAPHORE_DEADLOCK = """
proc grab(a, b) {
    sem_p(a);
    sem_p(b);
    sem_v(b);
    sem_v(a);
}
"""

SHARED_AND_VIOLATION = """
proc writer(v) {
    var t;
    t = VS_toss(2);
    write(v, t);
}
proc checker(v) {
    var x;
    x = read(v);
    VS_assert(x < 2);
}
"""

ARRAYS_AND_RECORDS = """
proc main() {
    var a[3];
    var i;
    i = VS_toss(2);
    a[i] = i * 7;
    var r;
    r.x = a[i];
    r.y = r.x % 4;
    VS_assert(r.y != 3);
    send(out, r.y);
}
"""

SWITCH_HEAVY = """
proc main() {
    var t;
    t = VS_toss(3);
    var o;
    if (t == 0) { o = 10; }
    else {
        if (t == 1) { o = 11; }
        else {
            if (t == 2) { o = 12; } else { o = 13; }
        }
    }
    send(out, o);
    send(out, o - t);
}
"""


def toss_call_system():
    system = System(TOSS_AND_CALL)
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


def channel_system():
    system = System(CHANNELS_AND_ASSERT)
    ref = system.add_channel("c", capacity=2)
    system.add_process("prod", "producer", [ref, 3])
    system.add_process("cons", "consumer", [ref, 3])
    return system


def deadlock_system():
    system = System(SEMAPHORE_DEADLOCK)
    s1 = system.add_semaphore("s1", initial=1)
    s2 = system.add_semaphore("s2", initial=1)
    system.add_process("a", "grab", [s1, s2])
    system.add_process("b", "grab", [s2, s1])
    return system


def shared_system():
    system = System(SHARED_AND_VIOLATION)
    v = system.add_shared("v", initial=0)
    system.add_process("w", "writer", [v])
    system.add_process("r", "checker", [v])
    return system


def arrays_system():
    system = System(ARRAYS_AND_RECORDS)
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


def switch_system():
    system = System(SWITCH_HEAVY)
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


FIXTURES = [
    toss_call_system,
    channel_system,
    deadlock_system,
    shared_system,
    arrays_system,
    switch_system,
]


# ---------------------------------------------------------------------------
# Comparison helper
# ---------------------------------------------------------------------------


def report_key(report):
    """Everything observable about a report, as a comparable value."""
    return {
        "summary": report.summary(),
        "states": report.states_visited,
        "transitions": report.transitions_executed,
        "toss_points": report.toss_points,
        "paths": report.paths_explored,
        "max_depth": report.max_depth_reached,
        "distinct": report.distinct_states,
        "truncated": report.truncated,
        "incomplete": report.incomplete,
        "events": [
            (type(e).__name__, e.trace.choices, tuple(e.trace.steps))
            for e in report.all_events()
        ],
        "groups": [
            (g.signature, g.count) for g in report.triage()
        ],
    }


def both_engines(make_system, **options):
    walk = run_search(make_system(), SearchOptions(engine="walk", **options))
    compiled = run_search(make_system(), SearchOptions(engine="compiled", **options))
    assert walk.stats.engine == "walk"
    assert compiled.stats.engine == "compiled", (
        "fixture unexpectedly fell back to the walking engine"
    )
    return walk, compiled


# ---------------------------------------------------------------------------
# DFS parity, across every backtracking / caching configuration
# ---------------------------------------------------------------------------


class TestDfsParity:
    @pytest.mark.parametrize("make_system", FIXTURES)
    def test_default_options(self, make_system):
        walk, compiled = both_engines(make_system, max_depth=40)
        assert report_key(walk) == report_key(compiled)

    @pytest.mark.parametrize("make_system", FIXTURES)
    def test_backtrack_replay(self, make_system):
        walk, compiled = both_engines(
            make_system, max_depth=40, backtrack="replay"
        )
        assert report_key(walk) == report_key(compiled)

    @pytest.mark.parametrize("make_system", FIXTURES)
    def test_backtrack_restore(self, make_system):
        walk, compiled = both_engines(
            make_system, max_depth=40, backtrack="restore"
        )
        assert report_key(walk) == report_key(compiled)
        # Restore-mode journaling must record the same undo traffic.
        assert walk.stats.restores == compiled.stats.restores
        assert walk.stats.undo_entries == compiled.stats.undo_entries

    @pytest.mark.parametrize("make_system", FIXTURES)
    def test_state_cache_safe(self, make_system):
        walk, compiled = both_engines(
            make_system, max_depth=40, state_cache="exact", cache_mode="safe"
        )
        assert report_key(walk) == report_key(compiled)
        assert walk.stats.cache_hits == compiled.stats.cache_hits
        assert walk.stats.cache_misses == compiled.stats.cache_misses

    @pytest.mark.parametrize("make_system", FIXTURES)
    def test_no_por_count_states(self, make_system):
        walk, compiled = both_engines(
            make_system, max_depth=30, por=False, count_states=True
        )
        assert report_key(walk) == report_key(compiled)


class TestParallelParity:
    def test_jobs_4(self):
        walk, compiled = both_engines(
            channel_system, strategy="parallel", jobs=4, max_depth=40
        )
        assert report_key(walk) == report_key(compiled)

    def test_jobs_1_pipeline(self):
        walk, compiled = both_engines(
            shared_system, strategy="parallel", jobs=1, max_depth=40
        )
        assert report_key(walk) == report_key(compiled)


class TestRandomWalkParity:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_seeded_walks_identical(self, seed):
        options = SearchOptions(strategy="random", walks=25, max_depth=30, seed=seed)
        walk = random_walks(toss_call_system(), options)
        compiled = random_walks(toss_call_system(), replace(options, engine="compiled"))
        assert compiled.stats.engine == "compiled"
        assert report_key(walk) == report_key(compiled)

    def test_seeded_walks_identical_with_events(self):
        options = SearchOptions(strategy="random", walks=50, max_depth=30, seed=3)
        walk = random_walks(shared_system(), options)
        compiled = random_walks(shared_system(), replace(options, engine="compiled"))
        assert report_key(walk) == report_key(compiled)


class TestRandomizedSchedules:
    """Drive identical random schedules through two live runs and compare
    every intermediate fingerprint — a finer probe than report parity."""

    @pytest.mark.parametrize("make_system", FIXTURES)
    def test_lockstep_fingerprints(self, make_system):
        for seed in (1, 2, 3):
            rng_a, rng_b = random.Random(seed), random.Random(seed)
            run_a = make_system().start(engine="walk")
            run_b = make_system().start(engine="compiled")
            assert run_b.engine == "compiled"
            run_a.start_processes()
            run_b.start_processes()
            for _ in range(60):
                assert run_a.state_fingerprint() == run_b.state_fingerprint()
                toss_a, toss_b = run_a.toss_pending(), run_b.toss_pending()
                assert (toss_a is None) == (toss_b is None)
                if toss_a is not None:
                    assert toss_a.name == toss_b.name
                    bound = toss_a.toss_request.bound
                    assert bound == toss_b.toss_request.bound
                    value = rng_a.randint(0, bound)
                    rng_b.randint(0, bound)
                    run_a.answer_toss(toss_a, value)
                    run_b.answer_toss(toss_b, value)
                    continue
                enabled_a = [p.name for p in run_a.enabled_processes()]
                enabled_b = [p.name for p in run_b.enabled_processes()]
                assert enabled_a == enabled_b
                if not enabled_a:
                    break
                pick = rng_a.choice(enabled_a)
                rng_b.choice(enabled_b)
                proc_a = next(p for p in run_a.processes if p.name == pick)
                proc_b = next(p for p in run_b.processes if p.name == pick)
                out_a = run_a.execute_visible(proc_a)
                out_b = run_b.execute_visible(proc_b)
                assert (out_a is None) == (out_b is None)
                if out_a is not None:
                    assert out_a.violated == out_b.violated
            statuses_a = [(p.name, p.status) for p in run_a.processes]
            statuses_b = [(p.name, p.status) for p in run_b.processes]
            assert statuses_a == statuses_b


class TestReplayAcrossEngines:
    def test_trace_found_on_walk_replays_on_compiled(self):
        report = run_search(
            deadlock_system(), SearchOptions(engine="walk", max_depth=20)
        )
        assert report.deadlocks
        trace = report.deadlocks[0].trace
        run = replay(deadlock_system(), trace, engine="compiled")
        assert run.engine == "compiled"
        assert not run.enabled_processes()

    def test_trace_found_on_compiled_replays_on_walk(self):
        report = run_search(
            shared_system(), SearchOptions(engine="compiled", max_depth=20)
        )
        assert report.violations
        trace = report.violations[0].trace
        run = replay(shared_system(), trace, engine="walk")
        assert any(p.status is not None for p in run.processes)


class TestFiveEssParity:
    """Counter parity on the bounded 5ESS case study — the acceptance
    bar of the compiled engine (same numbers, only faster)."""

    def test_bounded_5ess_counters_match(self):
        def make():
            app = build_app(n_lines=2, calls_per_line=1)
            return app.make_system(app.close(), with_maintenance=False)

        walk, compiled = both_engines(
            make, max_depth=40, max_paths=400, max_events=1000
        )
        assert report_key(walk) == report_key(compiled)
        assert walk.toss_points == compiled.toss_points
        assert [g.signature for g in walk.triage()] == [
            g.signature for g in compiled.triage()
        ]
