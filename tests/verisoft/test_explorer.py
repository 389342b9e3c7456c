"""Tests for the stateless explorer."""


from tests.helpers import dfs_search
from repro import SearchOptions, System
from repro.verisoft import Explorer, collect_output_traces, replay


def make_system(source, channels=(), semaphores=(), shared=(), processes=()):
    system = System(source)
    system.add_env_sink("out")
    for name, cap in channels:
        system.add_channel(name, capacity=cap)
    for name, n in semaphores:
        system.add_semaphore(name, initial=n)
    for name, init in shared:
        system.add_shared(name, initial=init)
    for name, proc, args in processes:
        system.add_process(name, proc, args)
    return system


class TestTossEnumeration:
    def test_single_toss_path_count(self):
        system = make_system(
            "proc main() { var t; t = VS_toss(3); send(out, t); }",
            processes=[("p", "main", [])],
        )
        report = dfs_search(system, max_depth=10, por=False)
        assert report.paths_explored == 4
        assert report.ok

    def test_nested_toss_paths_multiply(self):
        system = make_system(
            """
            proc main() {
                var a;
                a = VS_toss(1);
                var b;
                b = VS_toss(2);
                send(out, a * 10 + b);
            }
            """,
            processes=[("p", "main", [])],
        )
        report = dfs_search(system, max_depth=10, por=False)
        assert report.paths_explored == 6

    def test_toss_values_all_observed(self):
        system = make_system(
            "proc main() { var t; t = VS_toss(2); send(out, t); }",
            processes=[("p", "main", [])],
        )
        traces = collect_output_traces(system, "out", max_depth=10)
        assert traces == {(0,), (1,), (2,)}

    def test_toss_zero_single_path(self):
        system = make_system(
            "proc main() { var t; t = VS_toss(0); send(out, t); }",
            processes=[("p", "main", [])],
        )
        report = dfs_search(system, max_depth=10)
        assert report.paths_explored == 1


class TestInterleavings:
    def test_two_independent_senders_no_por(self):
        source = """
        proc sender(ch) { send(ch, 1); }
        """
        system = System(source)
        system.add_channel("a", capacity=1)
        system.add_channel("b", capacity=1)
        system.add_channel("a2", capacity=1)  # unused by any process: naming check
        system.add_process("p1", "sender", [system.add_channel("c1", capacity=1)])
        system.add_process("p2", "sender", [system.add_channel("c2", capacity=1)])
        report = dfs_search(system, max_depth=10, por=False)
        # two interleavings of two independent sends
        assert report.paths_explored == 2

    def test_por_prunes_independent_interleavings(self):
        source = "proc sender(ch) { send(ch, 1); }"
        system = System(source)
        system.add_process("p1", "sender", [system.add_channel("c1", capacity=1)])
        system.add_process("p2", "sender", [system.add_channel("c2", capacity=1)])
        report = dfs_search(system, max_depth=10, por=True)
        assert report.paths_explored == 1

    def test_conflicting_ops_not_pruned(self):
        # Both processes receive from the same channel: order matters.
        source = """
        proc producer() { send(c, 1); send(c, 2); }
        proc taker(tag) { var v; v = recv(c); send(out, tag * 100 + v); }
        """
        system = make_system(
            source,
            channels=[("c", 2)],
            processes=[
                ("prod", "producer", []),
                ("t1", "taker", [1]),
                ("t2", "taker", [2]),
            ],
        )
        traces = collect_output_traces(system, "out", max_depth=20)
        flat = {frozenset(t) for t in traces}
        assert frozenset({101, 202}) in flat
        assert frozenset({102, 201}) in flat


class TestDeadlocks:
    def test_cross_semaphore_deadlock_found(self):
        source = """
        proc grab(first, second) {
            sem_p(first);
            sem_p(second);
            sem_v(second);
            sem_v(first);
        }
        """
        system = System(source)
        s1 = system.add_semaphore("s1", 1)
        s2 = system.add_semaphore("s2", 1)
        system.add_process("a", "grab", [s1, s2])
        system.add_process("b", "grab", [s2, s1])
        report = dfs_search(system, max_depth=20)
        assert report.deadlocks
        assert set(report.deadlocks[0].blocked) == {"a", "b"}

    def test_por_preserves_deadlock_detection(self):
        source = """
        proc grab(first, second) {
            sem_p(first);
            sem_p(second);
            sem_v(second);
            sem_v(first);
        }
        """
        for por in (False, True):
            system = System(source)
            s1 = system.add_semaphore("s1", 1)
            s2 = system.add_semaphore("s2", 1)
            system.add_process("a", "grab", [s1, s2])
            system.add_process("b", "grab", [s2, s1])
            report = dfs_search(system, max_depth=20, por=por)
            assert report.deadlocks, f"por={por}"

    def test_no_false_deadlock_on_clean_termination(self):
        system = make_system(
            "proc main() { send(out, 1); }", processes=[("p", "main", [])]
        )
        report = dfs_search(system, max_depth=10)
        assert not report.deadlocks

    def test_deadlock_trace_replays(self):
        source = """
        proc grab(first, second) {
            sem_p(first);
            sem_p(second);
            sem_v(second);
            sem_v(first);
        }
        """
        system = System(source)
        s1 = system.add_semaphore("s1", 1)
        s2 = system.add_semaphore("s2", 1)
        system.add_process("a", "grab", [s1, s2])
        system.add_process("b", "grab", [s2, s1])
        report = dfs_search(system, max_depth=20)
        run = replay(system, report.deadlocks[0].trace)
        assert run.is_deadlock()


class TestAssertionViolations:
    def test_race_violation_found(self):
        # Increment is not atomic: read, then write.
        source = """
        proc incr() {
            var v;
            v = read(counter);
            write(counter, v + 1);
        }
        proc checker() {
            var v;
            v = read(counter);
            if (v == 2) { VS_assert(false); }
        }
        """
        system = make_system(
            source,
            shared=[("counter", 0)],
            processes=[("i1", "incr", []), ("i2", "incr", []), ("c", "checker", [])],
        )
        report = dfs_search(system, max_depth=20, por=False)
        assert report.violations

    def test_lost_update_both_outcomes_seen(self):
        source = """
        proc incr() {
            var v;
            v = read(counter);
            write(counter, v + 1);
        }
        proc watcher(n) {
            var i = 0;
            while (i < n) { i = i + 1; }
            var v;
            v = read(counter);
            send(out, v);
        }
        """
        system = make_system(
            source,
            shared=[("counter", 0)],
            processes=[("i1", "incr", []), ("i2", "incr", []), ("w", "watcher", [0])],
        )
        traces = collect_output_traces(system, "out", max_depth=20)
        observed = {t[0] for t in traces if t}
        # Lost update (1) and both-complete (2), plus early reads (0).
        assert {1, 2} <= observed

    def test_stop_on_first(self):
        system = make_system(
            "proc main() { VS_assert(false); VS_assert(false); }",
            processes=[("p", "main", [])],
        )
        report = dfs_search(system, max_depth=10, stop_on_first=True)
        assert len(report.violations) == 1
        assert report.paths_explored == 1


class TestEventsAndBudgets:
    def test_crash_event_recorded_once(self):
        system = make_system(
            "proc main() { var x = 1 / 0; }", processes=[("p", "main", [])]
        )
        report = dfs_search(system, max_depth=10)
        assert len(report.crashes) == 1
        assert "division by zero" in report.crashes[0].message

    def test_divergence_event(self):
        from repro.runtime import SystemConfig

        system = System(
            "proc main() { while (true) { var x = 1; } }",
            config=SystemConfig(divergence_budget=200),
        )
        system.add_process("p", "main")
        report = dfs_search(system, max_depth=10)
        assert len(report.divergences) == 1

    def test_max_depth_truncates(self):
        system = make_system(
            "proc main() { while (true) { send(out, 1); } }",
            processes=[("p", "main", [])],
        )
        report = dfs_search(system, max_depth=5)
        assert report.truncated
        assert report.max_depth_reached == 5

    def test_max_paths_budget(self):
        system = make_system(
            "proc main() { var t; t = VS_toss(9); send(out, t); }",
            processes=[("p", "main", [])],
        )
        report = dfs_search(system, max_depth=10, max_paths=3)
        assert report.paths_explored == 3
        assert report.truncated

    def test_stats_not_double_counted_by_replay(self):
        # 4-leaf toss tree: 1 toss point, 4 sends, 4 paths.
        system = make_system(
            "proc main() { var t; t = VS_toss(3); send(out, t); }",
            processes=[("p", "main", [])],
        )
        report = dfs_search(system, max_depth=10, por=False)
        assert report.toss_points == 1
        assert report.transitions_executed == 4

    def test_distinct_state_counting(self):
        system = make_system(
            "proc main() { var t; t = VS_toss(1); send(out, 0); }",
            processes=[("p", "main", [])],
        )
        report = dfs_search(system, max_depth=10, count_states=True, por=False)
        assert report.distinct_states is not None
        # Both toss branches produce bisimilar but distinct stores (t=0/1).
        assert report.distinct_states >= 3


class TestReplay:
    def test_replay_reproduces_outputs(self):
        system = make_system(
            """
            proc main() {
                var t;
                t = VS_toss(2);
                send(out, t * 10);
            }
            """,
            processes=[("p", "main", [])],
        )
        seen = []

        def on_leaf(run, trace):
            seen.append((tuple(run.env_outputs("out")), trace))

        Explorer(
            system, SearchOptions(max_depth=10, por=False, on_leaf=on_leaf)
        ).run()
        assert len(seen) == 3
        for outputs, trace in seen:
            rerun = replay(system, trace)
            assert tuple(rerun.env_outputs("out")) == outputs
