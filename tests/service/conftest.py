"""Shared builders for the exploration-service tests."""

import pytest

from repro import System, close_program

FIG3_SRC = """
proc q(x) {
    var cnt = 0;
    var odds = 0;
    while (cnt < 3) {
        var y = x % 2;
        if (y == 0) { send(out, 'even'); } else { send(out, 'odd'); odds = odds + 1; }
        VS_assert(odds < 2);
        x = x / 2;
        cnt = cnt + 1;
    }
}
"""

#: The stats fields that legitimately differ between scheduling regimes:
#: identity/configuration, the backtracking-cost group and the stealing
#: counters themselves.  Everything else must match counter-for-counter.
NON_PARITY_FIELDS = {
    "strategy",
    "backtrack",
    "replays",
    "replayed_transitions",
    "restores",
    "undo_entries",
    "checkpoint_memory_bytes",
    "wall_time",
    "cpu_time",
    "jobs",
    "leases",
    "steals",
    "leases_requeued",
}


def fig3_system(engine_probe=False):
    closed = close_program(FIG3_SRC, env_params={"q": ["x"]})
    system = System(closed.cfgs)
    system.add_env_sink("out")
    system.add_process("P", "q", [])
    return system


def racing_system():
    """Two producers racing into one consumer: scheduling nondeterminism
    (exercises schedule points, not just toss points)."""
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


def toss_loop_system(rounds=10):
    """2**rounds paths of pure toss nondeterminism — big enough that a
    stop request lands mid-search."""
    src = f"""
    proc main() {{
        var i = 0;
        while (i < {rounds}) {{
            var t;
            t = VS_toss(1);
            i = i + 1;
        }}
        send(out, i);
    }}
    """
    system = System(src)
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


def assert_report_parity(actual, expected, *, check_distinct=True):
    """Counter-for-counter report equality modulo NON_PARITY_FIELDS."""
    a = {
        k: v for k, v in actual.stats.as_dict().items() if k not in NON_PARITY_FIELDS
    }
    b = {
        k: v
        for k, v in expected.stats.as_dict().items()
        if k not in NON_PARITY_FIELDS
    }
    assert a == b, {
        key: (a.get(key), b.get(key))
        for key in set(a) | set(b)
        if a.get(key) != b.get(key)
    }
    if check_distinct:
        assert actual.distinct_states == expected.distinct_states
    assert [e.trace.choices for e in actual.all_events()] == [
        e.trace.choices for e in expected.all_events()
    ]
    assert sorted(g.signature for g in actual.triage()) == sorted(
        g.signature for g in expected.triage()
    )


@pytest.fixture()
def fig3():
    return fig3_system()
