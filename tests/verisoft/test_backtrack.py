"""Replay vs restore backtracking: exact observable equivalence.

The restore mode must be a pure performance substitution — the same
choice tree, the same POR decisions, the same events in the same order,
every counter identical except the ones that *measure the backtracking
itself* (``replays``/``replayed_transitions`` vs
``restores``/``undo_entries``/``checkpoint_memory_bytes``).  These
tests assert that contract on the paper's systems (Figure 2, Figure 3,
the bounded 5ESS application), on a seeded generator of random tiny
closed systems, and through the parallel (work-stealing) strategy and
the state-cache safe mode.
"""

import random

import pytest

from repro import SearchOptions, System, run_search
from repro.fiveess import build_app
from tests.statespace.conftest import (
    FIG2_SRC,
    FIG3_SRC,
    deadlock_system,
    figure_system,
    triage_signatures,
)

#: SearchStats fields that measure *how* the search backtracked (or, for
#: the work-stealing counters, how timing split it into leases) rather
#: than *what* it explored; everything else must match exactly.
MODE_SPECIFIC = {
    "backtrack",
    "replays",
    "replayed_transitions",
    "restores",
    "undo_entries",
    "checkpoint_memory_bytes",
    "wall_time",
    "cpu_time",
    "leases",
    "steals",
    "leases_requeued",
}


def assert_equivalent(replay_report, restore_report):
    """Counter-for-counter, event-for-event equality of two reports."""
    a, b = replay_report.stats.as_dict(), restore_report.stats.as_dict()
    for key in a:
        if key in MODE_SPECIFIC:
            continue
        assert a[key] == b[key], f"{key}: replay={a[key]} restore={b[key]}"
    assert replay_report.stats.backtrack == "replay"
    assert restore_report.stats.backtrack == "restore"

    assert sorted(str(e) for e in replay_report.all_events()) == sorted(
        str(e) for e in restore_report.all_events()
    )
    assert triage_signatures(replay_report) == triage_signatures(restore_report)
    assert replay_report.summary() == restore_report.summary()

    # Restore mode never re-executes: `replays` stays 0 even where the
    # parallel strategy replays each lease's prefix once.
    assert restore_report.stats.replays == 0
    # Whether restore mode had anything to rewind depends on how the
    # tree was split.  Only sequential DFS and jobs=1 split it the same
    # way in both modes; with more workers a lease can be stolen down to
    # a single path, which backtracks nowhere.
    deterministic = restore_report.stats.jobs == 1
    if deterministic and replay_report.stats.replays:
        assert restore_report.stats.restores > 0


def both_modes(build_system, **options):
    reports = {}
    for mode in ("replay", "restore"):
        reports[mode] = run_search(
            build_system(), SearchOptions(backtrack=mode, **options)
        )
    return reports["replay"], reports["restore"]


class TestPaperSystems:
    def test_fig2_dfs(self):
        replay, restore = both_modes(
            lambda: figure_system(FIG2_SRC, "p"), max_depth=60
        )
        assert_equivalent(replay, restore)
        assert restore.stats.replayed_transitions == 0
        assert restore.stats.replay_fraction == 0.0

    def test_fig3_dfs(self):
        replay, restore = both_modes(
            lambda: figure_system(FIG3_SRC, "q"), max_depth=60
        )
        assert_equivalent(replay, restore)
        assert restore.stats.replayed_transitions == 0

    def test_deadlock_dfs(self):
        replay, restore = both_modes(deadlock_system, max_depth=20)
        assert_equivalent(replay, restore)
        assert not restore.ok  # the deadlock is still found

    def test_fiveess_dfs(self):
        replay, restore = both_modes(
            _fiveess_system, max_depth=12, max_events=10_000
        )
        assert_equivalent(replay, restore)
        assert restore.stats.replayed_transitions == 0
        # The headline claim, scaled down: replay re-executes a large
        # multiple of the fresh transitions; restore none at all.
        assert (
            replay.stats.replayed_transitions
            > replay.stats.transitions_executed
        )

    def test_fig2_parallel(self):
        replay, restore = both_modes(
            lambda: figure_system(FIG2_SRC, "p"),
            strategy="parallel",
            jobs=4,
            max_depth=60,
        )
        assert_equivalent(replay, restore)

    def test_fiveess_parallel(self):
        replay, restore = both_modes(
            _fiveess_system,
            strategy="parallel",
            jobs=2,
            max_depth=12,
            max_events=10_000,
        )
        assert_equivalent(replay, restore)


def _fiveess_system():
    app = build_app(n_lines=2, calls_per_line=1)
    return app.make_system(app.close(), with_maintenance=False)


# ---------------------------------------------------------------------------
# Randomized tiny closed systems
# ---------------------------------------------------------------------------

# Statement templates a generated process body draws from.  ``{i}`` is
# the process id, so asserts can be made to fail for specific
# process/toss combinations without being trivially always-false.
_OPS = (
    "send(ch, {i});",
    "var r{n}; r{n} = recv(ch);",
    "sem_p(lock); sem_v(lock);",
    "write(sv, {i});",
    "var t{n}; t{n} = VS_toss(2); write(sv, t{n});",
    "VS_assert(read(sv) != 42);",
    "sem_p(lock); write(sv, read(sv) + 1); sem_v(lock);",
    "send(out, read(sv));",
)


def random_system(seed: int) -> System:
    """A random tiny closed system: 2 processes, 1-3 ops each, drawn
    from channel/semaphore/shared/toss/assert templates.  Some seeds
    deadlock (unmatched recv), some violate (``sv`` reaching 42 is rare
    but possible via the toss-write ops), most terminate — all of it
    must be reported identically by both backtracking modes."""
    rng = random.Random(seed)
    procs = []
    for i in range(2):
        ops = [
            rng.choice(_OPS).format(i=i + 1, n=n)
            for n in range(rng.randint(1, 3))
        ]
        body = "\n    ".join(ops)
        procs.append(f"proc p{i}() {{\n    {body}\n}}")
    system = System("\n".join(procs))
    system.add_channel("ch", capacity=rng.choice([1, 2]))
    system.add_semaphore("lock", initial=1)
    system.add_shared("sv", initial=rng.choice([0, 41]))
    system.add_env_sink("out")
    for i in range(2):
        system.add_process(f"P{i}", f"p{i}", [])
    return system


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(25))
    def test_dfs_parity(self, seed):
        replay, restore = both_modes(
            lambda: random_system(seed), max_depth=30
        )
        assert_equivalent(replay, restore)
        assert restore.stats.replayed_transitions == 0

    @pytest.mark.parametrize("seed", range(0, 25, 5))
    def test_state_cache_safe_parity(self, seed):
        replay, restore = both_modes(
            lambda: random_system(seed),
            max_depth=30,
            state_cache="exact",
            cache_mode="safe",
        )
        assert_equivalent(replay, restore)

    @pytest.mark.parametrize("seed", range(0, 25, 5))
    def test_parallel_parity(self, seed):
        replay, restore = both_modes(
            lambda: random_system(seed),
            strategy="parallel",
            jobs=4,
            max_depth=30,
        )
        assert_equivalent(replay, restore)


class TestFallback:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="backtrack"):
            run_search(
                figure_system(FIG2_SRC, "p"),
                SearchOptions(backtrack="checkpointless"),
            )
