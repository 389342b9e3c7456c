"""Differential fuzzing of the incremental-fingerprint hot loop.

Seeded random closed systems — two processes over a random mix of
channels, semaphores, shared variables and ``VS_toss`` points — are
driven in **lockstep** under every execution/fingerprint configuration,
and the configurations must agree exactly:

* **Engine lockstep** (:class:`TestEngineFingerprintLockstep`): a walk
  run and a compiled run of the same system take the same schedule; the
  canonical state key (incremental fingerprints) must be bit-identical
  between the engines, equal to the full-recompute oracle
  (:func:`repro.statespace.snapshot.snapshot`), and must survive
  random checkpoint/restore (LIFO discipline) — after every single
  transition, toss answer and restore.
* **Search-config lockstep** (:class:`TestSearchConfigLockstep`): the
  exhaustive bounded DFS under walk/replay, walk/restore,
  compiled/replay and compiled/restore must produce identical counters
  *and identical fingerprint sets* — not just equal counts.
* **Crash recovery** (:class:`TestKilledWorkerFuzz`, slow): the same
  randomized systems searched by the work-stealing scheduler with a
  worker SIGKILLed mid-subtree; the re-queued lease must restore the
  exact sequential report, distinct-state fingerprint count included.

The generator emits only bounded loops (no divergence) and avoids
pointers, so every generated system is compilable and
the incremental fingerprint path (not the pointer-gated fallback) is
the one under test.
"""

from __future__ import annotations

import random

import pytest

from repro import SearchOptions, System, run_search
from repro.service import work_stealing_search
from repro.statespace.snapshot import snapshot
from repro.runtime.fingerprint import decode_canonical
from repro.verisoft.explorer import Explorer

from tests.service.conftest import assert_report_parity

# ---------------------------------------------------------------------------
# Random closed-system generator
# ---------------------------------------------------------------------------

#: Statement templates; ``{v}`` is a scratch variable, ``{i}`` the loop
#: counter of the innermost bounded loop.
_SIMPLE = [
    "send(out, {v});",
    "send(out, {v} + {k});",
    "{v} = {v} + {k};",
    "{v} = VS_toss({t});",
    "write(g, {v});",
    "{v} = read(g);",
    "sem_v(s);",
    "VS_assert({v} < 90);",
]

#: Potentially-blocking statements (channels/semaphores) — kept rarer so
#: most generated schedules make progress on both processes.
_BLOCKING = [
    "send(ch, {v});",
    "{v} = recv(ch);",
    "sem_p(s);",
]


def _statements(rng: random.Random, depth: int) -> list[str]:
    out: list[str] = []
    for _ in range(rng.randint(2, 4)):
        roll = rng.random()
        if roll < 0.15 and depth < 2:
            # Bounded loop: always terminates, fans the schedule out.
            bound = rng.randint(1, 2)
            var = f"i{depth}"
            body = " ".join(_statements(rng, depth + 1))
            out.append(
                f"var {var}; {var} = 0; "
                f"while ({var} < {bound}) {{ {body} {var} = {var} + 1; }}"
            )
        elif roll < 0.3 and depth < 2:
            then = " ".join(_statements(rng, depth + 1))
            other = " ".join(_statements(rng, depth + 1))
            out.append(f"if (v % 2 == 0) {{ {then} }} else {{ {other} }}")
        elif roll < 0.45:
            out.append(rng.choice(_BLOCKING).format(v="v", k=rng.randint(0, 5)))
        else:
            out.append(
                rng.choice(_SIMPLE).format(
                    v="v", k=rng.randint(0, 5), t=rng.randint(1, 2)
                )
            )
    return out


def random_system(seed: int) -> System:
    """A seeded random closed two-process system (compilable,
    divergence-free)."""
    rng = random.Random(seed)
    procs = []
    for index in range(2):
        body = " ".join(_statements(rng, 0))
        procs.append(
            f"proc work{index}(start) {{ var v; v = start; {body} send(out, v); }}"
        )
    system = System("\n".join(procs))
    system.add_env_sink("out")
    system.add_channel("ch", capacity=rng.randint(1, 2))
    system.add_semaphore("s", initial=1)
    system.add_shared("g", initial=0)
    system.add_process("A", "work0", [rng.randint(0, 3)])
    system.add_process("B", "work1", [rng.randint(0, 3)])
    return system


SEEDS = list(range(8))


# ---------------------------------------------------------------------------
# Engine + fingerprint lockstep
# ---------------------------------------------------------------------------


def _check_keys(runs) -> None:
    """All runs must agree on the canonical key, the key must equal the
    full-recompute oracle, and it must decode to the structured
    fingerprint."""
    keys = [run.state_key() for run in runs]
    assert len(set(keys)) == 1, "engines disagree on the canonical state key"
    for run, key in zip(runs, keys):
        assert key == snapshot(run), "incremental key != full recompute"
        assert decode_canonical(key) == run.state_fingerprint()


class TestEngineFingerprintLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_walk_and_compiled_agree_after_every_step(self, seed):
        rng = random.Random(1000 + seed)
        runs = []
        for engine in ("walk", "compiled"):
            system = random_system(seed)
            assert system.compiled_program() is not None
            run = system.start(journal=True, engine=engine)
            run.start_processes()
            runs.append(run)
        checkpoints: list[list] = []
        for _ in range(200):
            _check_keys(runs)
            tossing = [run.toss_pending() for run in runs]
            names = {t.name if t is not None else None for t in tossing}
            assert len(names) == 1, "engines disagree on the pending toss"
            if tossing[0] is not None:
                value = rng.randint(0, tossing[0].toss_request.bound)
                for run, process in zip(runs, tossing):
                    run.answer_toss(process, value)
                continue
            enabled = [
                sorted(p.name for p in run.enabled_processes()) for run in runs
            ]
            assert enabled[0] == enabled[1], "engines disagree on enabledness"
            roll = rng.random()
            if checkpoints and (roll < 0.2 or not enabled[0]):
                # Restore both runs to the same checkpoint; LIFO
                # discipline (younger checkpoints die with the rewind).
                index = rng.randrange(len(checkpoints))
                for run, checkpoint in zip(runs, checkpoints[index]):
                    run.restore(checkpoint)
                del checkpoints[index + 1 :]
                _check_keys(runs)
                continue
            if not enabled[0]:
                break
            if roll > 0.8:
                checkpoints.append([run.checkpoint() for run in runs])
            chosen = rng.choice(enabled[0])
            for run in runs:
                run.execute_visible(run.process_map[chosen])


# ---------------------------------------------------------------------------
# Search-configuration lockstep
# ---------------------------------------------------------------------------

CONFIGS = [
    ("walk", "replay"),
    ("walk", "restore"),
    ("compiled", "replay"),
    ("compiled", "restore"),
]

COUNTERS = (
    "states_visited",
    "transitions_executed",
    "toss_points",
    "paths_explored",
)


class TestSearchConfigLockstep:
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_all_configs_identical_counters_and_fingerprints(self, seed):
        results = {}
        for engine, backtrack in CONFIGS:
            explorer = Explorer(
                random_system(seed),
                SearchOptions(
                    max_depth=14,
                    engine=engine,
                    backtrack=backtrack,
                    count_states=True,
                    max_transitions=4000,
                ),
            )
            report = explorer.run()
            results[(engine, backtrack)] = (report, explorer.seen_states)

        base_report, base_fps = results[("walk", "replay")]
        assert base_report.states_visited > 0
        for config, (report, fingerprints) in results.items():
            for counter in COUNTERS:
                assert getattr(report, counter) == getattr(base_report, counter), (
                    config,
                    counter,
                )
            assert len(report.triage()) == len(base_report.triage()), config
            # The strong form: the *sets of canonical fingerprints* are
            # identical, not merely equinumerous.
            assert fingerprints == base_fps, config


# ---------------------------------------------------------------------------
# Crash recovery: SIGKILL mid-subtree, lease re-queued
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestKilledWorkerFuzz:
    # Seeds chosen for real path fan-out (hundreds / dozens of paths) so
    # the kill always lands mid-subtree with work left to re-queue.
    @pytest.mark.parametrize("seed", [6, 13])
    def test_killed_worker_report_matches_sequential(self, seed):
        base = run_search(
            random_system(seed),
            SearchOptions(strategy="dfs", count_states=True, max_depth=14),
        )
        report = work_stealing_search(
            random_system(seed),
            SearchOptions(
                strategy="parallel",
                jobs=2,
                count_states=True,
                max_depth=14,
            ),
            kill_worker_after_paths=2,
        )
        assert report.stats.leases_requeued >= 1
        assert_report_parity(report, base)
