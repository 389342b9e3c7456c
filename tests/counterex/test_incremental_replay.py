"""The checkpoint-reusing oracle substrate (IncrementalReplayer).

Contract: ``IncrementalReplayer(system).run_choices(c)`` is observably
identical to ``run_choices(system, c)`` for *any* sequence of queries —
same ok/applied/signatures/steps on every candidate, regardless of how
the candidates relate — while executing only the suffix past the common
prefix with the previous query.  The shrink pipeline runs its oracle
on it and reports the reuse telemetry.
"""

import importlib

import pytest

from repro import SearchOptions, run_search
from repro.counterex import IncrementalReplayer, run_choices, shrink
from repro.counterex.triage import event_signature
from repro.verisoft.results import ScheduleChoice, TossChoice

from .conftest import (
    FIG2_SRC,
    deadlock_system,
    figure_system,
    noisy_assert_system,
)


def first_event(system):
    report = run_search(system, SearchOptions(max_depth=60, max_events=100))
    return next(e for e in report.all_events() if e.trace.choices)


def assert_same_outcome(plain, incremental):
    assert plain.ok == incremental.ok
    assert plain.applied == incremental.applied
    assert plain.signatures() == incremental.signatures()
    assert [str(s) for s in plain.trace.steps] == [
        str(s) for s in incremental.trace.steps
    ]
    if not plain.ok:
        assert plain.mismatch.index == incremental.mismatch.index
        assert plain.mismatch.reason == incremental.mismatch.reason


def shrink_like_candidates(choices):
    """The query mix ddmin generates: the full sequence, prefixes,
    drop-one complements, then the full sequence again (memo-style
    revisit after the live run moved elsewhere)."""
    candidates = [choices]
    for k in range(len(choices)):
        candidates.append(choices[:k])
        candidates.append(choices[:k] + choices[k + 1 :])
    candidates.append(choices)
    return candidates


class TestEquivalence:
    @pytest.mark.parametrize("build", [deadlock_system, noisy_assert_system])
    def test_matches_plain_replay_on_candidate_mix(self, build):
        event = first_event(build())
        incremental = IncrementalReplayer(build())
        for candidate in shrink_like_candidates(event.trace.choices):
            assert_same_outcome(
                run_choices(build(), candidate),
                incremental.run_choices(candidate),
            )
        assert incremental.choices_reused > 0
        assert incremental.restores > 0

    def test_assertion_violations_recorded_in_reused_prefix(self):
        """A violation that fired inside the retained prefix must appear
        in later outcomes without re-executing that prefix."""
        build = noisy_assert_system
        event = first_event(build())
        choices = event.trace.choices
        incremental = IncrementalReplayer(build())
        first = incremental.run_choices(choices)
        assert event_signature(event) in first.signatures()
        # Extending the sequence reuses the violating prefix wholesale.
        extended = choices + (ScheduleChoice("n"),)
        applied_before = incremental.choices_applied
        second = incremental.run_choices(extended)
        assert event_signature(event) in second.signatures()
        assert incremental.choices_applied == applied_before + 1
        assert_same_outcome(run_choices(build(), extended), second)

    def test_rejected_candidate_leaves_live_run_usable(self):
        """A mismatching candidate must not corrupt the retained state:
        the very next query still answers correctly."""
        build = deadlock_system
        event = first_event(build())
        choices = event.trace.choices
        incremental = IncrementalReplayer(build())
        bogus = choices[:2] + (ScheduleChoice("ghost"),) + choices[2:]
        assert not incremental.run_choices(bogus).ok
        good = incremental.run_choices(choices)
        assert good.ok
        assert event_signature(event) in good.signatures()

    def test_toss_variants_share_the_pre_toss_prefix(self):
        system = figure_system(FIG2_SRC, "p")
        event = first_event(system)
        choices = event.trace.choices
        toss_at = next(
            i for i, c in enumerate(choices) if isinstance(c, TossChoice)
        )
        incremental = IncrementalReplayer(figure_system(FIG2_SRC, "p"))
        incremental.run_choices(choices)
        variant = (
            choices[:toss_at]
            + (TossChoice(choices[toss_at].process, 0),)
            + choices[toss_at + 1 :]
        )
        reused_before = incremental.choices_reused
        outcome = incremental.run_choices(variant)
        assert incremental.choices_reused - reused_before == toss_at
        assert_same_outcome(
            run_choices(figure_system(FIG2_SRC, "p"), variant), outcome
        )


class TestShrinkIntegration:
    def test_shrink_uses_incremental_oracle_and_reports_reuse(self):
        # Pad the minimal reproducer with irrelevant noise scheduling so
        # ddmin has real work to do (and candidates share real prefixes).
        core = first_event(noisy_assert_system()).trace.choices
        padded = core[:1] + (ScheduleChoice("n"),) * 3 + core[1:]
        outcome = run_choices(noisy_assert_system(), padded)
        assert outcome.ok and outcome.events
        event = outcome.events[0]
        result = shrink(noisy_assert_system(), event)
        assert result.oracle_choices_reused > 0
        assert "reused from checkpoints" in result.describe()
        # The minimized trace still reproduces on a *plain* replay.
        outcome = run_choices(noisy_assert_system(), result.trace.choices)
        assert outcome.ok
        assert event_signature(event) in outcome.signatures()

    def test_shrink_result_unchanged_by_oracle_substrate(self, monkeypatch):
        """Checkpoint reuse is a pure speedup: a plain from-scratch
        oracle must give the identical minimal trace and query count."""
        event = first_event(noisy_assert_system())
        fast = shrink(noisy_assert_system(), event)

        # The package re-exports the shrink() function under the
        # submodule's name, so fetch the module itself.
        shrink_module = importlib.import_module("repro.counterex.shrink")

        class PlainReplayer:
            choices_applied = choices_reused = 0

            def __init__(self, system):
                self._system = system

            def run_choices(self, choices):
                return run_choices(self._system, choices)

        monkeypatch.setattr(shrink_module, "IncrementalReplayer", PlainReplayer)
        slow = shrink(noisy_assert_system(), event)
        assert slow.oracle_choices_reused == 0
        assert slow.trace.choices == fast.trace.choices
        assert slow.oracle_runs == fast.oracle_runs
