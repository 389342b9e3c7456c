"""Counterexample minimization: ddmin over choices + toss shrinking.

A depth-24 counterexample from the 5ESS search interleaves the buggy
scenario with dozens of irrelevant scheduling decisions; nobody debugs
from that.  Because the runtime is deterministic, *re-execution is a
perfect oracle*: a candidate choice sequence either reproduces the
violation signature or it does not, with zero flakiness — the ideal
setting for delta debugging.

Two passes:

1. **ddmin** (Zeller's delta-debugging minimization) over the choice
   sequence.  Candidates that drop a choice a later choice depends on
   simply fail to replay (the oracle answers "no"), so no dependency
   analysis is needed.  The result is 1-minimal: removing any single
   remaining choice breaks reproduction — which also makes shrinking
   idempotent (shrinking a shrunk trace is a no-op).
2. **Greedy toss minimization**: each surviving ``VS_toss`` answer is
   lowered toward 0 (smallest reproducing value wins), so environment
   inputs in the minimized scenario are as boring as possible — the
   concern *Environment Assumptions for Synthesis* frames as finding
   the weakest environment behaviour that still matters.

Every oracle query is a deterministic re-execution.  The oracle runs
on an :class:`~repro.counterex.replay.IncrementalReplayer`: consecutive
candidates share long prefixes, so each query rewinds one live
journaled run to the common prefix and executes only the differing
suffix — the same undo-journal machinery the restore-mode explorer
backtracks with.  ``oracle_runs`` in the :class:`ShrinkResult` reports
the query count; ``oracle_choices_applied`` / ``oracle_choices_reused``
report how much execution the checkpoint reuse avoided.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Any, Callable

from ..runtime.system import System
from ..verisoft.results import Choice, Trace, TossChoice
from .replay import IncrementalReplayer, ReplayOutcome, run_choices
from .triage import Signature, event_signature


class ShrinkError(ValueError):
    """The event to shrink does not reproduce on the given system."""


@dataclass
class ShrinkResult:
    """Outcome of minimizing one violation event."""

    #: The minimized event (same type/signature, minimal trace).
    event: Any
    #: The minimized replayable trace.
    trace: Trace
    #: Choice count before shrinking.
    original_length: int
    #: Deterministic re-executions the oracle performed.
    oracle_runs: int
    #: Choices the oracle actually executed (suffixes past retained
    #: checkpoint prefixes).
    oracle_choices_applied: int = 0
    #: Choices answered from a retained checkpoint prefix without
    #: re-execution.
    oracle_choices_reused: int = 0

    @property
    def shrunk_length(self) -> int:
        """Choice count after shrinking."""
        return len(self.trace.choices)

    def describe(self) -> str:
        """One-line summary of the shrink."""
        line = (
            f"shrunk {self.original_length} -> {self.shrunk_length} choices "
            f"({self.oracle_runs} oracle runs)"
        )
        total = self.oracle_choices_applied + self.oracle_choices_reused
        if total:
            pct = 100.0 * self.oracle_choices_reused / total
            line += f", {pct:.0f}% of oracle choices reused from checkpoints"
        return line


class _Oracle:
    """Memoizing reproduction oracle over candidate choice sequences.

    ``runner`` maps a candidate to a
    :class:`~repro.counterex.replay.ReplayOutcome`; :func:`shrink_choices`
    binds :meth:`IncrementalReplayer.run_choices` (checkpoint reuse).
    """

    def __init__(
        self,
        runner: Callable[[tuple[Choice, ...]], ReplayOutcome],
        signature: Signature,
        max_runs: int,
    ):
        self._runner = runner
        self._signature = signature
        self._max_runs = max_runs
        self._cache: dict[tuple[Choice, ...], bool] = {}
        self.runs = 0

    def __call__(self, candidate: tuple[Choice, ...]) -> bool:
        cached = self._cache.get(candidate)
        if cached is not None:
            return cached
        if self.runs >= self._max_runs:
            # Budget exhausted: answer "no" so every pass terminates
            # with the best reproducer found so far (still valid, just
            # possibly not 1-minimal).
            return False
        self.runs += 1
        outcome = self._runner(candidate)
        result = outcome.ok and self._signature in outcome.signatures()
        self._cache[candidate] = result
        return result


def ddmin(
    items: tuple,
    test: Callable[[tuple], bool],
) -> tuple:
    """Zeller's ddmin: a 1-minimal subsequence of ``items`` satisfying
    ``test``.  ``test(items)`` must hold on entry; the result ``r``
    satisfies ``test(r)`` and ``not test(r minus any single element)``.
    """
    assert test(items)
    n = 2
    while len(items) >= 2:
        chunk = len(items) / n
        some_complement_failed = False
        for index in range(n):
            lo = int(index * chunk)
            hi = int((index + 1) * chunk)
            complement = items[:lo] + items[hi:]
            if test(complement):
                items = complement
                n = max(n - 1, 2)
                some_complement_failed = True
                break
        if not some_complement_failed:
            if n >= len(items):
                break
            n = min(n * 2, len(items))
    return items


def _minimize_tosses(
    choices: tuple[Choice, ...], oracle: _Oracle
) -> tuple[Choice, ...]:
    """Lower every toss answer to the smallest value that still
    reproduces (ascending probe from 0, so the first hit is minimal)."""
    choices = tuple(choices)
    for index, choice in enumerate(choices):
        if not isinstance(choice, TossChoice) or choice.value == 0:
            continue
        for value in range(choice.value):
            candidate = (
                choices[:index]
                + (dc_replace(choice, value=value),)
                + choices[index + 1 :]
            )
            if oracle(candidate):
                choices = candidate
                break
    return choices


def shrink_choices(
    system: System,
    choices: tuple[Choice, ...],
    signature: Signature,
    *,
    max_oracle_runs: int = 100_000,
    tracer: Any | None = None,
    stats_out: dict | None = None,
) -> tuple[tuple[Choice, ...], int]:
    """Minimize ``choices`` while preserving the violation ``signature``.

    Returns ``(minimal choices, oracle runs)``.  Raises
    :class:`ShrinkError` when the original sequence does not reproduce
    the signature (wrong system, or a changed program).  ``tracer``
    records one span per ddmin / toss-minimize round (category
    ``"shrink"``), so slow shrinks show where the oracle runs went.

    The oracle queries run on an
    :class:`~repro.counterex.replay.IncrementalReplayer` (checkpoint
    reuse across the shared prefixes of consecutive candidates).
    ``stats_out``, when given, receives the oracle telemetry keys
    ``choices_applied`` and ``choices_reused``.
    """
    replayer = IncrementalReplayer(system)
    oracle = _Oracle(replayer.run_choices, signature, max_oracle_runs)
    minimal = tuple(choices)
    if not oracle(minimal):
        raise ShrinkError(
            "the original trace does not reproduce the violation on this "
            "system; run 'repro replay' for a divergence diagnosis"
        )
    # Iterate (ddmin ∘ toss-minimize) to a fixpoint.  The fixpoint makes
    # shrinking idempotent by construction — re-shrinking a shrunk trace
    # runs one verification pass that changes nothing — and the oracle's
    # memo cache makes that verification pass almost free.
    rounds = 0
    while True:
        before = minimal
        rounds += 1
        if tracer is None:
            minimal = ddmin(minimal, oracle)
            minimal = _minimize_tosses(minimal, oracle)
        else:
            with tracer.span(
                "ddmin", cat="shrink", round=rounds, length=len(minimal)
            ):
                minimal = ddmin(minimal, oracle)
            with tracer.span(
                "toss-minimize", cat="shrink", round=rounds, length=len(minimal)
            ):
                minimal = _minimize_tosses(minimal, oracle)
        if minimal == before:
            break
    if stats_out is not None:
        stats_out["choices_applied"] = replayer.choices_applied
        stats_out["choices_reused"] = replayer.choices_reused
    return minimal, oracle.runs


def shrink(
    system: System,
    event: Any,
    *,
    max_oracle_runs: int = 100_000,
    tracer: Any | None = None,
) -> ShrinkResult:
    """Minimize one violation event to its smallest reproducer.

    The returned :class:`ShrinkResult` carries a fresh event of the
    same violation signature whose trace is the 1-minimal choice
    sequence (with toss answers minimized toward 0), re-executed so the
    recorded steps describe the *minimal* scenario.  ``tracer`` records
    the per-round shrink spans (see :func:`shrink_choices`).
    """
    signature = event_signature(event)
    oracle_stats: dict = {}
    minimal, runs = shrink_choices(
        system,
        event.trace.choices,
        signature,
        max_oracle_runs=max_oracle_runs,
        tracer=tracer,
        stats_out=oracle_stats,
    )
    # The final pass stays a plain from-scratch replay: the persisted
    # minimal event must be reproduced by the same engine `repro replay`
    # will use, independent of any checkpoint state.
    final = run_choices(system, minimal, tracer=tracer)
    shrunk_event = next(
        e for e in final.events if event_signature(e) == signature
    )
    return ShrinkResult(
        event=shrunk_event,
        trace=shrunk_event.trace,
        original_length=len(event.trace.choices),
        oracle_runs=runs,
        oracle_choices_applied=oracle_stats.get("choices_applied", 0),
        oracle_choices_reused=oracle_stats.get("choices_reused", 0),
    )
