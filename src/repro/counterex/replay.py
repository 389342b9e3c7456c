"""Replay persisted traces and diagnose divergence.

Re-executing a choice sequence on a deterministic runtime either
reproduces the recorded violation exactly or tells you something
changed.  :func:`run_choices` is the shared execution engine (also the
shrinking oracle's substrate): it applies a choice sequence via
:func:`repro.verisoft.explorer.replay`, observes every assertion
outcome, and classifies the final state — collecting typed violation
events exactly as the explorer would have recorded them.
:class:`IncrementalReplayer` is the checkpoint-reusing variant for
query-heavy callers (shrinking): one journaled run, rewound to the
common prefix of consecutive candidates instead of re-executed from
the initial state.

:func:`verify_trace` layers the diagnosis on top for ``repro replay``:
given a loaded :class:`~repro.counterex.traceio.TraceFile` and a
rebuilt system it reports one of

* ``reproduced`` — the recorded violation signature occurred again;
* ``diverged`` — a recorded choice no longer applies (the program
  changed shape: a process is missing, an operation is disabled, a
  ``VS_toss`` bound shrank), with the failing index and reason;
* ``different-violation`` — the replay succeeded but ended in a
  *different* violation signature;
* ``no-violation`` — the replay succeeded and nothing went wrong (the
  bug was fixed, or the trace is stale).

A system-fingerprint mismatch is reported alongside whichever verdict
applies: a changed fingerprint *explains* a divergence, while
``reproduced`` despite a changed fingerprint means the edit did not
affect this scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..runtime.process import ProcessStatus
from ..runtime.system import Run, System
from ..verisoft.explorer import ReplayMismatch, _blocked_info, apply_choice, replay
from ..verisoft.results import (
    AssertionViolationEvent,
    Choice,
    CrashEvent,
    DeadlockEvent,
    DivergenceEvent,
    Trace,
    TraceStep,
)
from .traceio import TraceFile
from .triage import Signature, event_signature


@dataclass
class ReplayOutcome:
    """What actually happened when a choice sequence was re-executed."""

    #: Choices successfully applied (== ``len(choices)`` iff no mismatch).
    applied: int
    #: The structured mismatch, when a choice failed to apply.
    mismatch: ReplayMismatch | None
    #: The executed trace: applied choices + reconstructed steps.
    trace: Trace
    #: Typed violation events observed (assertion violations as they
    #: fired; deadlock / crash / divergence from the final state).
    events: list = field(default_factory=list)
    #: The final run, for state inspection (``None`` after a mismatch).
    run: Run | None = None

    @property
    def ok(self) -> bool:
        """Every choice applied cleanly."""
        return self.mismatch is None

    def signatures(self) -> list[Signature]:
        """Triage signatures of the observed events, in order."""
        return [event_signature(event) for event in self.events]


def run_choices(
    system: System,
    choices: tuple[Choice, ...] | list,
    tracer: Any | None = None,
    engine: str = "walk",
) -> ReplayOutcome:
    """Deterministically re-execute ``choices`` and observe violations.

    Never raises on divergence — a failed choice yields an outcome with
    ``ok=False`` and the mismatch recorded, which is exactly the "this
    candidate does not reproduce" answer the shrinking oracle needs.

    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`), when given,
    records the whole re-execution as one ``"replay"`` span carrying
    the prefix length — replay prefixes show up on the run timeline.
    ``engine`` picks the execution engine; both engines replay any
    trace identically (the choice tree is engine-independent).
    """
    if tracer is not None:
        with tracer.span("replay", cat="replay", n_choices=len(choices)):
            return run_choices(system, choices, engine=engine)
    choices = tuple(choices)
    steps: list[TraceStep] = []
    events: list[Any] = []
    applied = 0

    def on_step(index: int, choice: Choice, request, outcome) -> None:
        nonlocal applied
        applied = index + 1
        if request is not None:
            obj_name = request.obj.name if request.obj is not None else None
            steps.append(TraceStep(choice.process, request.op, obj_name, ""))
        if outcome is not None and outcome.violated:
            events.append(
                AssertionViolationEvent(
                    Trace(choices[:applied], tuple(steps)),
                    outcome.process,
                    outcome.proc_name,
                    outcome.node_id,
                )
            )

    try:
        run = replay(system, choices, on_step=on_step, engine=engine)
    except ReplayMismatch as mismatch:
        return ReplayOutcome(
            applied=applied,
            mismatch=mismatch,
            trace=Trace(choices[:applied], tuple(steps)),
            events=events,
            run=None,
        )

    trace = Trace(choices, tuple(steps))
    for process in run.processes:
        if process.status is ProcessStatus.CRASHED:
            events.append(CrashEvent(trace, process.name, str(process.crash)))
        elif process.status is ProcessStatus.DIVERGED:
            events.append(DivergenceEvent(trace, process.name))
    if run.is_deadlock():
        events.append(DeadlockEvent(trace, *_blocked_info(run)))
    return ReplayOutcome(
        applied=applied, mismatch=None, trace=trace, events=events, run=run
    )


class IncrementalReplayer:
    """A checkpoint-reusing drop-in for :func:`run_choices`.

    The shrinking oracle executes thousands of candidate choice
    sequences that differ only in a suffix (ddmin complements, toss
    tweaks).  A plain oracle re-executes each candidate from the initial
    state; this replayer instead keeps **one journaled run** alive with
    an undo-journal checkpoint *before every applied choice*.  A query
    rewinds the live run to the end of the common prefix with the
    previously applied sequence (O(changes), see
    :mod:`repro.runtime.journal`) and executes only the differing
    suffix.

    Checkpoints are undo-journal marks, so only *ancestor* restores are
    possible — exactly what prefix truncation produces: rewinding to
    prefix length ``k`` invalidates the checkpoints past ``k``, which
    are discarded along with the replayed records.

    Semantics match :func:`run_choices` choice-for-choice: validation in
    :func:`~repro.verisoft.explorer.apply_choice` happens before any
    mutation, so a rejected candidate leaves the live run at the last
    successfully applied choice — still a valid frontier for the next
    query.  The returned outcome's ``run`` is the shared live run (do
    not hold on to it across queries); after a mismatch it is ``None``,
    like the plain function.
    """

    def __init__(self, system: System, engine: str = "walk"):
        self._run = system.start(journal=True, engine=engine)
        self._run.start_processes()
        #: Choices currently applied to the live run.
        self._applied: list[Choice] = []
        #: Per applied choice: (TraceStep | None, violation info | None)
        #: where the violation info is ``(process, proc_name, node_id)``.
        self._records: list[tuple[Any, Any]] = []
        #: ``_checkpoints[i]`` = state *before* choice ``i``;
        #: ``_checkpoints[-1]`` = the current state (len == applied + 1).
        self._checkpoints = [self._run.checkpoint()]
        # -- telemetry ---------------------------------------------------
        #: Queries answered.
        self.queries = 0
        #: Choices executed for real (suffixes past the common prefix).
        self.choices_applied = 0
        #: Choices answered from the retained prefix (no re-execution).
        self.choices_reused = 0

    @property
    def restores(self) -> int:
        """Checkpoint restores performed (from the run's journal)."""
        return self._run.journal.restores

    def run_choices(self, choices) -> ReplayOutcome:
        """Execute ``choices``, reusing the retained common prefix."""
        choices = tuple(choices)
        self.queries += 1

        prefix = 0
        limit = min(len(choices), len(self._applied))
        while prefix < limit and choices[prefix] == self._applied[prefix]:
            prefix += 1
        self.choices_reused += prefix

        if prefix < len(self._applied):
            self._run.restore(self._checkpoints[prefix])
            del self._applied[prefix:]
            del self._records[prefix:]
            del self._checkpoints[prefix + 1 :]

        mismatch: ReplayMismatch | None = None
        for index in range(prefix, len(choices)):
            choice = choices[index]
            try:
                request, outcome = apply_choice(self._run, index, choice)
            except ReplayMismatch as exc:
                mismatch = exc
                break
            self.choices_applied += 1
            step = None
            if request is not None:
                obj_name = request.obj.name if request.obj is not None else None
                step = TraceStep(choice.process, request.op, obj_name, "")
            violation = None
            if outcome is not None and outcome.violated:
                violation = (outcome.process, outcome.proc_name, outcome.node_id)
            self._applied.append(choice)
            self._records.append((step, violation))
            self._checkpoints.append(self._run.checkpoint())

        # Rebuild the outcome from the per-choice records, so reused
        # prefix choices contribute their steps/violations exactly as a
        # from-scratch execution would have recorded them.
        steps: list[TraceStep] = []
        events: list[Any] = []
        applied = len(self._applied)
        for i, (step, violation) in enumerate(self._records):
            if step is not None:
                steps.append(step)
            if violation is not None:
                events.append(
                    AssertionViolationEvent(
                        Trace(choices[: i + 1], tuple(steps)), *violation
                    )
                )
        if mismatch is not None:
            return ReplayOutcome(
                applied=applied,
                mismatch=mismatch,
                trace=Trace(choices[:applied], tuple(steps)),
                events=events,
                run=None,
            )
        trace = Trace(choices, tuple(steps))
        for process in self._run.processes:
            if process.status is ProcessStatus.CRASHED:
                events.append(CrashEvent(trace, process.name, str(process.crash)))
            elif process.status is ProcessStatus.DIVERGED:
                events.append(DivergenceEvent(trace, process.name))
        if self._run.is_deadlock():
            events.append(DeadlockEvent(trace, *_blocked_info(self._run)))
        return ReplayOutcome(
            applied=applied,
            mismatch=None,
            trace=trace,
            events=events,
            run=self._run,
        )


def reproduces(system: System, choices, signature: Signature) -> bool:
    """The shrinking / replay oracle: does executing ``choices`` on
    ``system`` produce a violation with exactly ``signature``?"""
    outcome = run_choices(system, choices)
    return outcome.ok and signature in outcome.signatures()


@dataclass
class ReplayVerdict:
    """The diagnosis of replaying one persisted trace."""

    #: ``"reproduced"`` | ``"diverged"`` | ``"different-violation"`` |
    #: ``"no-violation"``.
    status: str
    #: Human-readable diagnosis lines.
    detail: str
    #: Whether the current system fingerprint matches the recorded one
    #: (``None`` when the trace carries no fingerprint).
    fingerprint_matched: bool | None
    #: The raw execution outcome.
    outcome: ReplayOutcome

    @property
    def ok(self) -> bool:
        """The recorded violation reproduced."""
        return self.status == "reproduced"


def verify_trace(
    system: System, trace_file: TraceFile, engine: str = "walk"
) -> ReplayVerdict:
    """Replay a loaded trace file against ``system`` and diagnose.

    See the module docstring for the verdict taxonomy.  ``engine``
    picks the execution engine for the re-execution; when it differs
    from the engine recorded in the trace's search metadata a note is
    attached (the engines are observationally identical, so this never
    changes the verdict — the note is provenance, not a warning about
    correctness).
    """
    target = trace_file.signature()
    fingerprint_matched: bool | None = None
    notes: list[str] = []
    recorded_engine = trace_file.search.get("engine") or trace_file.search.get(
        "options", {}
    ).get("engine")
    if recorded_engine is not None and recorded_engine != engine:
        notes.append(
            f"engine mismatch: trace was found under the {recorded_engine!r} "
            f"engine, replaying under {engine!r} (engines are "
            "observationally identical; result is unaffected)"
        )
    if trace_file.fingerprint:
        current = system.fingerprint()
        fingerprint_matched = current == trace_file.fingerprint
        if not fingerprint_matched:
            notes.append(
                "system fingerprint mismatch: trace was captured on "
                f"{trace_file.fingerprint}, this system is {current} — "
                "the program or system description has changed"
            )

    outcome = run_choices(system, trace_file.trace.choices, engine=engine)

    if not outcome.ok:
        mismatch = outcome.mismatch
        notes.insert(
            0,
            f"replay diverged at choice {mismatch.index} of "
            f"{len(trace_file.trace.choices)} "
            f"({mismatch.choice.describe()}): {mismatch.reason}",
        )
        if fingerprint_matched is True:
            notes.append(
                "fingerprint matches, so this indicates trace corruption "
                "or a nondeterministic runtime — please report it"
            )
        return ReplayVerdict("diverged", "\n".join(notes), fingerprint_matched, outcome)

    found = outcome.signatures()
    if target in found:
        notes.insert(
            0,
            f"reproduced: {trace_file.kind} violation after "
            f"{len(trace_file.trace.choices)} choices",
        )
        return ReplayVerdict(
            "reproduced", "\n".join(notes), fingerprint_matched, outcome
        )
    if found:
        listed = "; ".join(str(sig) for sig in found)
        notes.insert(
            0,
            "replay succeeded but produced a different violation: "
            f"expected {target}, observed {listed}",
        )
        return ReplayVerdict(
            "different-violation", "\n".join(notes), fingerprint_matched, outcome
        )
    notes.insert(
        0,
        "replay succeeded with no violation: the recorded "
        f"{trace_file.kind} did not occur (bug fixed, or stale trace)",
    )
    return ReplayVerdict("no-violation", "\n".join(notes), fingerprint_matched, outcome)
