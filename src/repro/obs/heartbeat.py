"""Worker heartbeats and stall detection for the parallel search.

The parallel search (:mod:`repro.service.scheduler`) hands subtree
leases to worker processes that may run for minutes; without
telemetry a *hung* worker (deadlocked worker, runaway subtree) is
indistinguishable from a *slow* one.  The heartbeat protocol fixes
that:

* each worker periodically puts a :class:`Heartbeat` — worker pid, the
  prefix (subtree) it is exploring, its live state/transition counters
  and a wall-clock timestamp — onto a shared queue (piggybacking on the
  explorer's existing ``progress`` callback, so the reporting interval
  is the search's ``progress_interval``);
* the coordinator drains the queue between result completions, keeps a
  :class:`WorkerHealth` record per worker, surfaces per-worker lines in
  the progress ticker, and raises a warning when a worker has made *no
  progress* (counters unchanged, or silence) past a configurable stall
  threshold.

"Progress" is counter movement, not message arrival: a worker stuck
inside one transition stops beating *and* stops counting, so both hang
modes trip the same detector.  A stall warning fires once per episode
and a recovery is announced when the counters move again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

#: Heartbeat message kinds.
KINDS = ("start", "beat", "done")


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """One worker report (picklable; travels over the heartbeat queue)."""

    #: ``"start"`` (picked up a prefix), ``"beat"`` (periodic progress)
    #: or ``"done"`` (finished the prefix).
    kind: str
    #: Worker process id.
    worker: int
    #: Index of the prefix (subtree) the worker is exploring.
    prefix: int
    #: States visited within the current subtree so far.
    states: int
    #: Transitions executed (including replays) within the subtree.
    transitions: int
    #: ``time.time()`` at the worker when the beat was sent.
    sent_at: float


class WorkerHealth:
    """The coordinator's live record of one worker process."""

    def __init__(self, worker: int, now: float):
        self.worker = worker
        self.prefix: int | None = None
        self.states = 0
        self.transitions = 0
        #: Last time any message arrived from this worker.
        self.last_seen = now
        #: Last time the worker demonstrably made progress (counters
        #: moved, or a start/done transition).
        self.last_progress = now
        #: Whether the worker currently holds a prefix.
        self.busy = False
        #: Whether a stall warning is currently outstanding.
        self.stalled = False
        #: Subtrees completed by this worker.
        self.completed = 0

    def note(self, beat: Heartbeat) -> None:
        """Fold one heartbeat into the record."""
        self.last_seen = beat.sent_at
        if beat.kind == "start":
            self.busy = True
            self.prefix = beat.prefix
            self.states = 0
            self.transitions = 0
            self.last_progress = beat.sent_at
        elif beat.kind == "done":
            self.busy = False
            self.completed += 1
            self.last_progress = beat.sent_at
        else:
            if beat.states > self.states or beat.transitions > self.transitions:
                self.last_progress = beat.sent_at
            self.states = beat.states
            self.transitions = beat.transitions

    def describe(self, now: float) -> str:
        """One ticker line for this worker."""
        if not self.busy:
            return (
                f"worker {self.worker}: idle "
                f"({self.completed} subtree(s) done)"
            )
        ago = max(0.0, now - self.last_progress)
        state = "STALLED" if self.stalled else "busy"
        return (
            f"worker {self.worker}: {state} prefix {self.prefix} "
            f"states={self.states} transitions={self.transitions} "
            f"last progress {ago:.1f}s ago"
        )


class HeartbeatMonitor:
    """Tracks every worker's health; detects and reports stalls.

    ``on_warn`` (when given) receives human-readable warning strings —
    the parallel driver wires it to the progress printer's ``warn`` or
    to stderr.  ``stall_timeout`` is the no-progress threshold in
    seconds; ``None`` disables stall detection (heartbeats still feed
    the ticker).
    """

    def __init__(
        self,
        stall_timeout: float | None = 10.0,
        on_warn: Callable[[str], None] | None = None,
        clock: Callable[[], float] = time.time,
    ):
        self._stall_timeout = stall_timeout
        self._on_warn = on_warn
        self._clock = clock
        self._workers: dict[int, WorkerHealth] = {}

    @property
    def workers(self) -> dict[int, WorkerHealth]:
        """Per-worker health records, keyed by worker pid."""
        return self._workers

    def note(self, beat: Heartbeat) -> None:
        """Record one heartbeat (and clear its worker's stall flag if
        the beat demonstrates progress)."""
        record = self._workers.get(beat.worker)
        if record is None:
            record = self._workers[beat.worker] = WorkerHealth(
                beat.worker, beat.sent_at
            )
        previously = record.last_progress
        record.note(beat)
        if record.stalled and record.last_progress > previously:
            record.stalled = False
            if self._on_warn is not None:
                self._on_warn(
                    f"worker {beat.worker} recovered (prefix "
                    f"{record.prefix}, states={record.states})"
                )

    def drain(self, queue: Any) -> int:
        """Consume every pending heartbeat from ``queue`` (any object
        with a non-blocking ``get_nowait``); returns how many arrived."""
        import queue as queue_module

        count = 0
        while True:
            try:
                beat = queue.get_nowait()
            except (queue_module.Empty, OSError, EOFError):
                break
            self.note(beat)
            count += 1
        return count

    def check_stalls(self, now: float | None = None) -> list[WorkerHealth]:
        """Flag workers with no progress for longer than the stall
        threshold; returns the *newly* stalled ones (each also reported
        through ``on_warn``, once per stall episode)."""
        if self._stall_timeout is None:
            return []
        if now is None:
            now = self._clock()
        newly = []
        for record in self._workers.values():
            if not record.busy or record.stalled:
                continue
            silent = now - record.last_progress
            if silent > self._stall_timeout:
                record.stalled = True
                newly.append(record)
                if self._on_warn is not None:
                    self._on_warn(
                        f"worker {record.worker} has made no progress for "
                        f"{silent:.1f}s (prefix {record.prefix}, "
                        f"states={record.states}) — stalled or very slow"
                    )
        return newly

    def lines(self, now: float | None = None) -> list[str]:
        """Per-worker ticker lines, in stable (pid) order."""
        if now is None:
            now = self._clock()
        return [
            self._workers[worker].describe(now)
            for worker in sorted(self._workers)
        ]

    def inflight(self) -> tuple[int, int]:
        """``(states, transitions)`` currently reported by *busy*
        workers — work in flight that no completed report covers yet
        (the live ticker adds it to the merged totals)."""
        states = sum(r.states for r in self._workers.values() if r.busy)
        transitions = sum(
            r.transitions for r in self._workers.values() if r.busy
        )
        return states, transitions

    def summary(self) -> dict[str, Any]:
        """A JSON-friendly snapshot for manifests and stats dumps."""
        return {
            "workers": len(self._workers),
            "stalled": sum(1 for r in self._workers.values() if r.stalled),
            "subtrees_completed": sum(
                r.completed for r in self._workers.values()
            ),
        }
