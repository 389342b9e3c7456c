"""The work-stealing scheduler: adaptive sharded exploration.

This is the driver behind ``run_search(strategy="parallel")``.  A
stateless search stores no states, so any subtree of the choice tree
can be searched by its own process; cutting the tree once at a fixed
depth would leave workers idle on a skewed tree while one unlucky
worker grinds through a giant subtree.  The partition is therefore
*adaptive*:

* Work is handed out as **subtree leases** — fully pinned
  :class:`~repro.verisoft.parallel.ChoicePrefix` snapshots (POR context
  included).  The initial lease is the whole tree.

* When workers go idle and no leases are pending, the coordinator
  raises a shared **steal budget**; a busy worker polls it between
  paths (the explorer's ``yield_check`` hook), suspends cooperatively,
  and commits its lease: the partial report *plus* every unexplored
  sibling subtree of its DFS stack
  (:func:`~repro.verisoft.parallel.harvest_residual`), which become new
  leases for the idle workers.

* The unit of completion is the lease: a lease either commits
  atomically (report + residuals, which losslessly partition the
  uncovered remainder) or it did not happen.  A worker that **dies**
  mid-lease (detected by process liveness plus the
  :mod:`repro.obs` heartbeat stream) therefore loses nothing but time:
  its lease is re-queued verbatim and a replacement worker is spawned.

* A **stop request** (``should_suspend``) is the same mechanism turned
  on every worker at once: all in-flight leases commit, and the pending
  leases plus completed blocks are returned as a
  :class:`~repro.service.frontier.SearchCheckpoint` on
  ``report.checkpoint`` — resumable later, on any machine, on either
  execution engine, via the ``initial`` parameter.

**Determinism.**  Completed lease blocks are kept unmerged and sorted
by :func:`~repro.verisoft.parallel.prefix_key` at the end — sequential
DFS visit order, regardless of which worker finished what when — so
the merged report is counter-for-counter identical to the sequential
search, modulo the backtracking-cost group (``replays``/
``replayed_transitions``/``restores``/``undo_entries``/
``checkpoint_memory_bytes``) and the timing-dependent stealing
counters (``leases``/``steals``/``leases_requeued``).

Caveats: per-lease budgets make ``max_paths``/``max_transitions``
truncate slightly differently (never later) than sequential, so exact
parity holds for unbudgeted searches; ``state_cache`` stores are
private per lease, so a state reached in two leases is expanded once
per lease (violation triage groups still match); checkpoints are only
produced for clean suspensions, not for budget-truncated runs.

**Tracing.**  With ``options.tracer`` set, each lease records one
``lease`` span (plus the explorer's per-path spans and event instants)
into a private :class:`~repro.obs.tracer.Tracer`; the buffer travels
back as ``report.trace_payload`` and the coordinator splices the
payloads onto ``options.tracer`` in :func:`prefix_key` order.  Payloads
are detached at commit, so they never enter a checkpoint.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import queue as queue_mod
import signal
import sys
import time
from dataclasses import replace
from typing import Any, Callable, Iterable

from ..runtime.system import System
from ..verisoft.explorer import Explorer
from ..verisoft.parallel import (
    ChoicePrefix,
    _thaw,
    harvest_residual,
    prefix_key,
    warn_oversubscription,
)
from ..verisoft.results import (
    AssertionViolationEvent,
    CrashEvent,
    DivergenceEvent,
    ExplorationReport,
    Trace,
)
from ..verisoft.search import SearchOptions
from ..verisoft.stats import SearchStats
from .frontier import SearchCheckpoint, canonical_fingerprint, pending_key

__all__ = ["explore_lease", "work_stealing_search"]


# ---------------------------------------------------------------------------
# One lease: the unit of work and of completion
# ---------------------------------------------------------------------------


def explore_lease(
    system: System,
    prefix: ChoicePrefix | None,
    options: SearchOptions,
    *,
    yield_check: Callable[[], bool] | None = None,
    heartbeat_queue: Any | None = None,
    lease_index: int = 0,
    trace: bool = False,
) -> tuple[ExplorationReport, list[ChoicePrefix], frozenset | None]:
    """Explore the subtree leased by ``prefix`` (``None`` = whole tree).

    Returns ``(report, residuals, fingerprints)``.  When ``yield_check``
    suspended the DFS, ``residuals`` holds the unexplored sibling
    subtrees as new fully pinned prefixes (sequential DFS order) and
    ``report`` covers exactly the paths completed — together they
    partition the lease losslessly.  ``residuals`` is empty for a lease
    run to exhaustion.  Fingerprints (``count_states``) come back
    canonicalized (:func:`~repro.service.frontier.canonical_fingerprint`)
    so they survive checkpoint round-trips.

    A lease prefix pins an *untried* decision at its tip: the tip's
    out-edge and everything below it is fresh, counted ground.  The
    explorer runs on ``options`` with ``progress`` replaced by heartbeats
    onto ``heartbeat_queue`` (none without one) and ``tracer`` by a
    private tracer when ``trace`` is set: the lease records one
    ``lease`` span whose buffer comes back as ``report.trace_payload``.
    """
    tracer = None
    if trace:
        from ..obs import Tracer

        tracer = Tracer()

    progress = None
    send = None
    if heartbeat_queue is not None:
        from ..obs import Heartbeat

        pid = os.getpid()

        def send(kind: str, states: int, transitions: int) -> None:
            try:  # a closed/full queue must never sink the worker
                heartbeat_queue.put_nowait(
                    Heartbeat(kind, pid, lease_index, states, transitions, time.time())
                )
            except Exception:
                pass

        def progress(stats: SearchStats) -> None:
            send(
                "beat",
                stats.states_visited,
                stats.transitions_executed + stats.replayed_transitions,
            )

        send("start", 0, 0)

    explorer = Explorer(
        system,
        replace(options, progress=progress, tracer=tracer),
        initial_stack=_thaw(prefix) if prefix is not None else None,
        yield_check=yield_check,
    )
    if tracer is None:
        report = explorer.run()
    else:
        with tracer.span("lease", cat="parallel", lease=lease_index):
            report = explorer.run()
        report.trace_payload = tracer.export(label=f"worker-{os.getpid()}")
    residuals: list[ChoicePrefix] = []
    if explorer.suspended and explorer.final_stack is not None:
        residuals = harvest_residual(explorer.final_stack, explorer.final_base)
    if send is not None:
        replayed = report.stats.replayed_transitions if report.stats else 0
        send("done", report.states_visited, report.transitions_executed + replayed)
    canonical = (
        None
        if explorer.seen_states is None
        else frozenset(canonical_fingerprint(fp) for fp in explorer.seen_states)
    )
    return report, residuals, canonical


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(
    worker_id: int,
    system_or_factory: Any,
    options: SearchOptions,
    trace: bool,
    task_queue: Any,
    result_queue: Any,
    heartbeat_queue: Any,
    steal_budget: Any,
    suspend_flag: Any,
    kill_after_paths: int | None,
) -> None:
    """Worker loop: take a lease, explore it, commit the result.

    ``steal_budget`` (a shared int) is the coordinator's standing steal
    request: a dirty read keeps the common case to one attribute load
    per path, and a claim takes the lock and decrements.  At most one
    steal is honoured per lease — once this lease has donated, further
    yields would thrash it into confetti.  ``suspend_flag`` set means
    *everyone* suspends (stop request / checkpoint).

    ``kill_after_paths`` is the crash-recovery test hook: SIGKILL our
    own process mid-lease after that many completed paths, simulating a
    worker lost to the OOM killer — nothing is committed, exercising
    the coordinator's lease re-queue path.
    """
    system = system_or_factory() if callable(system_or_factory) else system_or_factory
    paths_seen = 0
    while True:
        task = task_queue.get()
        if task is None:
            return
        seq, prefix = task
        stolen = False

        def yield_check() -> bool:
            nonlocal paths_seen, stolen
            paths_seen += 1
            if kill_after_paths is not None and paths_seen >= kill_after_paths:
                os.kill(os.getpid(), signal.SIGKILL)
            if suspend_flag.value:
                return True
            if not stolen and steal_budget.value > 0:
                with steal_budget.get_lock():
                    if steal_budget.value > 0:
                        steal_budget.value -= 1
                        stolen = True
                        return True
            return False

        try:
            report, residuals, fps = explore_lease(
                system,
                prefix,
                options,
                yield_check=yield_check,
                heartbeat_queue=heartbeat_queue,
                lease_index=seq,
                trace=trace,
            )
        except Exception as err:  # commit the failure; don't strand the lease
            result_queue.put((worker_id, seq, err, [], None, False))
            continue
        result_queue.put(
            (worker_id, seq, report, residuals, fps, stolen and bool(residuals))
        )


class _WorkerHandle:
    """Coordinator-side record of one worker process."""

    __slots__ = ("process", "task_queue", "assigned", "label", "leases_done", "stolen_from")

    def __init__(self, process, task_queue, label: str):
        self.process = process
        self.task_queue = task_queue
        self.assigned: tuple[tuple[int, ...], int, ChoicePrefix | None] | None = None
        self.label = label
        self.leases_done = 0
        self.stolen_from = 0


# ---------------------------------------------------------------------------
# Deterministic merge
# ---------------------------------------------------------------------------


def _merge_events(
    merged_list: list, parts: Iterable[list], max_events: int, keep_count: bool
) -> None:
    """Concatenate event lists in order.  Beyond ``max_events`` recorded
    traces, either keep counting with trace-less placeholder events
    (``keep_count``, matching the sequential explorer's behaviour for
    violations/crashes/divergences) or stop (deadlocks)."""
    for events in parts:
        for event in events:
            if len(merged_list) < max_events:
                merged_list.append(event)
            elif keep_count:
                merged_list.append(_strip_trace(event))


def _strip_trace(event):
    empty = Trace((), ())
    if isinstance(event, AssertionViolationEvent):
        return AssertionViolationEvent(empty, event.process, event.proc_name, event.node_id)
    if isinstance(event, CrashEvent):
        return CrashEvent(empty, event.process, "")
    if isinstance(event, DivergenceEvent):
        return DivergenceEvent(empty, event.process)
    return event


def _merge_lease_blocks(
    blocks: list[tuple[tuple[int, ...], ExplorationReport]],
    *,
    max_events: int,
    fingerprints: set[str] | None,
) -> ExplorationReport:
    """Merge completed lease blocks in sequential DFS order.

    Every explored path of a suspended lease precedes (in DFS order)
    every path of its harvested residuals, and a parent block's key is
    a strict tuple-prefix of its residuals' keys — so sorting blocks by
    key reproduces the sequential search's event order exactly, and
    there is no frontier pseudo-path accounting to undo (lease prefixes
    pin untried decisions; no path is ever cut short)."""
    ordered = sorted(blocks, key=lambda entry: entry[0])
    merged = ExplorationReport()
    for _, report in ordered:
        merged.states_visited += report.states_visited
        merged.transitions_executed += report.transitions_executed
        merged.toss_points += report.toss_points
        merged.paths_explored += report.paths_explored
        merged.max_depth_reached = max(
            merged.max_depth_reached, report.max_depth_reached
        )
        merged.truncated = merged.truncated or report.truncated
        merged.incomplete = merged.incomplete or report.incomplete

    _merge_events(
        merged.deadlocks, (r.deadlocks for _, r in ordered), max_events, keep_count=False
    )
    _merge_events(
        merged.violations, (r.violations for _, r in ordered), max_events, keep_count=True
    )
    _merge_events(
        merged.crashes, (r.crashes for _, r in ordered), max_events, keep_count=True
    )
    _merge_events(
        merged.divergences, (r.divergences for _, r in ordered), max_events, keep_count=True
    )

    if fingerprints is not None:
        merged.distinct_states = len(fingerprints)

    profiles = [r.profile for _, r in ordered if r.profile is not None]
    if profiles:
        from ..obs import HotSpotProfiler

        merged.profile = HotSpotProfiler.merged(profiles)

    coverages = [r.coverage for _, r in ordered if r.coverage is not None]
    if coverages:
        from ..obs import CoverageCollector

        merged.coverage = CoverageCollector.merged(coverages)

    merged.stats = SearchStats.merged(
        [r.stats for _, r in ordered if r.stats is not None], strategy="parallel"
    )
    if merged.coverage is not None:
        merged.stats.coverage_nodes = merged.coverage.nodes_covered
        merged.stats.coverage_nodes_total = merged.coverage.nodes_total
    return merged


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def work_stealing_search(
    system: System,
    options: "SearchOptions | None" = None,
    *,
    system_factory: Callable[[], System] | None = None,
    initial: SearchCheckpoint | None = None,
    should_suspend: Callable[[], bool] | None = None,
    on_checkpoint: Callable[[SearchCheckpoint], None] | None = None,
    checkpoint_interval: float | None = None,
    kill_worker_after_paths: int | None = None,
    **overrides,
) -> ExplorationReport:
    """Explore ``system`` with work-stealing worker processes.

    ``options`` is a :class:`~repro.verisoft.search.SearchOptions`
    (individual fields may be overridden by keyword); ``jobs <= 1``
    runs the same lease loop in-process (the determinism baseline —
    identical merge, no multiprocessing primitives).

    Service hooks:

    * ``initial`` — resume a suspended search from its
      :class:`~repro.service.frontier.SearchCheckpoint` (the system
      fingerprint is verified first).
    * ``should_suspend`` — polled by the coordinator (and, in-process,
      between paths); returning true suspends every worker, commits all
      in-flight leases and returns a report with ``report.checkpoint``
      set.  The counters/events of that report cover the explored
      region only and ``incomplete`` is flagged.
    * ``on_checkpoint`` / ``checkpoint_interval`` — periodic *live*
      checkpoints: every interval the coordinator snapshots completed
      blocks plus pending **and assigned** leases (an assigned lease's
      partial work is uncommitted, so writing it as pending is
      consistent) and hands the checkpoint to the callback.  The search
      keeps running.
    * ``kill_worker_after_paths`` — crash-test hook, forwarded to the
      *first* worker only (see :func:`_worker_main`).
    """
    if options is None:
        options = SearchOptions(strategy="parallel")
    if overrides:
        options = replace(options, **overrides)

    jobs = options.jobs or os.cpu_count() or 1
    started = time.monotonic()
    deadline = None if options.time_budget is None else started + options.time_budget

    def _warn(message: str) -> None:
        warn = getattr(options.progress, "warn", None)
        if warn is not None:
            warn(message)
        else:
            print(f"warning: {message}", file=sys.stderr)

    # Judged on the *requested* job count, once, before any fan-out (the
    # jobs=0 "all cores" default never warns).
    warn_oversubscription(options.jobs, _warn)

    # Resolve the effective engine up front (the per-lease explorers
    # resolve it identically) so stats are right even if the search
    # suspends before any lease completes.
    resolved_engine = system.resolve_engine(options.engine)

    # -- seed the lease pool (fresh root lease, or a checkpoint) ----------
    pending: list[tuple[tuple[int, ...], int, ChoicePrefix | None]] = []
    blocks: list[tuple[tuple[int, ...], ExplorationReport]] = []
    trace_payloads: list[tuple[tuple[int, ...], dict]] = []
    fingerprints: set[str] | None = set() if options.count_states else None
    lease_seq = 0
    leases = steals = requeued = 0
    if initial is not None:
        initial.check_system(system)
        for prefix in initial.pending:
            heapq.heappush(pending, (pending_key(prefix), lease_seq, prefix))
            lease_seq += 1
        blocks = list(initial.completed)
        if fingerprints is not None:
            fingerprints |= initial.fingerprints
        leases, steals, requeued = (
            initial.leases,
            initial.steals,
            initial.leases_requeued,
        )
    else:
        heapq.heappush(pending, ((), 0, None))
        lease_seq = 1
        leases = 1

    # What every lease runs on: picklable (no callbacks, no tracer) and
    # bounded by what is left of the wall-clock budget.
    worker_options = replace(
        options,
        progress=None,
        tracer=None,
        time_budget=None if deadline is None else max(0.0, deadline - time.monotonic()),
    )
    trace = options.tracer is not None

    # Live coverage gauge: incrementally merged at block commit so
    # heartbeats don't re-merge every shard on each tick.  The *final*
    # report's coverage is still rebuilt from scratch by
    # ``_merge_lease_blocks`` (the counter-exact path).
    live_coverage = None
    if options.coverage:
        from ..obs import CoverageCollector

        live_coverage = CoverageCollector(system)

    suspended = False
    stop_early = False
    expired = False
    worker_summary: dict[str, dict] = {}

    def commit(
        key: tuple[int, ...],
        report: ExplorationReport,
        residuals: list[ChoicePrefix],
        lease_fps: frozenset | None,
        was_steal: bool,
    ) -> None:
        nonlocal lease_seq, leases, steals
        if report.trace_payload is not None:
            trace_payloads.append((key, report.trace_payload))
            report.trace_payload = None
        blocks.append((key, report))
        if live_coverage is not None and report.coverage is not None:
            live_coverage.add(report.coverage)
        if fingerprints is not None and lease_fps:
            fingerprints.update(lease_fps)
        for residual in residuals:
            heapq.heappush(pending, (prefix_key(residual), lease_seq, residual))
            lease_seq += 1
            leases += 1
        if was_steal:
            steals += 1

    def build_checkpoint(
        extra_pending: list[tuple[tuple[int, ...], int, ChoicePrefix | None]] = (),
    ) -> SearchCheckpoint:
        entries = sorted([*pending, *extra_pending], key=lambda e: (e[0], e[1]))
        return SearchCheckpoint(
            fingerprint=system.fingerprint(),
            options=options.as_dict(),
            pending=[prefix for _, _, prefix in entries],
            completed=list(blocks),
            fingerprints=set() if fingerprints is None else set(fingerprints),
            leases=leases,
            steals=steals,
            leases_requeued=requeued,
        )

    def live_stats() -> SearchStats:
        live = SearchStats.merged(
            [r.stats for _, r in blocks if r.stats is not None],
            strategy="parallel",
            backtrack=options.backtrack,
            engine=resolved_engine,
            jobs=jobs,
            leases=leases,
            steals=steals,
            leases_requeued=requeued,
        )
        live.wall_time = time.monotonic() - started
        # Gauges for the heartbeat stream: coverage so far and frontier
        # depth.  ``frontier_pending`` is a live-only gauge — the final
        # merged stats keep it at 0 (the frontier is drained), so
        # cross-driver parity checks are unaffected.
        if live_coverage is not None:
            live.coverage_nodes = live_coverage.nodes_covered
            live.coverage_nodes_total = live_coverage.nodes_total
        live.frontier_pending = len(pending)
        return live

    next_checkpoint = (
        None if checkpoint_interval is None else started + checkpoint_interval
    )

    def checkpoint_tick(
        extra_pending: list[tuple[tuple[int, ...], int, ChoicePrefix | None]],
    ) -> None:
        nonlocal next_checkpoint
        if next_checkpoint is None or on_checkpoint is None:
            return
        now = time.monotonic()
        if now < next_checkpoint:
            return
        next_checkpoint = now + checkpoint_interval
        on_checkpoint(build_checkpoint(extra_pending))

    # ------------------------------------------------------------------
    # In-process lease loop (jobs <= 1): the determinism baseline
    # ------------------------------------------------------------------
    if jobs <= 1:
        target_system = system_factory() if system_factory is not None else system
        worker_summary["w0"] = {"leases": 0, "stolen_from": 0, "alive": True}
        next_tick = started + options.progress_interval
        while pending:
            if should_suspend is not None and should_suspend():
                suspended = True
                break
            if deadline is not None and time.monotonic() > deadline:
                expired = True
                break
            key, seq, prefix = heapq.heappop(pending)
            report, residuals, lease_fps = explore_lease(
                target_system,
                prefix,
                worker_options,
                yield_check=should_suspend,
                lease_index=seq,
                trace=trace,
            )
            commit(key, report, residuals, lease_fps, was_steal=False)
            worker_summary["w0"]["leases"] += 1
            checkpoint_tick([])
            if options.progress is not None:
                now = time.monotonic()
                if now >= next_tick:
                    options.progress(live_stats())
                    next_tick = now + options.progress_interval
            if options.stop_on_first and not report.ok:
                stop_early = True
                break
            totals = sum(r.paths_explored for _, r in blocks)
            if options.max_paths is not None and totals >= options.max_paths:
                break
            if (
                options.max_transitions is not None
                and sum(r.transitions_executed for _, r in blocks)
                >= options.max_transitions
            ):
                break
    else:
        # --------------------------------------------------------------
        # Multiprocess coordinator
        # --------------------------------------------------------------
        result_queue: Any = multiprocessing.Queue()
        heartbeat_queue: Any = None
        monitor = None
        if options.progress is not None or options.stall_timeout is not None:
            from ..obs import HeartbeatMonitor

            heartbeat_queue = multiprocessing.Queue()
            monitor = HeartbeatMonitor(
                stall_timeout=options.stall_timeout, on_warn=_warn
            )
        steal_budget = multiprocessing.Value("i", 0)
        suspend_flag = multiprocessing.Value("i", 0)

        workers: dict[int, _WorkerHandle] = {}
        #: seq -> pending-heap entry of every assigned-but-uncommitted
        #: lease.  A result whose seq is absent is a late duplicate (its
        #: lease was already re-queued after a presumed death) and is
        #: discarded — commits are exactly-once.
        inflight: dict[int, tuple[tuple[int, ...], int, ChoicePrefix | None]] = {}
        next_worker_id = 0
        respawns = 0
        max_respawns = 2 * jobs + 2
        system_payload = system_factory if system_factory is not None else system

        def spawn(kill_after: int | None = None) -> int:
            nonlocal next_worker_id
            wid = next_worker_id
            next_worker_id += 1
            task_queue: Any = multiprocessing.Queue()
            process = multiprocessing.Process(
                target=_worker_main,
                args=(
                    wid,
                    system_payload,
                    worker_options,
                    trace,
                    task_queue,
                    result_queue,
                    heartbeat_queue,
                    steal_budget,
                    suspend_flag,
                    kill_after,
                ),
                daemon=True,
            )
            process.start()
            workers[wid] = _WorkerHandle(process, task_queue, f"w{wid}")
            return wid

        for i in range(jobs):
            spawn(kill_worker_after_paths if i == 0 else None)

        tick = max(0.05, min(options.progress_interval, 1.0))
        next_tick = started + options.progress_interval
        worker_error: Exception | None = None

        def drain_results(block_for: float | None = None) -> int:
            """Fold every queued result into the coordinator state;
            optionally block up to ``block_for`` seconds for the first."""
            nonlocal stop_early, worker_error
            handled = 0
            timeout = block_for
            while True:
                try:
                    if timeout is not None:
                        msg = result_queue.get(timeout=timeout)
                    else:
                        msg = result_queue.get_nowait()
                except queue_mod.Empty:
                    return handled
                timeout = None
                handled += 1
                wid, seq, payload, residuals, fps, was_steal = msg
                handle = workers.get(wid)
                if handle is not None and handle.assigned is not None and handle.assigned[1] == seq:
                    handle.assigned = None
                entry = inflight.pop(seq, None)
                if entry is None:
                    continue  # late duplicate of a re-queued lease
                if isinstance(payload, Exception):
                    # A deterministic explorer failure would repeat on
                    # re-queue: surface it instead of spinning.
                    worker_error = payload
                    stop_early = True
                    continue
                if handle is not None:
                    handle.leases_done += 1
                    if was_steal:
                        handle.stolen_from += 1
                commit(entry[0], payload, residuals, fps, was_steal)
                if options.stop_on_first and not payload.ok:
                    stop_early = True

        def progress_tick() -> None:
            nonlocal next_tick
            if monitor is not None:
                monitor.drain(heartbeat_queue)
                monitor.check_stalls()
            if options.progress is None:
                return
            now = time.monotonic()
            if now < next_tick:
                return
            next_tick = now + options.progress_interval
            worker_lines = getattr(options.progress, "worker_lines", None)
            if worker_lines is not None and monitor is not None:
                worker_lines(monitor.lines())
            live = live_stats()
            if monitor is not None:
                inflight_states, inflight_transitions = monitor.inflight()
                live.states_visited += inflight_states
                live.transitions_executed += inflight_transitions
            options.progress(live)

        try:
            while True:
                idle = [
                    wid
                    for wid, handle in sorted(workers.items())
                    if handle.assigned is None and handle.process.is_alive()
                ]
                # Assign pending leases to known-idle workers only — the
                # coordinator always knows who holds what, so a death
                # never loses a lease.
                for wid in idle:
                    if not pending:
                        break
                    entry = heapq.heappop(pending)
                    workers[wid].assigned = entry
                    inflight[entry[1]] = entry
                    workers[wid].task_queue.put((entry[1], entry[2]))
                busy = [w for w in workers.values() if w.assigned is not None]
                idle_count = sum(
                    1
                    for w in workers.values()
                    if w.assigned is None and w.process.is_alive()
                )
                if not pending and not busy:
                    break
                # Steal request: only when the queue is dry and hands are
                # empty.  The value is *set* (not added to) each tick, so
                # grants never accumulate across ticks.
                steal_budget.value = idle_count if (not pending and busy) else 0

                drain_results(block_for=tick)
                progress_tick()
                checkpoint_tick([w.assigned for w in busy if w.assigned is not None])

                if stop_early:
                    break
                if should_suspend is not None and should_suspend():
                    suspended = True
                    break
                if deadline is not None and time.monotonic() > deadline:
                    expired = True
                    break
                if (
                    options.max_paths is not None
                    and sum(r.paths_explored for _, r in blocks) >= options.max_paths
                ):
                    break
                if (
                    options.max_transitions is not None
                    and sum(r.transitions_executed for _, r in blocks)
                    >= options.max_transitions
                ):
                    break

                # Liveness: a dead worker's uncommitted lease is re-queued
                # verbatim (commits are atomic — partial work is never
                # merged) and a replacement is spawned.
                for wid, handle in list(workers.items()):
                    if handle.process.is_alive():
                        continue
                    drain_results()  # a commit may have raced the death
                    worker_summary[handle.label] = {
                        "leases": handle.leases_done,
                        "stolen_from": handle.stolen_from,
                        "alive": False,
                    }
                    if handle.assigned is not None:
                        inflight.pop(handle.assigned[1], None)
                        heapq.heappush(pending, handle.assigned)
                        handle.assigned = None
                        requeued += 1
                        _warn(
                            f"worker {handle.label} died mid-lease; "
                            "lease re-queued"
                        )
                    del workers[wid]
                    if respawns < max_respawns and (pending or any(
                        w.assigned is not None for w in workers.values()
                    )):
                        respawns += 1
                        spawn()

                if not workers and pending:
                    # Every worker is gone and respawning is exhausted:
                    # finish the remaining leases in-process rather than
                    # abandoning the search.
                    target_system = (
                        system_factory() if system_factory is not None else system
                    )
                    while pending:
                        key, seq, prefix = heapq.heappop(pending)
                        report, residuals, lease_fps = explore_lease(
                            target_system,
                            prefix,
                            worker_options,
                            lease_index=seq,
                            trace=trace,
                        )
                        commit(key, report, residuals, lease_fps, was_steal=False)
                    break

            if suspended:
                # Stop everything: workers suspend cooperatively between
                # paths and commit their leases; anything that does not
                # commit within the grace period is re-queued uncommitted.
                suspend_flag.value = 1
                grace = time.monotonic() + 10.0
                while (
                    any(w.assigned is not None for w in workers.values())
                    and time.monotonic() < grace
                ):
                    drain_results(block_for=tick)
                    for handle in workers.values():
                        if handle.assigned is not None and not handle.process.is_alive():
                            inflight.pop(handle.assigned[1], None)
                            heapq.heappush(pending, handle.assigned)
                            handle.assigned = None
                            requeued += 1
                for handle in workers.values():
                    if handle.assigned is not None:
                        inflight.pop(handle.assigned[1], None)
                        heapq.heappush(pending, handle.assigned)
                        handle.assigned = None
                        requeued += 1
        finally:
            suspend_flag.value = 1
            for handle in workers.values():
                try:
                    handle.task_queue.put_nowait(None)
                except Exception:
                    pass
            drain_results()
            deadline_join = time.monotonic() + 5.0
            for handle in workers.values():
                handle.process.join(max(0.1, deadline_join - time.monotonic()))
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(1.0)
                worker_summary[handle.label] = {
                    "leases": handle.leases_done,
                    "stolen_from": handle.stolen_from,
                    "alive": not handle.process.exitcode
                    or handle.process.exitcode >= 0,
                }
            if monitor is not None:
                monitor.drain(heartbeat_queue)
            if heartbeat_queue is not None:
                heartbeat_queue.close()
            result_queue.close()

        if worker_error is not None:
            raise worker_error

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    merged = _merge_lease_blocks(
        blocks, max_events=options.max_events, fingerprints=fingerprints
    )
    if options.tracer is not None:
        for _, payload in sorted(trace_payloads, key=lambda entry: entry[0]):
            options.tracer.merge(payload)
    if expired:
        merged.incomplete = True
        merged.truncated = True
    if options.max_paths is not None or options.max_transitions is not None:
        totals_paths = merged.paths_explored
        if options.max_paths is not None and totals_paths >= options.max_paths:
            merged.truncated = True
        if (
            options.max_transitions is not None
            and merged.transitions_executed >= options.max_transitions
        ):
            merged.truncated = True
    if suspended:
        merged.incomplete = True
        merged.checkpoint = build_checkpoint()

    merged.stats.strategy = "parallel"
    merged.stats.backtrack = options.backtrack
    merged.stats.engine = resolved_engine
    merged.stats.jobs = jobs
    merged.stats.leases = leases
    merged.stats.steals = steals
    merged.stats.leases_requeued = requeued
    merged.stats.wall_time = time.monotonic() - started
    merged.options = options
    merged.worker_summary = dict(sorted(worker_summary.items())) or None
    if options.state_cache != "off":
        merged.stats.state_cache = options.state_cache
        merged.state_caching = {
            **(options.state_caching_info() or {}),
            "per_worker_stores": True,
        }
    return merged
