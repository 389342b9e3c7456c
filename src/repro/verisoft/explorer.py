"""The VeriSoft-style systematic state-space explorer.

Like VeriSoft [God97], the explorer never stores global states.  A path
through the state space is a sequence of **choices** — which process
executes its next visible operation at each global state, and which
value each ``VS_toss`` returns — and the search is a depth-first walk
over the choice tree.  *How* it backtracks is selectable
(``SearchOptions.backtrack``):

* ``"replay"`` — the classic stateless mode: re-execute the system from
  its initial state along the recorded choice prefix (the runtime is
  deterministic, so replay is exact).  Always available.
* ``"restore"`` — incremental backtracking: the runtime keeps an undo
  journal (:mod:`repro.runtime.journal`), the explorer checkpoints each
  branching choice point, and backtracking rewinds to the checkpoint in
  O(changes since) instead of re-executing O(depth) transitions.
  Every built-in communication object journals its mutations.  The two
  modes walk the *same*
  choice tree — identical states, transitions, events and POR decisions
  — and differ only in the ``replays``/``replayed_transitions``/
  ``restores`` telemetry (see ``docs/backtracking.md``).

At every global state the explorer checks for deadlocks, records
assertion outcomes, process crashes (runtime faults) and divergences,
and expands a *persistent* subset of the enabled transitions filtered
through a *sleep set* (:mod:`repro.verisoft.por`) — the partial-order
methods that [God97] identifies as the key to tractability.  For finite
acyclic state spaces the search is exhaustive up to the depth bound; it
"can always guarantee, from a given initial state, complete coverage of
the state space up to some depth".

Optionally the search is no longer purely stateless: with a
``state_cache`` (:mod:`repro.statespace`), every freshly reached global
state is looked up before being expanded and the subtree below a state
that was already expanded is pruned — state-space caching, the standard
complement to stateless search.  Sleep sets are *path-dependent*, so
combining them with caching can miss transitions (a state first reached
with a large sleep set records a smaller subtree than an uncached
search would explore from it); the ``safe`` cache mode therefore turns
sleep sets off alongside caching
(:attr:`~repro.verisoft.search.SearchOptions.sleep_sets_active`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable

from ..runtime.process import Process, ProcessStatus
from ..runtime.system import Run, System
from .por import (
    PersistentSetComputer,
    TransitionSig,
    augment_sleep,
    intern_signature,
    process_footprint,
    signature_of,
)
from .results import (
    AssertionViolationEvent,
    Choice,
    CrashEvent,
    DeadlockEvent,
    DivergenceEvent,
    ExplorationReport,
    ScheduleChoice,
    TossChoice,
    Trace,
    TraceStep,
)
from .search import BACKTRACK_MODES, SearchOptions
from .stats import SearchStats


@dataclass
class _ChoicePoint:
    """One branching decision in the DFS, with its untried alternatives."""

    kind: str  # "schedule" | "toss"
    alternatives: list[Any]  # process names or toss values
    index: int = 0
    sleep: frozenset[TransitionSig] = frozenset()
    #: signature per alternative (schedule points; used for sleep sets).
    sigs: list[TransitionSig | None] = field(default_factory=list)
    #: Restore-mode bookkeeping (:class:`_ResumeInfo`); ``None`` in
    #: replay mode and for single-alternative points, which are
    #: exhausted at creation and can never become a backtrack target.
    resume: Any = None

    @property
    def chosen(self) -> Any:
        return self.alternatives[self.index]

    def exhausted(self) -> bool:
        return self.index + 1 >= len(self.alternatives)


@dataclass(frozen=True, slots=True)
class _ResumeInfo:
    """Everything needed to re-enter the DFS at a choice point without
    re-executing the path prefix: the runtime checkpoint plus the
    explorer-side execution state (depth, carried sleep set, lengths to
    truncate the recorded choice/step lists back to, and which processes
    had already been noted as crashed/diverged).  Captured by
    :meth:`Explorer._choice` *before* the point's own choice is
    appended."""

    checkpoint: Any
    depth: int
    sleep: frozenset[TransitionSig]
    choices_len: int
    steps_len: int
    noted_broken: frozenset[str]


class _Leaf(Exception):
    """Internal: the current execution reached a leaf of the DFS tree."""


#: Shared empty sleep set — the overwhelmingly common value in the hot
#: loop; sharing it avoids one frozenset() allocation per transition.
_EMPTY_SLEEP: frozenset = frozenset()


class Explorer:
    """Drives the systematic search over a :class:`repro.runtime.System`.

    Arguments:
        system: the (closed) system to explore.
        options: the :class:`~repro.verisoft.search.SearchOptions` of the
            search.  The explorer reads the depth bound, ``backtrack``
            (see the module docstring), ``engine`` (resolved through
            :meth:`System.resolve_engine`), ``por``, the state cache
            (:meth:`~repro.verisoft.search.SearchOptions.make_state_store`
            and ``sleep_sets_active``), ``count_states``, the budgets
            (``stop_on_first``, ``max_paths``, ``max_transitions``,
            ``time_budget``), ``max_events``, the ``on_leaf``/``stop_when``
            hooks, ``progress``/``progress_interval`` and the observers:
            ``profile`` builds a :class:`~repro.obs.profile.HotSpotProfiler`
            fed on every fresh transition and fresh ``VS_toss`` point plus
            the per-phase wall times, ``coverage`` a
            :class:`~repro.obs.coverage.CoverageCollector` fed from the
            engines' node traces, and ``tracer`` records one span per DFS
            path and an instant per recorded deadlock/violation.  Every
            observer is anchored like the counters (only *fresh* ground
            counts), so parallel merges are exact and both engines agree;
            a disabled observer costs one ``None`` check per site.  The
            profiler and collector are attached to the report as
            ``report.profile`` / ``report.coverage``.
        initial_stack: a frozen choice prefix (see
            :mod:`repro.verisoft.parallel`); the search replays it and
            explores only the subtree below — backtracking never climbs
            above the prefix.  The states and edges of the prefix are
            not re-counted.  Its *last* pinned decision was never
            executed — it is an untried sibling harvested from a
            suspended DFS stack (work-stealing leases and
            suspended-search resumption, :mod:`repro.service`) — so its
            out-edge and everything below it is fresh ground and is
            counted, exactly as the sequential search would count it
            after bumping that choice point.
        yield_check: cooperative suspension hook, polled between paths.
            When it returns true *and* untried alternatives remain above
            the frozen prefix, the DFS stops cleanly: :attr:`suspended`
            is set and :attr:`final_stack`/:attr:`final_base` expose the
            live choice stack so the caller can harvest the remaining
            subtrees (see :func:`repro.verisoft.parallel.harvest_residual`).
            The report returned covers exactly the paths completed so
            far — every counter and event is final for the explored
            region, so a partial report plus the residual prefixes
            partitions the subtree losslessly.

    After :meth:`run`, :attr:`seen_states` holds the canonical state
    keys the search visited (``count_states``; ``None`` otherwise), so a
    parallel coordinator can union the sets of its leases.

    The hot loop shares **one** canonical state key per global state
    (:meth:`Run.state_key`, incremental for pointer-free programs)
    between seen-state dedup, the state store and the POR memo — and
    with ``por`` on, memoizes the per-state analysis (deadlock /
    termination flags, enabled count, persistent candidates and their
    signatures) keyed by those bytes.  Sound because the canonical key
    is injective over the complete runtime state and each memoized
    value is a pure function of the state; the path-dependent sleep-set
    filtering stays per-visit.
    """

    def __init__(
        self,
        system: System,
        options: SearchOptions,
        *,
        initial_stack: list[_ChoicePoint] | None = None,
        yield_check: Callable[[], bool] | None = None,
    ):
        if options.backtrack not in BACKTRACK_MODES:
            raise ValueError(f"unknown backtrack mode {options.backtrack!r}")
        self._system = system
        self._max_depth = options.max_depth
        self._restore = options.backtrack == "restore"
        # Resolved once so telemetry and every run agree.
        self._engine = system.resolve_engine(options.engine)
        self._live: _ExecState | None = None
        self._live_checkpoint_bytes = 0
        self._peak_checkpoint_bytes = 0
        self._por = options.por
        self._sleep_sets = options.sleep_sets_active and options.por
        self._state_store = options.make_state_store()
        self._count_states = options.count_states
        self._stop_on_first = options.stop_on_first
        self._max_paths = options.max_paths
        self._max_transitions = options.max_transitions
        self._time_budget = options.time_budget
        self._max_events = options.max_events
        self._on_leaf = options.on_leaf
        self._stop_when = options.stop_when
        self._initial_stack = initial_stack
        self._yield_check = yield_check
        #: Set when ``yield_check`` stopped the DFS before exhaustion;
        #: :attr:`final_stack`/:attr:`final_base` then hold the live
        #: choice stack for residual harvesting.
        self.suspended = False
        self.final_stack: list[_ChoicePoint] | None = None
        self.final_base = 0
        #: The canonical keys of every visited state (``count_states``).
        self.seen_states: set[Any] | None = None
        self._progress = options.progress
        self._progress_interval = options.progress_interval
        self._tracer = options.tracer
        self._profiler, self._coverage = options.make_observers(system)
        self._phases = None if self._profiler is None else self._profiler.phases
        self._deadline: float | None = None
        self._persistent: PersistentSetComputer | None = None
        if self._por:
            footprints = self._compute_footprints(system)
            self._persistent = PersistentSetComputer(footprints)
        #: Persistent-set memo keyed by the *control projection* of a
        #: state — ``(tuple of interned per-process signature ids,
        #: enabled bitmask)`` — holding ``(candidate names,
        #: signatures)``.  The persistent closure reads only transition
        #: signatures, enabledness and static footprints, so states
        #: sharing a projection share the result; the projection both
        #: hashes faster than a full state key and hits far more often.
        #: Only kept with POR on — without it the analysis is one scan.
        self._state_memo: dict[tuple, tuple] | None = {} if self._por else None
        # Whether any consumer needs the canonical key at each state.
        self._need_key = self._state_store is not None or self._count_states
        #: Interned trace records: ScheduleChoice / TossChoice /
        #: TraceStep are frozen value objects drawn from a tiny
        #: per-system domain, so each distinct record is allocated once
        #: and shared across every append of a long search.
        self._sched_cache: dict[str, ScheduleChoice] = {}
        self._toss_cache: dict[tuple[str, int], TossChoice] = {}
        self._step_cache: dict[tuple, TraceStep] = {}

    @staticmethod
    def _compute_footprints(system: System) -> dict[str, set[str]]:
        from ..dataflow.alias import analyze_aliases

        points_to = analyze_aliases(system.cfgs)
        footprints: dict[str, set[str]] = {}
        for name, proc, args in system.process_specs:
            cfg = system.cfgs[proc]
            launch = dict(zip(cfg.params, args))
            footprints[name] = process_footprint(
                system.cfgs, proc, launch, points_to
            )
        return footprints

    # -- public API -------------------------------------------------------------

    def run(self) -> ExplorationReport:
        report = ExplorationReport()
        stats = report.stats = SearchStats(
            strategy="dfs",
            backtrack="restore" if self._restore else "replay",
            engine=self._engine,
        )
        report.profile = self._profiler
        report.coverage = self._coverage
        if self._state_store is not None:
            report.state_caching = {
                **self._state_store.config(),
                "sleep_sets": self._sleep_sets,
            }
        if self._count_states:
            report.distinct_states = 0
        stack: list[_ChoicePoint] = list(self._initial_stack or ())
        base = len(stack)
        seen_states = self.seen_states = set() if self._count_states else None
        started = time.monotonic()
        cpu_started = time.process_time()
        if self._time_budget is not None:
            self._deadline = started + self._time_budget
        next_tick = started + self._progress_interval
        executions = 0
        resume_point: _ChoicePoint | None = None

        while True:
            try:
                if self._tracer is None:
                    self._execute(stack, report, seen_states, stats, resume_point)
                else:
                    with self._tracer.span("path", cat="dfs", path=executions):
                        self._execute(stack, report, seen_states, stats, resume_point)
            except _Leaf:
                pass
            report.paths_explored += 1
            if executions and not self._restore:
                stats.replays += 1
            executions += 1

            if self._progress is not None:
                now = time.monotonic()
                if now >= next_tick:
                    self._sync_stats(report, stats, started, cpu_started)
                    self._progress(stats)
                    next_tick = now + self._progress_interval

            if report.incomplete:
                report.truncated = True
                break
            if self._stop_on_first and not report.ok:
                break
            if self._stop_when is not None and self._stop_when(report):
                break
            if self._max_paths is not None and report.paths_explored >= self._max_paths:
                report.truncated = True
                break
            if (
                self._max_transitions is not None
                and report.transitions_executed >= self._max_transitions
            ):
                report.truncated = True
                break

            # Cooperative suspension: a steal request or a stop request
            # arrived between paths.  Only worth honouring while untried
            # alternatives remain above the frozen prefix — otherwise the
            # search is one pop-loop away from finishing anyway.
            if (
                self._yield_check is not None
                and self._yield_check()
                and any(not stack[j].exhausted() for j in range(base, len(stack)))
            ):
                self.suspended = True
                self.final_stack = stack
                self.final_base = base
                break

            # Backtrack to the deepest choice point with untried options,
            # never climbing into a frozen prefix.
            while len(stack) > base and stack[-1].exhausted():
                popped = stack.pop()
                if popped.resume is not None:
                    self._live_checkpoint_bytes -= popped.resume.checkpoint.approx_bytes
            if len(stack) <= base:
                break
            stack[-1].index += 1
            if self._restore:
                # Every bumped point had > 1 alternative, so it carries a
                # checkpoint: rewind the live run instead of re-executing.
                resume_point = stack[-1]

        if seen_states is not None:
            report.distinct_states = len(seen_states)
        self._sync_stats(report, stats, started, cpu_started)
        return report

    def _sync_stats(
        self,
        report: ExplorationReport,
        stats: SearchStats,
        started: float,
        cpu_started: float,
    ) -> None:
        stats.states_visited = report.states_visited
        stats.transitions_executed = report.transitions_executed
        stats.toss_points = report.toss_points
        stats.paths_explored = report.paths_explored
        stats.max_depth_reached = report.max_depth_reached
        stats.wall_time = time.monotonic() - started
        stats.cpu_time = time.process_time() - cpu_started
        if self._state_store is not None:
            stats.state_cache = self._state_store.kind
            stats.cache_hits = self._state_store.hits
            stats.cache_misses = self._state_store.misses
            stats.cache_stored = self._state_store.states_stored
            stats.cache_memory_bytes = self._state_store.memory_bytes
        if self._restore and self._live is not None:
            journal = self._live.run.journal
            stats.restores = journal.restores
            stats.undo_entries = journal.entries_recorded
            stats.checkpoint_memory_bytes = (
                journal.peak_memory_bytes() + self._peak_checkpoint_bytes
            )
        if self._coverage is not None:
            stats.coverage_nodes = self._coverage.nodes_covered
            stats.coverage_nodes_total = self._coverage.nodes_total

    # -- one (re-)execution -------------------------------------------------------

    def _execute(
        self,
        stack: list[_ChoicePoint],
        report: ExplorationReport,
        seen_states: set[Any] | None,
        stats: SearchStats,
        resume_point: _ChoicePoint | None = None,
    ) -> None:
        pending_schedule: _ChoicePoint | None = None
        coverage = self._coverage
        if resume_point is None:
            run = self._system.start(
                journal=self._restore,
                engine=self._engine,
                trace=coverage is not None,
            )
            if coverage is not None:
                coverage.begin_run()
            if self._phases is None:
                run.start_processes()
            else:
                t0 = perf_counter()
                run.start_processes()
                self._phases["engine"] += perf_counter() - t0
            replay_len = len(stack)
            state = _ExecState(
                run=run,
                stack=stack,
                replay_len=replay_len,
                report=report,
            )
            if coverage is not None:
                # The initial invisible segments are fresh ground exactly
                # when nothing precedes them: the sequential first path
                # or the root lease.  Prefixed/replayed runs re-execute
                # them.
                counted = replay_len == 0
                for process in run.processes:
                    entries = process.engine.take_trace()
                    if entries:
                        coverage.segment(process.name, entries, counted)
            if self._restore:
                self._live = state
            self._note_broken_processes(state)
            current_sleep: frozenset[TransitionSig] = frozenset()
            depth = 0
            may_toss = True
        else:
            # Restore-mode re-entry: rewind the live run to the bumped
            # choice point's checkpoint and resume the DFS there.  The
            # execution state is exactly what a replay would have rebuilt
            # on reaching the point: choices/steps truncated to the
            # prefix, ptr past every stacked point (so ``fresh`` holds
            # on all ground below, as it would after consuming the
            # bumped point during a replay).
            info = resume_point.resume
            state = self._live
            run = state.run
            run.restore(info.checkpoint)
            del state.choices[info.choices_len :]
            del state.steps[info.steps_len :]
            state.noted_broken = set(info.noted_broken)
            state.ptr = len(stack)
            depth = info.depth
            current_sleep = info.sleep
            if coverage is not None:
                # Re-anchor the per-process parsers on the restored
                # control stacks.  Trace buffers are empty here (every
                # drain immediately follows the resume that filled it),
                # but drain defensively so a stale tail can never be
                # attributed to post-restore ground.
                for process in run.processes:
                    process.engine.take_trace()
                    coverage.sync(process.name, process.engine.control_nodes())
            if resume_point.kind == "toss":
                # Answer the bumped toss and fall into the normal loop —
                # mirroring a replay's pass over the bumped point (no
                # profiler call, no toss_points increment: both fire at
                # creation only).
                tossing = run.toss_pending()
                value = resume_point.chosen
                request = tossing.toss_request if coverage is not None else None
                state.choices.append(self._toss_choice(tossing.name, value))
                run.answer_toss(tossing, value)
                if coverage is not None:
                    # A bumped point sits above the frozen prefix, so
                    # ``fresh`` holds — same anchoring as a replay pass
                    # consuming the bumped decision.
                    if state.fresh:
                        coverage.toss_value(request.proc_name, request.node_id, value)
                    entries = tossing.engine.take_trace()
                    if entries:
                        coverage.segment(tossing.name, entries, state.fresh)
                self._note_broken_one(state, tossing)
                may_toss = True
            else:
                pending_schedule = resume_point
                may_toss = False

        phases = self._phases
        while True:
            if pending_schedule is None:
                # Resolve pending toss choices (invisible, intra-transition).
                # Only the process(es) resumed since the last global state
                # can be awaiting a toss, so the scan is skipped entirely
                # on the common transition where the stepped process came
                # back AT_VISIBLE (``may_toss`` tracks that).
                while may_toss:
                    tossing = run.toss_pending()
                    if tossing is None:
                        break
                    request = tossing.toss_request
                    before = len(state.stack)
                    point = self._choice(
                        state,
                        "toss",
                        range(request.bound + 1),
                        frozenset(),
                        (),
                        depth,
                        current_sleep,
                    )
                    if self._profiler is not None and len(state.stack) > before:
                        self._profiler(
                            "toss", tossing.name, request, depth, request.bound + 1, True
                        )
                    value = point.chosen
                    state.choices.append(self._toss_choice(tossing.name, value))
                    if phases is None:
                        run.answer_toss(tossing, value)
                    else:
                        t0 = perf_counter()
                        run.answer_toss(tossing, value)
                        phases["engine"] += perf_counter() - t0
                    if coverage is not None:
                        # Toss *values* anchor on the answering edge (not
                        # point creation): each fresh traversal of a toss
                        # arc counts once system-wide.
                        t0 = perf_counter() if phases is not None else 0.0
                        if state.fresh:
                            coverage.toss_value(
                                request.proc_name, request.node_id, value
                            )
                        entries = tossing.engine.take_trace()
                        if entries:
                            coverage.segment(tossing.name, entries, state.fresh)
                        if phases is not None:
                            phases["coverage"] += perf_counter() - t0
                    self._note_broken_one(state, tossing)

                # A global state.  Key computation, dedup, store consult,
                # POR analysis and the leaf checks are all pure functions
                # of the state; a *replayed* state (inside the stacked
                # prefix) was fully processed when first reached and —
                # having a choice point below it — is by construction not
                # a leaf, so replay passes skip straight to the recorded
                # decision.  ``ptr < replay_len`` is exactly ``not fresh``.
                if state.ptr < state.replay_len:
                    point = self._choice(
                        state, "schedule", (), frozenset(), (), depth, current_sleep
                    )
                    created = False
                    fanout = len(point.alternatives)
                else:
                    report.states_visited += 1
                    if depth > report.max_depth_reached:
                        report.max_depth_reached = depth

                    # One canonical key per state (satellite of the
                    # incremental fingerprint work): shared by seen-state
                    # dedup and the state store — never computed twice,
                    # and skipped entirely when nothing consumes it (the
                    # POR memo below keys on the control projection
                    # instead).
                    if self._need_key:
                        if phases is None:
                            key = run.state_key()
                        else:
                            t0 = perf_counter()
                            key = run.state_key()
                            phases["fingerprint"] += perf_counter() - t0
                        if seen_states is not None:
                            seen_states.add(key)
                    else:
                        key = None

                    if self._deadline is not None and time.monotonic() > self._deadline:
                        report.incomplete = True
                        raise _Leaf()

                    # State-space caching: prune the subtree below a state
                    # that the store has already expanded.
                    if self._state_store is not None:
                        remaining = self._max_depth - depth
                        if phases is None:
                            live = self._state_store.visit(key, remaining)
                        else:
                            t0 = perf_counter()
                            live = self._state_store.visit(key, remaining)
                            phases["cache"] += perf_counter() - t0
                        if not live:
                            self._leaf(state)

                    # Fused per-state analysis: ONE pass over the
                    # processes computes the deadlock/termination flags,
                    # the enabled set and the control projection — per
                    # process the interned id of its pending transition
                    # signature (or a status marker), plus the enabled
                    # bitmask — replacing the three full scans of
                    # is_deadlock / all_terminated / enabled_processes.
                    t0 = perf_counter() if phases is not None else 0.0
                    enabled = []
                    control_ids = []
                    enabled_mask = 0
                    any_visible = False
                    all_parked = True  # AT_VISIBLE or blocked forever
                    all_terminated = True
                    for index, process in enumerate(run.processes):
                        status = process.status
                        if status is ProcessStatus.AT_VISIBLE:
                            any_visible = True
                            all_terminated = False
                            request = process.pending
                            entry = process._sig_entry
                            if entry is None or entry[0] is not request:
                                entry = intern_signature(process, request)
                            control_ids.append(entry[2])
                            if request.obj is None or request.obj.enabled(request.op):
                                enabled.append(process)
                                enabled_mask |= 1 << index
                        elif status is ProcessStatus.TERMINATED:
                            control_ids.append(-1)
                        else:
                            all_terminated = False
                            if status is ProcessStatus.CRASHED:
                                control_ids.append(-2)
                            elif status is ProcessStatus.DIVERGED:
                                control_ids.append(-3)
                            else:
                                control_ids.append(-4)
                                all_parked = False
                    enabled_count = len(enabled)
                    is_deadlock = all_parked and any_visible and not enabled_count

                    # The persistent candidate set is a pure function of
                    # the control projection (the closure reads only
                    # transition signatures, enabledness and the static
                    # footprints), so it is memoized on an int-tuple key —
                    # far cheaper to build and hash than a full state key.
                    memo = self._state_memo
                    if (
                        memo is not None
                        and self._persistent is not None
                        and enabled_count > 1
                    ):
                        pkey = (tuple(control_ids), enabled_mask)
                        entry = memo.get(pkey)
                        if entry is None:
                            candidates = self._persistent.persistent_choices(run, enabled)
                            cand_names = tuple(p.name for p in candidates)
                            sigs = tuple(signature_of(p) for p in candidates)
                            memo[pkey] = (cand_names, sigs)
                        else:
                            cand_names, sigs = entry
                    else:
                        if self._persistent is not None and enabled_count > 1:
                            candidates = self._persistent.persistent_choices(run, enabled)
                        else:
                            candidates = enabled
                        cand_names = tuple(p.name for p in candidates)
                        sigs = tuple(signature_of(p) for p in candidates)
                    if phases is not None:
                        phases["por"] += perf_counter() - t0

                    if is_deadlock:
                        if len(report.deadlocks) < self._max_events:
                            report.deadlocks.append(
                                DeadlockEvent(state.trace(), *_blocked_info(run))
                            )
                            if self._tracer is not None:
                                self._tracer.instant("deadlock", cat="event", depth=depth)
                        self._leaf(state)
                    if all_terminated:
                        self._leaf(state)
                    if depth >= self._max_depth:
                        report.truncated = True
                        self._leaf(state)

                    if not enabled_count:
                        # Every live process is blocked but some processes
                        # crashed/diverged/terminated: nothing can move.
                        self._leaf(state)

                    stats.enabled_transitions += enabled_count
                    stats.persistent_transitions += len(cand_names)

                    if current_sleep:
                        filtered_names: Any = []
                        filtered_sigs: Any = []
                        for name, sig in zip(cand_names, sigs):
                            if sig is not None and sig in current_sleep:
                                stats.sleep_prunes += 1
                                continue
                            filtered_names.append(name)
                            filtered_sigs.append(sig)
                        if not filtered_names:
                            # All moves are asleep: covered elsewhere.
                            self._leaf(state)
                    else:
                        # Empty sleep set (the common case): the memoized
                        # tuples are the filtered lists — no copies.
                        filtered_names = cand_names
                        filtered_sigs = sigs

                    before = len(state.stack)
                    point = self._choice(
                        state,
                        "schedule",
                        filtered_names,
                        current_sleep,
                        filtered_sigs,
                        depth,
                        current_sleep,
                    )
                    created = len(state.stack) > before
                    fanout = len(filtered_names)
            else:
                # Resuming at a bumped schedule point: the global state was
                # processed when the point was created (a replay would not
                # re-count it either — it is not fresh ground on a replay
                # pass), so go straight to executing the next alternative.
                # The creation-time fan-out equals len(alternatives).
                point = pending_schedule
                pending_schedule = None
                created = False
                fanout = len(point.alternatives)

            chosen_name = point.chosen
            chosen = run.process_map[chosen_name]
            chosen_sig = point.sigs[point.index] if point.sigs else signature_of(chosen)
            sched = self._sched_cache.get(chosen_name)
            if sched is None:
                sched = self._sched_cache[chosen_name] = ScheduleChoice(chosen_name)
            state.choices.append(sched)

            request = chosen.visible_request
            detail = ""
            obj_name = request.obj.name if request.obj is not None else None
            if phases is None:
                outcome = run.execute_visible(chosen)
            else:
                t0 = perf_counter()
                outcome = run.execute_visible(chosen)
                phases["engine"] += perf_counter() - t0
            if coverage is not None:
                if phases is None:
                    entries = chosen.engine.take_trace()
                    if entries:
                        coverage.segment(chosen_name, entries, state.fresh)
                else:
                    t0 = perf_counter()
                    entries = chosen.engine.take_trace()
                    if entries:
                        coverage.segment(chosen_name, entries, state.fresh)
                    phases["coverage"] += perf_counter() - t0
            if state.fresh:
                report.transitions_executed += 1
                if self._profiler is not None:
                    self._profiler(
                        "schedule", chosen_name, request, depth, fanout, created
                    )
            else:
                stats.replayed_transitions += 1
            step_key = (chosen_name, request.op, obj_name, detail)
            step = self._step_cache.get(step_key)
            if step is None:
                step = self._step_cache[step_key] = TraceStep(
                    chosen_name, request.op, obj_name, detail
                )
            state.steps.append(step)
            depth += 1
            if outcome is not None and outcome.violated and state.fresh:
                if self._tracer is not None:
                    self._tracer.instant(
                        "assertion-violation",
                        cat="event",
                        process=outcome.proc_name,
                        depth=depth,
                    )
                if len(report.violations) < self._max_events:
                    report.violations.append(
                        AssertionViolationEvent(
                            state.trace(),
                            outcome.process,
                            outcome.proc_name,
                            outcome.node_id,
                        )
                    )
                else:
                    report.violations.append(
                        AssertionViolationEvent(
                            Trace((), ()), outcome.process, outcome.proc_name, outcome.node_id
                        )
                    )
            self._note_broken_one(state, chosen)
            may_toss = chosen.status is ProcessStatus.NEEDS_TOSS
            if self._stop_on_first and not report.ok:
                self._leaf(state)

            # Sleep set carried into the successor state.
            if not self._sleep_sets:
                current_sleep = _EMPTY_SLEEP
            elif chosen_sig is not None:
                if point.index == 0 and not point.sleep:
                    # First alternative under an empty inherited set:
                    # nothing to merge, nothing to filter.
                    current_sleep = _EMPTY_SLEEP
                else:
                    explored = [
                        sig
                        for sig in point.sigs[: point.index]
                        if sig is not None
                    ]
                    current_sleep = augment_sleep(point.sleep, explored, chosen_sig)
            else:
                current_sleep = _EMPTY_SLEEP

    # -- choice handling ---------------------------------------------------------------

    def _choice(
        self,
        state: "_ExecState",
        kind: str,
        alternatives: list[Any],
        sleep: frozenset[TransitionSig],
        sigs: list[TransitionSig | None],
        depth: int = 0,
        resume_sleep: frozenset[TransitionSig] = frozenset(),
    ) -> _ChoicePoint:
        if state.ptr < len(state.stack):
            point = state.stack[state.ptr]
            state.ptr += 1
            if point.kind != kind:
                raise RuntimeError(
                    "replay divergence: expected a "
                    f"{point.kind} choice, got {kind} — the runtime is not deterministic"
                )
            return point
        # Alternatives/sigs may arrive as lazy ranges or memoized tuples —
        # materialized as lists only here, on point *creation* (replayed
        # visits never touch them, so the hot path allocates nothing).
        point = _ChoicePoint(
            kind=kind, alternatives=list(alternatives), sleep=sleep, sigs=list(sigs)
        )
        if kind == "toss":
            # Counted at creation so replays do not double-count.
            state.report.toss_points += 1
        if self._restore and len(alternatives) > 1:
            # Checkpoint *before* the point's own choice/step is appended,
            # so re-entry truncates back to exactly this prefix.  Points
            # with a single alternative are exhausted at creation — they
            # are popped during backtracking without ever being resumed,
            # so checkpointing them would be pure waste.
            checkpoint = state.run.checkpoint()
            point.resume = _ResumeInfo(
                checkpoint=checkpoint,
                depth=depth,
                sleep=resume_sleep,
                choices_len=len(state.choices),
                steps_len=len(state.steps),
                noted_broken=frozenset(state.noted_broken),
            )
            self._live_checkpoint_bytes += checkpoint.approx_bytes
            if self._live_checkpoint_bytes > self._peak_checkpoint_bytes:
                self._peak_checkpoint_bytes = self._live_checkpoint_bytes
        state.stack.append(point)
        state.ptr += 1
        return point

    def _toss_choice(self, name: str, value: int) -> TossChoice:
        key = (name, value)
        choice = self._toss_cache.get(key)
        if choice is None:
            choice = self._toss_cache[key] = TossChoice(name, value)
        return choice

    def _leaf(self, state: "_ExecState") -> None:
        if self._on_leaf is not None and state.fresh:
            self._on_leaf(state.run, state.trace())
        raise _Leaf()

    def _note_broken_processes(self, state: "_ExecState") -> None:
        for process in state.run.processes:
            self._note_broken_one(state, process)

    def _note_broken_one(self, state: "_ExecState", process: Process) -> None:
        """Record ``process`` if it just crashed or diverged.

        Only the process that was last resumed can have changed status,
        so the per-transition path checks that single process instead of
        rescanning the whole system.
        """
        status = process.status
        if status is not ProcessStatus.CRASHED and status is not ProcessStatus.DIVERGED:
            return
        if process.name in state.noted_broken:
            return
        report = state.report
        state.noted_broken.add(process.name)
        if status is ProcessStatus.CRASHED:
            if state.fresh and len(report.crashes) < self._max_events:
                report.crashes.append(
                    CrashEvent(state.trace(), process.name, str(process.crash))
                )
            elif state.fresh:
                report.crashes.append(CrashEvent(Trace((), ()), process.name, ""))
        else:
            if state.fresh and len(report.divergences) < self._max_events:
                report.divergences.append(DivergenceEvent(state.trace(), process.name))
            elif state.fresh:
                report.divergences.append(DivergenceEvent(Trace((), ()), process.name))


def _blocked_info(run: Run) -> tuple[tuple[str, ...], tuple[tuple[str, str, str | None], ...]]:
    """Names and pending-operation details of the blocked processes."""
    blocked = []
    waiting = []
    for process in run.processes:
        if process.status is ProcessStatus.AT_VISIBLE:
            blocked.append(process.name)
            request = process.visible_request
            obj = request.obj.name if request.obj is not None else None
            waiting.append((process.name, request.op, obj))
    return tuple(blocked), tuple(waiting)


@dataclass
class _ExecState:
    """Mutable state of one (re-)execution."""

    run: Run
    stack: list[_ChoicePoint]
    replay_len: int
    report: ExplorationReport
    ptr: int = 0
    choices: list[Choice] = field(default_factory=list)
    steps: list[TraceStep] = field(default_factory=list)
    noted_broken: set[str] = field(default_factory=set)

    @property
    def fresh(self) -> bool:
        """Whether execution has passed the replayed prefix (events,
        statistics and coverage are only recorded on fresh ground, so
        replays do not double-count).  The last replayed choice point was
        freshly bumped, so the edge out of it is fresh ground too."""
        return self.ptr >= self.replay_len

    def trace(self) -> Trace:
        return Trace(tuple(self.choices), tuple(self.steps))


class ReplayMismatch(RuntimeError):
    """A recorded choice could not be applied during :func:`replay`.

    On an unchanged system replay is exact (the runtime is
    deterministic), so a mismatch means the trace and the system have
    diverged — the program was edited, the system description changed,
    or the choice sequence was mutated (e.g. by a shrinking candidate).
    The exception records *where* and *why* for diagnosis
    (:mod:`repro.counterex.replay` turns it into a human-readable
    verdict).
    """

    def __init__(self, index: int, choice: Choice, reason: str):
        super().__init__(f"replay mismatch at choice {index} ({choice.describe()}): {reason}")
        self.index = index
        self.choice = choice
        self.reason = reason


def apply_choice(run: Run, index: int, choice: Choice) -> tuple[Any, Any]:
    """Apply one recorded ``choice`` to a live ``run``.

    Returns ``(visible_request_or_None, assertion_outcome_or_None)``.
    All validation happens *before* any state is mutated, so a
    :class:`ReplayMismatch` leaves the run exactly as it was — the
    property the incremental (checkpoint-reusing) replayer relies on to
    keep its live run valid across rejected shrink candidates.
    """
    request = None
    outcome = None
    if isinstance(choice, TossChoice):
        process = run.toss_pending()
        if process is None:
            raise ReplayMismatch(index, choice, "no process is awaiting a VS_toss")
        if process.name != choice.process:
            raise ReplayMismatch(
                index, choice, f"the pending VS_toss belongs to {process.name!r}"
            )
        bound = process.toss_request.bound
        if not (0 <= choice.value <= bound):
            raise ReplayMismatch(
                index, choice, f"toss value {choice.value} outside 0..{bound}"
            )
        run.answer_toss(process, choice.value)
    else:
        if run.toss_pending() is not None:
            raise ReplayMismatch(
                index,
                choice,
                f"process {run.toss_pending().name!r} has an unanswered VS_toss",
            )
        process = next(
            (p for p in run.processes if p.name == choice.process), None
        )
        if process is None:
            raise ReplayMismatch(index, choice, "no such process")
        if process.status is not ProcessStatus.AT_VISIBLE:
            raise ReplayMismatch(
                index,
                choice,
                f"process is {process.status.value}, not at a visible operation",
            )
        if not process.enabled():
            request = process.visible_request
            op = request.op if request is not None else "?"
            raise ReplayMismatch(
                index, choice, f"visible operation {op!r} is not enabled"
            )
        request = process.visible_request
        outcome = run.execute_visible(process)
    return request, outcome


def replay(
    system: System,
    trace: Trace | Iterable[Choice],
    on_step: Callable[[int, Choice, Any, Any], None] | None = None,
    engine: str = "walk",
) -> Run:
    """Re-execute a recorded choice sequence on a fresh run of ``system``.

    ``trace`` is a :class:`Trace` or a bare iterable of choices.  Returns
    the resulting :class:`Run` (for inspecting stores, sink outputs,
    final statuses, ...).  ``on_step`` is invoked after every applied
    choice with ``(index, choice, visible_request_or_None,
    assertion_outcome_or_None)`` — the hook the counterexample engine
    uses to rebuild trace steps and observe violations.  ``engine``
    selects the execution engine (both replay identically; see
    :mod:`repro.runtime.engine`).

    Raises :class:`ReplayMismatch` when a choice does not apply — the
    named process does not exist, is not at an enabled visible
    operation, a ``VS_toss`` answer is missing or out of bounds — with
    the index and reason recorded for diagnosis.
    """
    choices = trace.choices if isinstance(trace, Trace) else tuple(trace)
    run = system.start(engine=engine)
    run.start_processes()
    for index, choice in enumerate(choices):
        request, outcome = apply_choice(run, index, choice)
        if on_step is not None:
            on_step(index, choice, request, outcome)
    return run


def collect_output_traces(
    system: System,
    sink: str,
    max_depth: int = 200,
    max_paths: int | None = None,
) -> set[tuple]:
    """All visible output traces of ``system`` on environment sink ``sink``.

    Explores every path (partial-order reduction off, so every
    interleaving's outputs are observed) and collects the sink's output
    sequence at each leaf.  Used by the Figure 2/3 behaviour-equivalence
    experiments.
    """
    traces: set[tuple] = set()

    def on_leaf(run: Run, _trace: Trace) -> None:
        traces.add(tuple(run.env_outputs(sink)))

    Explorer(
        system,
        SearchOptions(
            max_depth=max_depth, por=False, max_paths=max_paths, on_leaf=on_leaf
        ),
    ).run()
    return traces
