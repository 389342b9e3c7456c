"""Random-walk exploration: VeriSoft's lightweight testing mode.

For state spaces far beyond exhaustive reach (the paper's real target
was an application of hundreds of thousands of lines), a cheap
complement to bounded-exhaustive search is running many independent
random walks: at every global state pick a random enabled process, at
every ``VS_toss`` a random value.  No coverage guarantee, but events
found are real and come with the same replayable traces.

Deterministic per seed (the runtime is deterministic and the only
randomness is the seeded PRNG), so a failing walk can be re-run exactly.
"""

from __future__ import annotations

import contextlib
import random
import time

from ..runtime.process import ProcessStatus
from ..runtime.system import System
from .search import SearchOptions
from .stats import SearchStats
from .results import (
    AssertionViolationEvent,
    CrashEvent,
    DeadlockEvent,
    DivergenceEvent,
    ExplorationReport,
    ScheduleChoice,
    TossChoice,
    Trace,
    TraceStep,
)


def random_walks(system: System, options: SearchOptions) -> ExplorationReport:
    """Run ``options.walks`` independent random executions of ``system``.

    Returns an :class:`ExplorationReport`; ``paths_explored`` counts the
    walks.  Unlike the exhaustive explorer, revisited states are neither
    detected nor avoided.  Of ``options`` the walks read ``walks``,
    ``seed``, ``max_depth``, ``max_events``, ``stop_on_first``,
    ``time_budget`` (seconds of wall clock, checked between walks; flags
    the report ``incomplete`` when it expires), ``progress`` /
    ``progress_interval`` and ``engine`` (resolved through
    :meth:`System.resolve_engine` and recorded in
    ``report.stats.engine``).

    The observers are the explorer's: ``profile`` attaches a
    :class:`~repro.obs.profile.HotSpotProfiler` as ``report.profile``
    (every walk transition is fresh, so ``created`` is always ``True``),
    ``coverage`` a :class:`~repro.obs.coverage.CoverageCollector` as
    ``report.coverage`` (every segment counts), and ``tracer`` gets one
    ``walk`` span per walk.
    """
    engine = system.resolve_engine(options.engine)
    max_depth = options.max_depth
    max_events = options.max_events
    progress = options.progress
    progress_interval = options.progress_interval
    tracer = options.tracer
    profiler, coverage = options.make_observers(system)
    rng = random.Random(options.seed)
    report = ExplorationReport()
    report.seed = options.seed  # walks are reproducible from the seed alone
    report.profile = profiler
    report.coverage = coverage
    stats = report.stats = SearchStats(strategy="random", engine=engine)
    started = time.monotonic()
    cpu_started = time.process_time()
    deadline = (
        None if options.time_budget is None else started + options.time_budget
    )
    next_tick = started + progress_interval

    def sync_stats() -> None:
        stats.states_visited = report.states_visited
        stats.transitions_executed = report.transitions_executed
        stats.toss_points = report.toss_points
        stats.paths_explored = report.paths_explored
        stats.max_depth_reached = report.max_depth_reached
        stats.wall_time = time.monotonic() - started
        stats.cpu_time = time.process_time() - cpu_started
        if coverage is not None:
            stats.coverage_nodes = coverage.nodes_covered
            stats.coverage_nodes_total = coverage.nodes_total

    def drain(process) -> None:
        entries = process.engine.take_trace()
        if entries:
            coverage.segment(process.name, entries, True)

    for _ in range(options.walks):
        if deadline is not None and time.monotonic() > deadline:
            report.incomplete = True
            report.truncated = True
            break
        run = system.start(engine=engine, trace=coverage is not None)
        if coverage is not None:
            coverage.begin_run()
        run.start_processes()
        if coverage is not None:
            for process in run.processes:
                drain(process)
        choices: list = []
        steps: list[TraceStep] = []
        noted: set[str] = set()
        depth = 0

        def note_broken() -> None:
            for process in run.processes:
                if process.name in noted:
                    continue
                if process.status is ProcessStatus.CRASHED:
                    noted.add(process.name)
                    if len(report.crashes) < max_events:
                        report.crashes.append(
                            CrashEvent(
                                Trace(tuple(choices), tuple(steps)),
                                process.name,
                                str(process.crash),
                            )
                        )
                elif process.status is ProcessStatus.DIVERGED:
                    noted.add(process.name)
                    if len(report.divergences) < max_events:
                        report.divergences.append(
                            DivergenceEvent(
                                Trace(tuple(choices), tuple(steps)), process.name
                            )
                        )

        note_broken()
        walk_span = (
            contextlib.nullcontext()
            if tracer is None
            else tracer.span("walk", cat="walk", walk=report.paths_explored)
        )
        with walk_span:
            while depth < max_depth:
                tossing = run.toss_pending()
                if tossing is not None:
                    report.toss_points += 1
                    request = tossing.toss_request
                    if profiler is not None:
                        profiler(
                            "toss", tossing.name, request, depth,
                            request.bound + 1, True,
                        )
                    value = rng.randint(0, request.bound)
                    choices.append(TossChoice(tossing.name, value))
                    run.answer_toss(tossing, value)
                    if coverage is not None:
                        coverage.toss_value(request.proc_name, request.node_id, value)
                        drain(tossing)
                    note_broken()
                    continue

                report.states_visited += 1
                if run.is_deadlock():
                    if len(report.deadlocks) < max_events:
                        from .explorer import _blocked_info

                        blocked, waiting = _blocked_info(run)
                        report.deadlocks.append(
                            DeadlockEvent(
                                Trace(tuple(choices), tuple(steps)), blocked, waiting
                            )
                        )
                    break
                enabled = run.enabled_processes()
                if not enabled:
                    break

                chosen = rng.choice(enabled)
                request = chosen.visible_request
                choices.append(ScheduleChoice(chosen.name))
                obj_name = request.obj.name if request.obj is not None else None
                outcome = run.execute_visible(chosen)
                if coverage is not None:
                    drain(chosen)
                steps.append(TraceStep(chosen.name, request.op, obj_name))
                report.transitions_executed += 1
                if profiler is not None:
                    profiler(
                        "schedule", chosen.name, request, depth,
                        len(enabled), True,
                    )
                depth += 1
                if outcome is not None and outcome.violated:
                    if len(report.violations) < max_events:
                        report.violations.append(
                            AssertionViolationEvent(
                                Trace(tuple(choices), tuple(steps)),
                                outcome.process,
                                outcome.proc_name,
                                outcome.node_id,
                            )
                        )
                note_broken()
            else:
                report.truncated = True

        report.max_depth_reached = max(report.max_depth_reached, depth)
        report.paths_explored += 1
        if progress is not None:
            now = time.monotonic()
            if now >= next_tick:
                sync_stats()
                progress(stats)
                next_tick = now + progress_interval
        if options.stop_on_first and not report.ok:
            break

    sync_stats()
    return report
