"""Command-line interface: the paper's prototype tool, as a CLI.

Subcommands
-----------

``close``
    Close an open RC (or C) program with its most general environment
    and write the closed program as runnable RC source::

        repro close open.rc --env-param main:x -o closed.rc --stats

``analyze``
    Print the Steps 2–3 analysis (environment-defined inputs, tainted
    objects, marked/eliminated nodes) without transforming.

``graph``
    Dump control-flow graphs in Graphviz DOT (before and, with
    ``--closed``, after the transformation).

``search``
    The unified search front end: run any strategy (``dfs``, ``random``
    or ``parallel``) over a *system description* — a JSON file naming
    the program, the communication objects and the processes (see
    ``--help`` for the schema), optionally closing the program first::

        repro search system.json --strategy parallel --jobs 4 --progress

    ``--save-traces DIR`` persists every violation as a replayable JSON
    trace; ``--stats-json FILE`` dumps machine-readable telemetry.
    Exit code 3 signals "violations found" (0 = clean), so CI jobs can
    gate on it.

    Observability (see docs/observability.md): ``--trace-out FILE``
    exports the run as Chrome trace-event JSON (Perfetto-loadable) and
    writes a ``run.json`` manifest; ``--profile`` prints the hot-spot
    tables; ``--stall-timeout`` tunes the parallel worker-stall warning.

``profile``
    ``search`` with profiling-first defaults: run a strategy, print the
    per-CFG-node / per-toss-point hot-spot tables::

        repro profile system.json --strategy parallel -j 4 --top 15

``replay``
    Re-execute a saved trace (``repro replay trace.json``), verify the
    recorded violation reproduces, and diagnose divergence (fingerprint
    mismatch, disabled choice, different violation) when the program
    has changed.  The system is rebuilt from the trace's embedded
    description, ``--system desc.json`` or ``--module pkg.mod:factory``.

``shrink``
    Minimize a saved trace to its smallest reproducer (ddmin over the
    choice sequence + toss-value minimization)::

        repro shrink trace.json -o minimal.json

``submit`` / ``serve`` / ``jobs`` / ``stop`` / ``resume``
    The durable job service (see docs/service.md): ``submit`` enqueues
    a search as a self-contained job in an on-disk store, ``serve``
    claims and runs queued jobs under the work-stealing scheduler,
    ``jobs`` lists live status from the streamed heartbeats, ``stop``
    checkpoints a running job's frontier and suspends it, and
    ``resume`` re-queues it to continue exactly where it left off —
    across process restarts and machines::

        repro submit system.json --jobs-dir jobs -j 4
        repro serve --jobs-dir jobs --once
        repro jobs --jobs-dir jobs

Every search-style command takes ``--engine walk|compiled`` to pick
the execution engine (see docs/engine.md); ``compiled`` translates the
CFGs to Python closures for throughput and falls back to the reference
walking interpreter when the program is not compilable.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import __version__
from .cfg import build_cfgs, to_dot
from .closing import ClosingSpec, close_program
from .lang.errors import LangError
from .runtime import System
from .sysdesc import (
    SYSTEM_SCHEMA as _SYSTEM_SCHEMA,
)
from .sysdesc import (
    DescriptionError,
    description_language,
    load_description,
    load_program,
    system_from_description,
)
from .verisoft import ENGINES, ProgressPrinter, SearchOptions, run_search


def _load_program(path: pathlib.Path):
    return load_program(path)


def _parse_env_params(pairs: list[str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for pair in pairs:
        if ":" not in pair:
            raise SystemExit(f"--env-param expects PROC:PARAM, got {pair!r}")
        proc, param = pair.split(":", 1)
        out.setdefault(proc, []).append(param)
    return out


def _spec_from_args(args) -> ClosingSpec:
    return ClosingSpec.make(
        env_params=_parse_env_params(args.env_param),
        env_channels=args.env_channel,
        env_shared=args.env_shared,
    )


def cmd_close(args) -> int:
    """The ``close`` subcommand."""
    program = _load_program(args.file)
    closed = close_program(program, _spec_from_args(args), optimize=args.optimize)
    source = closed.to_source()
    if args.output:
        args.output.write_text(source)
        print(f"wrote {args.output}")
    else:
        print(source)
    if args.stats:
        print(closed.summary(), file=sys.stderr)
        for proc, params in closed.removed_params.items():
            print(f"  {proc}: interface removed: {', '.join(params)}", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    """The ``analyze`` subcommand."""
    from .closing import analyze_for_closing

    program = _load_program(args.file)
    cfgs = build_cfgs(program)
    analysis = analyze_for_closing(cfgs, _spec_from_args(args))
    print(f"fixpoint rounds: {analysis.rounds}")
    if analysis.tainted_objects:
        print(f"tainted objects: {', '.join(sorted(analysis.tainted_objects))}")
    if analysis.all_objects_tainted:
        print("WARNING: an unresolvable tainted transmission taints every object")
    for proc, pa in sorted(analysis.procs.items()):
        env_params = analysis.env_params.get(proc, frozenset())
        print(f"\nproc {proc}:")
        if env_params:
            print(f"  environment parameters: {', '.join(sorted(env_params))}")
        if proc in analysis.env_returns:
            print("  return value: environment-defined")
        eliminated = [n for n in pa.cfg.nodes if n not in pa.marked]
        print(f"  nodes: {pa.cfg.node_count()}, eliminated: {len(eliminated)}")
        for node_id in sorted(pa.n_i):
            node = pa.cfg.nodes[node_id]
            vi = ", ".join(sorted(pa.vi_of(node_id)))
            print(f"    N_I {node_id:>3}: {node.describe():<30} V_I = {{{vi}}}")
    return 0


def cmd_graph(args) -> int:
    """The ``graph`` subcommand."""
    program = _load_program(args.file)
    cfgs = build_cfgs(program)
    if args.closed:
        closed = close_program(program, _spec_from_args(args))
        cfgs = closed.cfgs
    procs = [args.proc] if args.proc else list(cfgs)
    for proc in procs:
        if proc not in cfgs:
            raise SystemExit(f"unknown procedure {proc!r}")
        dot = to_dot(cfgs[proc])
        if args.out_dir:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            path = args.out_dir / f"{proc}.dot"
            path.write_text(dot)
            print(f"wrote {path}")
        else:
            print(dot)
    return 0


# The description machinery lives in repro.sysdesc (shared with the job
# service); the CLI's job is converting DescriptionError to a clean exit.


def _read_description(description_path: pathlib.Path) -> dict:
    try:
        return load_description(description_path)
    except DescriptionError as err:
        raise SystemExit(str(err))


def _system_from_description(
    description: dict,
    base_dir: pathlib.Path | None,
    program_source: str | None = None,
    tracer=None,
) -> System:
    try:
        return system_from_description(
            description, base_dir, program_source=program_source, tracer=tracer
        )
    except DescriptionError as err:
        raise SystemExit(str(err))


def _build_system(description_path: pathlib.Path) -> System:
    description = _read_description(description_path)
    return _system_from_description(description, description_path.parent)


def _print_report(report, system=None, program: str | None = None) -> None:
    print(report.summary())
    if not report.ok:
        from .counterex import describe_groups

        print(describe_groups(report.triage(), system=system, program=program))
    for event in report.deadlocks[:5]:
        print("\n" + event.describe())
    for event in report.violations[:5]:
        print("\n" + event.describe())
    for event in report.crashes[:5]:
        print(f"\ncrash in {event.process}: {event.message}")
    for event in report.divergences[:5]:
        print(f"\ndivergence in {event.process}")


def _options_from_args(args) -> SearchOptions:
    """Build :class:`SearchOptions` from ``search``-style CLI arguments."""
    return SearchOptions(
        strategy=args.strategy,
        max_depth=args.max_depth,
        por=not args.no_por,
        count_states=args.count_states,
        stop_on_first=args.stop_on_first,
        max_paths=args.max_paths,
        max_transitions=args.max_transitions,
        time_budget=args.time_budget,
        max_events=args.max_events,
        backtrack=args.backtrack,
        engine=args.engine,
        state_cache=args.state_cache,
        cache_bits=args.cache_bits,
        cache_mode=args.cache_mode,
        walks=args.walks,
        seed=args.seed,
        jobs=args.jobs,
        profile=args.profile,
        coverage=getattr(args, "coverage", False)
        or getattr(args, "coverage_json", None) is not None,
        stall_timeout=args.stall_timeout or None,
    )


#: ``repro search`` exit code when violations were found (see
#: docs/search.md); 0 = clean search, 2 = usage/input error.
EXIT_VIOLATIONS = 3


def cmd_search(args) -> int:
    """The ``search`` subcommand: the unified search front end."""
    tracer = None
    if args.trace_out is not None:
        from .obs import Tracer

        tracer = Tracer()

    description = _read_description(args.system)
    if tracer is None:
        system = _system_from_description(description, args.system.parent)
    else:
        with tracer.phase("build-system"):
            system = _system_from_description(
                description, args.system.parent, tracer=tracer
            )
    options = _options_from_args(args)
    options.tracer = tracer
    # Oversubscription warnings are emitted (once) by the search
    # drivers themselves — see repro.verisoft.parallel.warn_oversubscription.
    ticker = ProgressPrinter() if args.progress else None
    if ticker is not None:
        options.progress = ticker
    try:
        if tracer is None:
            report = run_search(system, options)
        else:
            with tracer.phase("search", strategy=options.strategy):
                report = run_search(system, options)
    finally:
        if ticker is not None:
            ticker.finish()
    language = description_language(description)
    _print_report(report, system=system, program=description.get("program"))
    if args.profile and report.profile is not None:
        print("\n" + report.profile.render_table(args.profile_top, system=system))
    if report.coverage is not None and getattr(args, "coverage", False):
        print("\n" + report.coverage.render_summary(program=description.get("program")))
    if getattr(args, "coverage_json", None) is not None:
        if report.coverage is None:
            print("no coverage collected", file=sys.stderr)
        else:
            args.coverage_json.write_text(
                json.dumps(report.coverage.as_dict(), indent=2) + "\n"
            )
            print(f"wrote coverage to {args.coverage_json}", file=sys.stderr)
    if args.stats and report.stats is not None:
        print("\n" + report.stats.describe(), file=sys.stderr)
    if args.stats_json is not None and report.stats is not None:
        payload = report.stats.json_dict()
        payload["language"] = language
        if report.profile is not None:
            payload["profile"] = report.profile.as_dict()
        args.stats_json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote stats to {args.stats_json}", file=sys.stderr)
    artifacts: list[pathlib.Path] = []
    if args.save_traces is not None:
        from .counterex import save_report_traces

        program_text = (args.system.parent / description["program"]).read_text()
        written = save_report_traces(
            args.save_traces,
            report,
            system=system,
            system_payload={
                "description": description,
                "program_source": program_text,
            },
            language=language,
        )
        artifacts.extend(written)
        print(f"wrote {len(written)} trace file(s) to {args.save_traces}")
    if tracer is not None:
        artifacts.append(tracer.write(args.trace_out))
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
    if (
        args.save_traces is not None
        or tracer is not None
        or getattr(args, "manifest_out", None) is not None
    ):
        from .obs import build_manifest, write_manifest

        source = None
        program_name = description.get("program")
        if program_name:
            try:
                source = {
                    "path": str(program_name),
                    "text": (args.system.parent / program_name).read_text(),
                }
            except OSError:
                source = None
        manifest = build_manifest(
            argv=sys.argv,
            options=options,
            report=report,
            system=system,
            phases=tracer.phase_timings() if tracer is not None else None,
            artifacts=[str(path) for path in artifacts],
            language=language,
            source=source,
        )
        destinations: list[pathlib.Path] = []
        if getattr(args, "manifest_out", None) is not None:
            destinations.append(args.manifest_out)
        if args.save_traces is not None:
            destinations.append(args.save_traces / "run.json")
        elif tracer is not None:
            destinations.append(
                args.trace_out.with_name(args.trace_out.stem + ".run.json")
            )
        for destination in destinations:
            where = write_manifest(destination, manifest)
            print(f"wrote manifest to {where}", file=sys.stderr)
    return 0 if report.ok else EXIT_VIOLATIONS


def _system_for_trace(args, trace_file) -> System:
    """Rebuild the system a trace file talks about.

    Resolution order: ``--module pkg.mod:factory`` (a zero-argument
    callable returning a :class:`System`), ``--system description.json``,
    then the trace file's own embedded system payload.
    """
    if getattr(args, "module", None):
        import importlib

        target = args.module
        if ":" not in target:
            raise SystemExit(f"--module expects MODULE:FACTORY, got {target!r}")
        module_name, attr = target.split(":", 1)
        module = importlib.import_module(module_name)
        factory = getattr(module, attr, None)
        if factory is None:
            raise SystemExit(f"module {module_name!r} has no attribute {attr!r}")
        system = factory()
        if not isinstance(system, System):
            raise SystemExit(f"{target} did not return a System")
        return system
    if getattr(args, "system", None):
        return _build_system(args.system)
    if trace_file.system is not None:
        return _system_from_description(
            trace_file.system["description"],
            base_dir=None,
            program_source=trace_file.system.get("program_source"),
        )
    raise SystemExit(
        "trace file has no embedded system description; "
        "pass --system description.json or --module pkg.mod:factory"
    )


def cmd_replay(args) -> int:
    """The ``replay`` subcommand: re-execute a saved trace and verify
    that the recorded violation reproduces."""
    from .counterex import TraceFormatError, load_trace, verify_trace

    try:
        trace_file = load_trace(args.trace)
    except TraceFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    system = _system_for_trace(args, trace_file)
    verdict = verify_trace(system, trace_file, engine=args.engine)
    print(verdict.detail)
    if args.show_trace and verdict.outcome.trace.steps:
        print("\nscenario:")
        print(verdict.outcome.trace.describe())
    return 0 if verdict.ok else 1


def cmd_shrink(args) -> int:
    """The ``shrink`` subcommand: minimize a saved trace with ddmin +
    toss-value minimization and write the minimal reproducer."""
    from .counterex import (
        ShrinkError,
        TraceFormatError,
        load_trace,
        save_trace,
        shrink,
    )

    try:
        trace_file = load_trace(args.trace)
    except TraceFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    system = _system_for_trace(args, trace_file)
    try:
        result = shrink(system, trace_file.event(), max_oracle_runs=args.max_runs)
    except ShrinkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(result.describe())
    shrunk = type(trace_file)(
        violation=trace_file.violation,
        trace=result.trace,
        fingerprint=system.fingerprint(),
        search=trace_file.search,
        system=trace_file.system,
        shrink={
            "original_choices": result.original_length,
            "oracle_runs": result.oracle_runs,
        },
    )
    output = args.output or args.trace
    save_trace(output, shrunk)
    print(f"wrote {output}")
    if args.show_trace:
        print("\nminimal scenario:")
        print(result.trace.describe())
    return 0


def cmd_report(args) -> int:
    """The ``report`` subcommand: render a run manifest as a
    self-contained HTML report."""
    from .obs import load_manifest, render_html, write_report

    try:
        manifest = load_manifest(args.manifest)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read manifest: {err}", file=sys.stderr)
        return 2
    if args.source is not None:
        # Override (or supply) the annotated source listing.
        manifest.setdefault("program", {})
        manifest["program"]["path"] = str(args.source)
        manifest["program"]["text"] = args.source.read_text()
    if args.coverage_json is not None:
        coverage = (manifest.get("report") or {}).get("coverage")
        if coverage is None:
            print("manifest has no coverage data", file=sys.stderr)
        else:
            args.coverage_json.write_text(json.dumps(coverage, indent=2) + "\n")
            print(f"wrote coverage to {args.coverage_json}", file=sys.stderr)
    if args.output is not None:
        where = write_report(manifest, args.output)
        print(f"wrote {where}")
    else:
        print(render_html(manifest))
    return 0


def cmd_profile(args) -> int:
    """The ``profile`` subcommand: a search run whose deliverable is the
    hot-spot table (``repro search --profile`` with profiling-first
    defaults)."""
    return cmd_search(args)


# ---------------------------------------------------------------------------
# The job service: submit / serve / jobs / stop / resume
# ---------------------------------------------------------------------------


def _job_store(args):
    from .service import JobStore

    return JobStore(args.jobs_dir)


def cmd_submit(args) -> int:
    """The ``submit`` subcommand: enqueue a search as a durable job."""
    description = _read_description(args.system)
    options = _options_from_args(args)
    options.strategy = "parallel"
    store = _job_store(args)
    try:
        job = store.submit(
            description,
            options,
            base_dir=args.system.parent,
            name=args.name or args.system.stem,
        )
    except (OSError, KeyError, ValueError) as err:
        raise SystemExit(f"submit failed: {err}")
    print(job.id)
    return 0


def cmd_serve(args) -> int:
    """The ``serve`` subcommand: run queued jobs from a store."""
    from .service.jobs import serve

    store = _job_store(args)

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    ran = serve(
        store,
        once=args.once,
        poll_interval=args.poll,
        log=log,
        max_jobs=args.max_jobs,
        metrics_out=args.metrics_out,
    )
    print(f"ran {ran} job(s)", file=sys.stderr)
    return 0


def cmd_jobs(args) -> int:
    """The ``jobs`` subcommand: list the store, or show one job."""
    store = _job_store(args)
    if args.job_id:
        try:
            job = store.get(args.job_id)
        except KeyError as err:
            raise SystemExit(str(err.args[0]))
        print(job.describe())
        if args.json:
            beat = job.latest_stats()
            doc = {
                "id": job.id,
                "name": job.name,
                "state": job.state,
                "error": job.error,
                "stats": beat.get("stats") if beat else None,
                "has_frontier": job.frontier_path.exists(),
                "has_result": job.result_path.exists(),
                "has_manifest": job.manifest_path.exists(),
            }
            print(json.dumps(doc, indent=2))
        return 0
    jobs = store.jobs()
    if not jobs:
        print("no jobs", file=sys.stderr)
        return 0
    for job in jobs:
        print(job.describe())
    return 0


def cmd_stop(args) -> int:
    """The ``stop`` subcommand: ask a running job to checkpoint and
    suspend (honoured at its next path boundary)."""
    store = _job_store(args)
    try:
        job = store.request_stop(args.job_id)
    except KeyError as err:
        raise SystemExit(str(err.args[0]))
    print(f"stop requested for {job.id} (state: {job.state})")
    return 0


def cmd_resume(args) -> int:
    """The ``resume`` subcommand: re-queue a stopped/failed job; its
    frontier checkpoint (if any) picks up where the search left off."""
    store = _job_store(args)
    try:
        job = store.resume(args.job_id)
    except (KeyError, ValueError) as err:
        raise SystemExit(str(err.args[0]) if err.args else str(err))
    print(f"{job.id} re-queued")
    return 0


def _add_jobs_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs-dir",
        type=pathlib.Path,
        default=pathlib.Path("jobs"),
        metavar="DIR",
        help="the on-disk job store (default: ./jobs)",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The observability flags shared by ``search``-style commands."""
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="export the run as Chrome trace-event JSON (load in "
        "chrome://tracing or https://ui.perfetto.dev); also writes a "
        "run manifest next to it",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect per-CFG-node / per-toss-point hot-spot counters "
        "and print the top-N tables after the run",
    )
    parser.add_argument(
        "--coverage",
        action="store_true",
        help="collect CFG node/edge and environment-input (VS_toss) "
        "coverage and print the summary after the run",
    )
    parser.add_argument(
        "--coverage-json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="dump the coverage data as machine-readable JSON "
        "(implies --coverage)",
    )
    parser.add_argument(
        "--manifest-out",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the run manifest (run.json) here; feed it to "
        "'repro report' for a self-contained HTML run report",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=10,
        metavar="N",
        help="rows per hot-spot table (default: 10)",
    )
    parser.add_argument(
        "--stall-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="parallel strategy: warn when a worker makes no progress "
        "for this long (0 disables; default: 10)",
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--env-param",
        action="append",
        default=[],
        metavar="PROC:PARAM",
        help="declare a parameter as environment-provided (repeatable)",
    )
    parser.add_argument(
        "--env-channel",
        action="append",
        default=[],
        metavar="NAME",
        help="declare a channel fed by the environment (repeatable)",
    )
    parser.add_argument(
        "--env-shared",
        action="append",
        default=[],
        metavar="NAME",
        help="declare a shared variable written by the environment (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatically close open reactive programs (PLDI 1998) "
        "and explore the result.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    close_parser = sub.add_parser("close", help="close an open program")
    close_parser.add_argument(
        "file", type=pathlib.Path, help="RC (.rc), C (.c) or Python (.py) source"
    )
    _add_spec_arguments(close_parser)
    close_parser.add_argument("-o", "--output", type=pathlib.Path)
    close_parser.add_argument("--optimize", action="store_true", help="run clean-up passes")
    close_parser.add_argument("--stats", action="store_true")
    close_parser.set_defaults(func=cmd_close)

    analyze_parser = sub.add_parser("analyze", help="print the Steps 2-3 analysis")
    analyze_parser.add_argument("file", type=pathlib.Path)
    _add_spec_arguments(analyze_parser)
    analyze_parser.set_defaults(func=cmd_analyze)

    graph_parser = sub.add_parser("graph", help="dump control-flow graphs as DOT")
    graph_parser.add_argument("file", type=pathlib.Path)
    graph_parser.add_argument("--proc", help="only this procedure")
    graph_parser.add_argument("--closed", action="store_true", help="graph after closing")
    graph_parser.add_argument("--out-dir", type=pathlib.Path)
    _add_spec_arguments(graph_parser)
    graph_parser.set_defaults(func=cmd_graph)

    search_parser = sub.add_parser(
        "search",
        help="search a system description (unified front end)",
        epilog=_SYSTEM_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    search_parser.add_argument(
        "system",
        type=pathlib.Path,
        help="system description (.json) or verifiable Python program (.py)",
    )
    search_parser.add_argument(
        "--strategy",
        choices=("dfs", "random", "parallel"),
        default="dfs",
        help="search strategy (default: dfs)",
    )
    search_parser.add_argument("--max-depth", type=int, default=100)
    search_parser.add_argument("--max-paths", type=int, default=None)
    search_parser.add_argument("--max-transitions", type=int, default=None)
    search_parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; the report is flagged incomplete when it expires",
    )
    search_parser.add_argument("--no-por", action="store_true")
    search_parser.add_argument("--count-states", action="store_true")
    search_parser.add_argument("--stop-on-first", action="store_true")
    search_parser.add_argument("--max-events", type=int, default=25)
    search_parser.add_argument(
        "--backtrack",
        choices=("restore", "replay"),
        default="restore",
        help="DFS backtracking mode: 'restore' rewinds the live run via "
        "undo-journal checkpoints (O(changes) per backtrack); "
        "'replay' is classic stateless re-execution. Both report "
        "identical results (default: restore)",
    )
    search_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="walk",
        help="execution engine: 'walk' is the reference tree-walking "
        "interpreter; 'compiled' translates the CFGs to Python closures "
        "for throughput, reporting identical results, and falls back to "
        "'walk' when the program uses an uncompilable construct "
        "(default: walk)",
    )
    search_parser.add_argument(
        "--state-cache",
        choices=("off", "exact", "hashcompact", "bitstate"),
        default="off",
        help="prune revisited states with a visited-state store: exact "
        "(full snapshots, sound), hashcompact (64-bit digests) or "
        "bitstate (Bloom filter; see --cache-bits). Default: off "
        "(pure stateless search)",
    )
    search_parser.add_argument(
        "--cache-bits",
        type=int,
        default=24,
        metavar="N",
        help="bitstate store size: 2**N bits (default: 24, i.e. 2 MiB)",
    )
    search_parser.add_argument(
        "--cache-mode",
        choices=("safe", "unsafe-fast"),
        default="safe",
        help="'safe' disables sleep-set pruning while caching (sound); "
        "'unsafe-fast' keeps it and may miss interleavings "
        "(default: safe)",
    )
    search_parser.add_argument(
        "--walks", type=int, default=100, help="random strategy: number of walks"
    )
    search_parser.add_argument(
        "--seed", type=int, default=0, help="random strategy: PRNG seed"
    )
    search_parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=0,
        metavar="N",
        help="parallel strategy: worker processes (0 = all cores); "
        "workers take subtree leases and idle workers steal from busy ones",
    )
    search_parser.add_argument(
        "--progress",
        action="store_true",
        help="print a live one-line search ticker to stderr",
    )
    search_parser.add_argument(
        "--stats",
        action="store_true",
        help="print the full search-telemetry summary after the run",
    )
    search_parser.add_argument(
        "--stats-json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="dump the SearchStats telemetry as machine-readable JSON",
    )
    search_parser.add_argument(
        "--save-traces",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="write one replayable JSON trace file per violation to DIR "
        "(replay with 'repro replay', minimize with 'repro shrink')",
    )
    _add_obs_arguments(search_parser)
    search_parser.set_defaults(func=cmd_search)

    profile_parser = sub.add_parser(
        "profile",
        help="search a system and print the hot-spot profile",
        epilog=_SYSTEM_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    profile_parser.add_argument(
        "system",
        type=pathlib.Path,
        help="system description (.json) or verifiable Python program (.py)",
    )
    profile_parser.add_argument(
        "--strategy",
        choices=("dfs", "random", "parallel"),
        default="dfs",
        help="search strategy to profile (default: dfs)",
    )
    profile_parser.add_argument("--max-depth", type=int, default=100)
    profile_parser.add_argument("--max-paths", type=int, default=None)
    profile_parser.add_argument("--max-transitions", type=int, default=None)
    profile_parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS"
    )
    profile_parser.add_argument("--walks", type=int, default=100)
    profile_parser.add_argument("--seed", type=int, default=0)
    profile_parser.add_argument("--jobs", "-j", type=int, default=0, metavar="N")
    profile_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="walk",
        help="execution engine to profile (default: walk)",
    )
    profile_parser.add_argument(
        "--top",
        dest="profile_top",
        type=int,
        default=10,
        metavar="N",
        help="rows per hot-spot table (default: 10)",
    )
    profile_parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="also export a Chrome trace-event JSON timeline",
    )
    profile_parser.add_argument(
        "--stats-json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="dump telemetry + profile as machine-readable JSON",
    )
    profile_parser.add_argument("--progress", action="store_true")
    profile_parser.set_defaults(
        func=cmd_profile,
        no_por=False,
        count_states=False,
        stop_on_first=False,
        max_events=25,
        backtrack="restore",
        state_cache="off",
        cache_bits=24,
        cache_mode="safe",
        stats=False,
        save_traces=None,
        profile=True,
        stall_timeout=10.0,
    )

    report_parser = sub.add_parser(
        "report",
        help="render a run manifest (run.json) as a self-contained HTML report",
    )
    report_parser.add_argument(
        "manifest", type=pathlib.Path, help="run manifest (run.json)"
    )
    report_parser.add_argument(
        "-o",
        "--output",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the HTML here (default: print to stdout)",
    )
    report_parser.add_argument(
        "--source",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="annotate coverage onto this source file (overrides the "
        "program text embedded in the manifest)",
    )
    report_parser.add_argument(
        "--coverage-json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="also extract the manifest's coverage block as JSON",
    )
    report_parser.set_defaults(func=cmd_report)

    replay_parser = sub.add_parser(
        "replay",
        help="re-execute a saved counterexample trace and verify it reproduces",
    )
    replay_parser.add_argument("trace", type=pathlib.Path, help="trace JSON file")
    replay_parser.add_argument(
        "--system",
        type=pathlib.Path,
        default=None,
        help="rebuild the system from this description instead of the "
        "trace's embedded payload",
    )
    replay_parser.add_argument(
        "--module",
        default=None,
        metavar="MODULE:FACTORY",
        help="rebuild the system by calling a zero-argument factory, "
        "e.g. repro.fiveess.app:demo_system",
    )
    replay_parser.add_argument(
        "--show-trace",
        action="store_true",
        help="also print the replayed scenario's visible operations",
    )
    replay_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="walk",
        help="execution engine for the re-execution; a note is printed "
        "when it differs from the engine the trace was found under "
        "(default: walk)",
    )
    replay_parser.set_defaults(func=cmd_replay)

    shrink_parser = sub.add_parser(
        "shrink",
        help="minimize a saved trace (ddmin + toss minimization)",
    )
    shrink_parser.add_argument("trace", type=pathlib.Path, help="trace JSON file")
    shrink_parser.add_argument(
        "-o",
        "--output",
        type=pathlib.Path,
        default=None,
        help="where to write the minimal trace (default: overwrite input)",
    )
    shrink_parser.add_argument(
        "--system",
        type=pathlib.Path,
        default=None,
        help="rebuild the system from this description instead of the "
        "trace's embedded payload",
    )
    shrink_parser.add_argument(
        "--module",
        default=None,
        metavar="MODULE:FACTORY",
        help="rebuild the system by calling a zero-argument factory",
    )
    shrink_parser.add_argument(
        "--max-runs",
        type=int,
        default=100_000,
        help="budget of oracle re-executions (default: 100000)",
    )
    shrink_parser.add_argument(
        "--show-trace",
        action="store_true",
        help="also print the minimal scenario's visible operations",
    )
    shrink_parser.set_defaults(func=cmd_shrink)

    submit_parser = sub.add_parser(
        "submit",
        help="enqueue a search as a durable job (run it with 'repro serve')",
        epilog=_SYSTEM_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    submit_parser.add_argument(
        "system",
        type=pathlib.Path,
        help="system description (.json) or verifiable Python program (.py)",
    )
    _add_jobs_dir_argument(submit_parser)
    submit_parser.add_argument("--name", default=None, help="job display name")
    submit_parser.add_argument("--max-depth", type=int, default=100)
    submit_parser.add_argument("--max-paths", type=int, default=None)
    submit_parser.add_argument("--max-transitions", type=int, default=None)
    submit_parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS"
    )
    submit_parser.add_argument("--no-por", action="store_true")
    submit_parser.add_argument("--count-states", action="store_true")
    submit_parser.add_argument("--stop-on-first", action="store_true")
    submit_parser.add_argument("--max-events", type=int, default=25)
    submit_parser.add_argument(
        "--backtrack", choices=("restore", "replay"), default="restore"
    )
    submit_parser.add_argument(
        "--engine", choices=ENGINES, default="walk"
    )
    submit_parser.add_argument(
        "--state-cache",
        choices=("off", "exact", "hashcompact", "bitstate"),
        default="off",
    )
    submit_parser.add_argument("--cache-bits", type=int, default=24, metavar="N")
    submit_parser.add_argument(
        "--cache-mode", choices=("safe", "unsafe-fast"), default="safe"
    )
    submit_parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=0,
        metavar="N",
        help="worker processes per job (0 = all cores)",
    )
    submit_parser.add_argument(
        "--coverage",
        action="store_true",
        help="collect node/edge/toss coverage; the gauges stream into "
        "the job's stats.json heartbeats and the final manifest",
    )
    submit_parser.set_defaults(
        func=cmd_submit,
        strategy="parallel",
        walks=100,
        seed=0,
        profile=False,
        stall_timeout=10.0,
    )

    serve_parser = sub.add_parser(
        "serve", help="run queued jobs from an on-disk job store"
    )
    _add_jobs_dir_argument(serve_parser)
    serve_parser.add_argument(
        "--once",
        action="store_true",
        help="drain the queue and exit instead of polling forever",
    )
    serve_parser.add_argument(
        "--poll",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="idle polling interval (default: 1)",
    )
    serve_parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="exit after running N jobs",
    )
    serve_parser.add_argument(
        "--metrics-out",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="keep FILE updated in Prometheus text format (node_exporter "
        "textfile collector): per-job search counters, coverage gauges "
        "and frontier depth",
    )
    serve_parser.set_defaults(func=cmd_serve)

    jobs_parser = sub.add_parser("jobs", help="list jobs (or show one)")
    _add_jobs_dir_argument(jobs_parser)
    jobs_parser.add_argument(
        "job_id", nargs="?", default=None, help="show just this job"
    )
    jobs_parser.add_argument(
        "--json", action="store_true", help="with a job id: dump status as JSON"
    )
    jobs_parser.set_defaults(func=cmd_jobs)

    stop_parser = sub.add_parser(
        "stop", help="ask a running job to checkpoint its frontier and suspend"
    )
    _add_jobs_dir_argument(stop_parser)
    stop_parser.add_argument("job_id")
    stop_parser.set_defaults(func=cmd_stop)

    resume_parser = sub.add_parser(
        "resume", help="re-queue a stopped job to resume from its frontier"
    )
    _add_jobs_dir_argument(resume_parser)
    resume_parser.add_argument("job_id")
    resume_parser.set_defaults(func=cmd_resume)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LangError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. piped into head); exit quietly.
        return 0
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
