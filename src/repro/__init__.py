"""repro — a reproduction of *Automatically Closing Open Reactive
Programs* (Colby, Godefroid, Jategaonkar Jagadeesan, PLDI 1998).

The package provides, from the bottom up:

* :mod:`repro.lang` — the RC mini-language (a C-like imperative core)
  with parser, normalizer and pretty-printer, plus an optional
  pycparser-based front end for a subset of real C;
* :mod:`repro.cfg` — control-flow graphs, the representation over which
  the paper's algorithm is defined;
* :mod:`repro.dataflow` — may-alias (Andersen) and define-use analyses;
* :mod:`repro.closing` — **the paper's contribution**: the algorithm of
  Figure 1 that closes an open program with its most general
  environment, plus the naive explicit-environment baseline;
* :mod:`repro.runtime` — the concurrent execution substrate (processes,
  channels, semaphores, shared variables, ``VS_toss``/``VS_assert``),
  with two interchangeable execution engines behind one stepper
  contract (:mod:`repro.runtime.engine`): the reference tree-walking
  interpreter and a compiled closure engine
  (:mod:`repro.runtime.compile`);
* :mod:`repro.verisoft` — a VeriSoft-style stateless state-space
  explorer with partial-order reduction;
* :mod:`repro.statespace` — canonical global-state snapshots and
  pluggable visited-state stores (exact / hash-compact / bitstate)
  that the explorer can consult to prune revisited subtrees;
* :mod:`repro.obs` — the observability layer: span/event tracing with
  Chrome trace-event export, hot-spot profiling, worker heartbeats and
  structured run manifests;
* :mod:`repro.fiveess` — a synthetic multi-process telephone
  call-processing application standing in for the paper's 5ESS case
  study.

Quick start::

    from repro import close_program, System, SearchOptions, run_search

    closed = close_program(OPEN_SOURCE)          # Figure 1, end to end
    system = System(closed.cfgs)
    system.add_env_sink("out")
    system.add_process("main", "main")           # env params are gone
    report = run_search(system, SearchOptions(strategy="dfs", max_depth=50))
    print(report.summary())
    print(report.stats.describe())               # live search telemetry
"""

from .cfg import ControlFlowGraph, build_cfg, build_cfgs, to_dot
from .closing import (
    ClosedProgram,
    ClosingError,
    ClosingSpec,
    NaiveDomains,
    close_naively,
    close_program,
)
from .lang import normalize_program, parse_program, pretty
from .obs import (
    HotSpotProfiler,
    Tracer,
    build_manifest,
    validate_chrome_trace,
    write_manifest,
)
from .runtime import System, SystemConfig
from .statespace import (
    BitstateStore,
    ExactStore,
    HashCompactStore,
    StateStore,
    make_store,
    snapshot,
)
from .verisoft import (
    ExplorationReport,
    Explorer,
    ProgressPrinter,
    SearchOptions,
    SearchStats,
    Trace,
    collect_output_traces,
    replay,
    run_search,
)

from .counterex import (
    ShrinkResult,
    TraceFile,
    group_events,
    load_trace,
    save_trace,
    shrink,
    verify_trace,
)

__version__ = "1.0.0"

__all__ = [
    "BitstateStore",
    "ClosedProgram",
    "ClosingError",
    "ClosingSpec",
    "ControlFlowGraph",
    "ExactStore",
    "ExplorationReport",
    "Explorer",
    "HashCompactStore",
    "HotSpotProfiler",
    "NaiveDomains",
    "ProgressPrinter",
    "SearchOptions",
    "SearchStats",
    "ShrinkResult",
    "StateStore",
    "System",
    "SystemConfig",
    "Trace",
    "TraceFile",
    "Tracer",
    "build_cfg",
    "build_cfgs",
    "build_manifest",
    "close_naively",
    "close_program",
    "collect_output_traces",
    "group_events",
    "load_trace",
    "make_store",
    "normalize_program",
    "parse_program",
    "pretty",
    "replay",
    "run_search",
    "save_trace",
    "shrink",
    "snapshot",
    "validate_chrome_trace",
    "verify_trace",
    "write_manifest",
]
