"""repro.obs — the observability layer: tracing, profiling, health.

VeriSoft-style stateless search spends nearly all of its time
re-executing the program; this package is the measurement layer over
that machinery, threaded through the whole pipeline (parse → dataflow →
closing transform → search/replay/shrink):

* :mod:`repro.obs.tracer` — a lightweight span/event tracer with
  Chrome trace-event JSON export (``chrome://tracing`` / Perfetto):
  pipeline phases, per-path DFS spans, replay prefixes, per-worker
  parallel timelines;
* :mod:`repro.obs.profile` — a hot-spot profiler called on every fresh
  search step: per-CFG-node / per-operation / per-toss-point execution
  counts, depth and branching histograms and per-phase wall times,
  rendered as top-N tables (``repro search --profile`` / ``repro
  profile``);
* :mod:`repro.obs.heartbeat` — worker heartbeats and stall detection
  for the parallel search: per-worker progress lines in the ticker and
  warnings when a worker stops making progress;
* :mod:`repro.obs.manifest` — structured ``run.json`` manifests
  (options, system fingerprint, git version, host, phase timings,
  final stats) written next to saved artifacts;
* :mod:`repro.obs.coverage` — CFG node/edge, source-line and
  environment-input (``VS_toss``) coverage riding the engines' node
  traces, counter-exact across engines, job counts and work-stealing
  shards (``repro search --coverage``);
* :mod:`repro.obs.report` — self-contained, zero-asset HTML run
  reports rendered from manifests (``repro report run.json -o
  report.html``);
* :mod:`repro.obs.metrics` — Prometheus textfile exporter for the job
  service (``repro serve --metrics-out FILE``).

Every observer is **zero-cost when disabled**: each search driver builds
the profiler, coverage collector and tracer it is asked for from its
:class:`~repro.verisoft.search.SearchOptions` (``profile`` /
``coverage`` / ``tracer``), and every instrumentation site is a single
``is not None`` check (overhead measured by
``benchmarks/bench_obs.py``).
"""

from .coverage import CoverageCollector
from .heartbeat import Heartbeat, HeartbeatMonitor, WorkerHealth
from .manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    build_manifest,
    git_info,
    host_info,
    write_manifest,
)
from .metrics import render_prometheus, write_metrics
from .profile import HotSpotProfiler
from .report import load_manifest, render_html, write_report
from .tracer import Tracer, validate_chrome_trace

__all__ = [
    "CoverageCollector",
    "Heartbeat",
    "HeartbeatMonitor",
    "HotSpotProfiler",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "Tracer",
    "WorkerHealth",
    "build_manifest",
    "git_info",
    "host_info",
    "load_manifest",
    "render_html",
    "render_prometheus",
    "validate_chrome_trace",
    "write_manifest",
    "write_metrics",
    "write_report",
]
