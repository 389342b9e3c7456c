"""Time-to-verdict benchmark: source text -> closed system -> checked verdict.

    python3 verdictbench/run.py --workload close-suite --seed 1 --seconds 25 --trace 0

Runs units of one workload for ``--seconds`` seconds and prints, as its
last stdout line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, medians over every unit; ``--trace 1`` alternates untraced and
traced units and reports the per-layer metrics of the traced ones.  See
``verdictbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metric -> unit, in the order the traced table prints them.
PER_LAYER = {
    "lang.parse_s": "s",
    "lang.kb_per_s": "KB/s",
    "cfg.build_s": "s",
    "cfg.nodes": "count",
    "closing.analyze_s": "s",
    "closing.transform_s": "s",
    "closing.closed_nodes": "count",
    "closing.toss_nodes": "count",
    "runtime.build_s": "s",
    "runtime.engine_s": "s",
    "runtime.transitions": "count",
    "runtime.restores": "count",
    "runtime.undo_entries": "count",
    "runtime.fingerprint_s": "s",
    "verisoft.por_s": "s",
    "verisoft.unattributed_s": "s",
    "verisoft.states": "count",
    "verisoft.paths": "count",
    "verisoft.states_per_s": "1/s",
    "verisoft.sleep_prunes": "count",
    "verisoft.persistent_ratio": "ratio",
    "statespace.cache_s": "s",
    "statespace.hit_ratio": "ratio",
    "statespace.stored": "count",
    "statespace.mb": "MB",
    "counterex.cex_s": "s",
    "counterex.cex_choices": "choices",
    "counterex.load_s": "s",
    "counterex.shrink_s": "s",
    "counterex.replay_s": "s",
    "counterex.oracle_runs": "count",
    "counterex.reuse_ratio": "ratio",
    "service.job_s": "s",
    "service.queue_wait_s": "s",
    "service.search_s": "s",
    "service.artifacts_s": "s",
    "service.leases": "count",
    "service.steals": "count",
    "service.requeued": "count",
    "service.worker_cpu_s": "s",
    "obs.coverage_s": "s",
    "obs.coverage_nodes": "count",
    "obs.trace_overhead": "ratio",
    "host.probe_ms": "ms",
}

_NO_JOBS = "no job service, traces or coverage observer in this workload"
#: Why a per-layer metric reads 0 on a workload: metric-name prefix -> reason.
IDLE = {
    "close-suite": {
        "runtime.fingerprint_s": "no state cache, so no state keys are computed",
        "verisoft.sleep_prunes": "the suite's searches are too shallow for sleep sets to prune",
        "statespace.": "no state cache",
        "counterex.": _NO_JOBS,
        "service.": _NO_JOBS,
        "obs.coverage": _NO_JOBS,
    },
    "5ess-dfs": {
        "runtime.fingerprint_s": "no state cache, so no state keys are computed",
        "statespace.": "no state cache",
        "counterex.": _NO_JOBS,
        "service.": _NO_JOBS,
        "obs.coverage": _NO_JOBS,
    },
    "5ess-cached": {
        "verisoft.sleep_prunes": "safe cache mode turns sleep sets off",
        "counterex.": _NO_JOBS,
        "service.": _NO_JOBS,
        "obs.coverage": _NO_JOBS,
    },
    "serve-hunt": {
        prefix: "searches run in the job's worker processes; see service.*"
        for prefix in ("lang.", "cfg.", "closing.", "runtime.", "verisoft.", "statespace.")
    }
    | {
        "service.requeued": "no worker died, so no lease was re-queued",
        "service.steals": "no worker ran idle while another held work",
    },
}

PERCENTILES = (99, 95, 90, 75)


def tail(values: list[float]) -> str:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in PERCENTILES:
        if len(ordered) * (100 - p) / 100 >= 10:
            index = min(len(ordered) - 1, int(len(ordered) * p / 100))
            return f"p{p}={ordered[index]:.6g}"
    return "no percentile has 10 samples beyond it"


def run_units(workload, seconds: float, trace: bool, log):
    """Run units until ``seconds`` have passed; returns (plain, traced)
    records.  A unit is started only if it is expected to finish in
    time, judged by the median unit so far."""
    from verdictbench.layers import LayerTimer
    from verdictbench.workloads import Record

    plain, traced = Record(log), Record(log)
    timer = LayerTimer()
    durations: list[float] = []
    started = time.perf_counter()
    minimum = 2 if trace else 1
    while len(durations) < minimum or (
        time.perf_counter() - started + statistics.median(durations) <= seconds
    ):
        gc.collect()
        is_traced = trace and len(durations) % 2 == 1
        unit_started = time.perf_counter()
        if is_traced:
            timer.install()
        try:
            workload.unit(traced if is_traced else plain, is_traced, timer)
        finally:
            timer.uninstall()
        durations.append(time.perf_counter() - unit_started)
    return plain, traced


def summarize(workload_name: str, plain, traced, trace: bool) -> tuple[dict, list[str]]:
    """The metrics of the run, and the table lines printed above them."""
    metrics = {}
    lines = [
        f"host.probe_ms: median {statistics.median(plain.probes):.6g} "
        f"n={len(plain.probes)} (fast phase on the build host: 3.0)"
    ]
    for name, values in sorted(plain.samples.items()):
        line = f"untraced {name}: median {statistics.median(values):.6g}"
        if name in plain.scaled:
            line += f", at reference host speed {statistics.median(plain.scaled[name]):.6g}"
        lines.append(f"{line}; n={len(values)} {tail(values)}")
        lines.append(f"samples {name} {json.dumps(values)}")
        if name in plain.scaled:
            lines.append(f"samples {name}@ref {json.dumps(plain.scaled[name])}")
    lines.append(f"samples host.probe_ms {json.dumps(plain.probes)}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        for name in ("setup_s", "verdict_s"):
            metrics[name] = {"value": statistics.median(plain.scaled[name]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        return metrics, lines

    values = {name: statistics.median(v) for name, v in traced.layers.items()}
    for name in ("service.job_s", "counterex.cex_s", "counterex.cex_choices"):
        if name in traced.samples:
            values[name] = statistics.median(traced.samples[name])
    values["host.probe_ms"] = statistics.median(traced.probes)
    values["obs.trace_overhead"] = statistics.median(
        traced.scaled["verdict_s"]
    ) / statistics.median(plain.scaled["verdict_s"])
    for name, unit in PER_LAYER.items():
        value = values.get(name, 0.0)
        if value == 0:
            reasons = [r for p, r in IDLE[workload_name].items() if name.startswith(p)]
            if name not in values and not reasons:
                raise KeyError(f"per-layer metric {name} was not measured")
            note = f"idle: {reasons[0]}" if reasons else "measured 0, no known reason"
            lines.append(f"traced {name}: 0 ({note})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expected",
        type=pathlib.Path,
        default=HERE / "expected.json",
        help="known-answers file (the self-test passes a corrupted copy)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from verdictbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected = json.loads(args.expected.read_text())
    workdir = ROOT / ".verdictbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    setup_started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, expected, workdir)
    log(f"inputs ready in {time.perf_counter() - setup_started:.2f} s")
    try:
        plain, traced = run_units(workload, args.seconds, bool(args.trace), log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics, lines = summarize(args.workload, plain, traced, bool(args.trace))
    for line in lines:
        print(line)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
