"""Experiment BENCH-COMPILE — walking vs compiled execution engine.

The compiled engine (``repro.runtime.compile``) translates each
procedure's CFG into specialized Python closures; the walking
interpreter re-inspects the CFG on every step.  Both implement the same
``ExecutionEngine`` stepper contract and must produce *identical*
searches — same states, transitions, toss points, paths and violation
groups — so the only thing allowed to differ is speed.

Three experiment families, all merged into ``BENCH_compile.json``
(repo root, CI uploads the ``BENCH_*.json`` artifacts; a copy lands in
``benchmarks/results/``):

* **end-to-end searches** (fig2 / fig3 / bounded 5ESS): ``run_search``
  under each engine, counter-for-counter parity asserted, wall time and
  states/sec recorded.  End-to-end gains are bounded by Amdahl's law —
  the scheduler, POR and bookkeeping are engine-independent.
* **engine-level drive** (``5ess_engine``): seeded random schedules of
  the bounded 5ESS system are recorded once, then replayed directly
  against fresh engine steppers of each kind, isolating the engine's
  own per-choice cost from scheduler overhead.
* **dispatch kernel** (``kernel``): a computation-heavy closed program
  (long invisible runs between visible operations) — the compiler's
  best case, dominated by node dispatch and expression evaluation.

Asserted floors: parity everywhere; the compiled engine at least 2x on
the 5ESS engine-level drive (communication-dominated, ~4 invisible
nodes per choice) and at least 3x on the dispatch kernel.  The filtered
CI run (``-k "fig2 or fig3"``) exercises the parity assertions and the
JSON writer in seconds.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import SearchOptions, System, run_search
from repro.fiveess import build_app
from repro.runtime.errors import DivergenceError, RuntimeFault
from benchmarks.bench_lib import baseline_delta_lines, merge_bench_json
from tests.statespace.conftest import FIG2_SRC, FIG3_SRC, figure_system

pytestmark = pytest.mark.slow

ENGINES = ("walk", "compiled")

PARITY_KEYS = ("states", "transitions", "paths", "toss_points", "violation_groups")

#: Computation-heavy closed RC program: ~200 invisible nodes per
#: visible send — node dispatch and expression evaluation dominate.
KERNEL_SRC = """
proc checksum(seed, rounds) {
    var acc;
    acc = seed;
    var i;
    i = 0;
    while (i < rounds) {
        acc = (acc * 31 + i) % 65521;
        if (acc % 2 == 0) { acc = acc + 7; } else { acc = acc - 3; }
        i = i + 1;
    }
    return acc;
}
proc main() {
    var k;
    k = 0;
    while (k < 50) {
        var c;
        c = checksum(k, 40);
        send(out, c);
        k = k + 1;
    }
}
"""


def _fiveess_system(calls_per_line: int = 1):
    app = build_app(n_lines=2, calls_per_line=calls_per_line)
    return app.make_system(app.close(), with_maintenance=False)


def _kernel_system():
    system = System(KERNEL_SRC)
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


# ---------------------------------------------------------------------------
# End-to-end searches
# ---------------------------------------------------------------------------

CASES = {
    "fig2": (lambda: figure_system(FIG2_SRC, "p"), dict(max_depth=60)),
    "fig3": (lambda: figure_system(FIG3_SRC, "q"), dict(max_depth=60)),
    "5ess": (
        lambda: _fiveess_system(),
        dict(max_depth=24, max_events=50_000),
    ),
}


def _search_row(build, bounds, engine):
    system = build()
    if engine == "compiled":
        system.compiled_program()  # compile outside the timed region
    options = SearchOptions(engine=engine, **bounds)
    started = time.perf_counter()
    report = run_search(system, options)
    elapsed = time.perf_counter() - started
    stats = report.stats
    assert stats.engine == engine, f"fell back to {stats.engine}"
    return {
        "engine": stats.engine,
        "states": stats.states_visited,
        "transitions": stats.transitions_executed,
        "toss_points": stats.toss_points,
        "paths": stats.paths_explored,
        "violation_groups": len(report.triage()),
        "triage_signatures": sorted(g.signature for g in report.triage()),
        "wall_time_s": round(elapsed, 4),
        "states_per_second": round(stats.states_per_second),
    }


@pytest.mark.parametrize("label", list(CASES))
def test_bench_compile_search(label, record_table, baseline_results):
    build, bounds = CASES[label]
    rows = {engine: _search_row(build, bounds, engine) for engine in ENGINES}
    walk_row, compiled_row = rows["walk"], rows["compiled"]

    # Identical search, different stepper cost — nothing else.
    for key in PARITY_KEYS:
        assert walk_row[key] == compiled_row[key], (
            f"{label}: {key} differs between engines: "
            f"{walk_row[key]} vs {compiled_row[key]}"
        )
    assert walk_row["triage_signatures"] == compiled_row["triage_signatures"]

    speedup = walk_row["wall_time_s"] / max(compiled_row["wall_time_s"], 1e-9)
    compiled_row["speedup_vs_walk"] = round(speedup, 2)
    merge_bench_json("compile", label, rows)

    lines = [
        f"Execution engines on {label}, end-to-end search (bounds {bounds})",
        "",
        f"  {'engine':<9} {'states':>7} {'transitions':>12} {'time':>8} {'states/s':>10}",
    ]
    for engine in ENGINES:
        row = rows[engine]
        lines.append(
            f"  {engine:<9} {row['states']:>7} {row['transitions']:>12} "
            f"{row['wall_time_s']:>7.2f}s {row['states_per_second']:>10,}"
        )
    lines.append(f"  end-to-end speedup: {speedup:.2f}x (engine cost amortized")
    lines.append("  against engine-independent scheduler/POR work)")
    lines.extend(baseline_delta_lines(baseline_results.get("compile"), label, rows))
    lines.append("wrote BENCH_compile.json")
    record_table(f"BENCH_compile_{label}", lines)


# ---------------------------------------------------------------------------
# Per-phase breakdown: where do the wall seconds of a search go?
# ---------------------------------------------------------------------------


def test_bench_compile_phases(record_table):
    """Per-phase wall-time breakdown of the bounded 5ESS search.

    Runs the profiled search (with ``profile=True`` the explorer times
    its phases into :attr:`repro.obs.HotSpotProfiler.phases`)
    under each engine, with state caching on so every phase — engine
    stepping, canonical fingerprints, POR analysis, cache lookups — is
    exercised, and records seconds and shares per phase.  The engine
    phase is where compilation bites; everything else is
    engine-independent, which is exactly the Amdahl ceiling the
    end-to-end rows show.
    """
    bounds = dict(max_depth=20, max_events=50_000, state_cache="exact")
    rows = {}
    for engine in ENGINES:
        system = _fiveess_system()
        if engine == "compiled":
            system.compiled_program()
        options = SearchOptions(engine=engine, profile=True, **bounds)
        started = time.perf_counter()
        report = run_search(system, options)
        elapsed = time.perf_counter() - started
        phases = dict(report.profile.phases)
        accounted = sum(phases.values())
        rows[engine] = {
            "engine": engine,
            "states": report.stats.states_visited,
            "wall_time_s": round(elapsed, 4),
            "states_per_second": round(report.stats.states_per_second),
            "phases_s": {k: round(v, 4) for k, v in sorted(phases.items())},
            "phase_share": {
                k: round(v / elapsed, 4) for k, v in sorted(phases.items())
            },
            "unattributed_s": round(elapsed - accounted, 4),
        }
    # Both engines spend their non-engine time in the same places; the
    # profiled phases must account for a meaningful share of the wall.
    for engine, row in rows.items():
        assert row["phases_s"].get("engine", 0.0) > 0.0, engine
        assert sum(row["phases_s"].values()) < row["wall_time_s"], engine
    merge_bench_json("compile", "phases_5ess", rows)

    phase_names = sorted(
        {name for row in rows.values() for name in row["phases_s"]}
    )
    lines = [
        f"Per-phase wall-time breakdown, bounded 5ESS search ({bounds})",
        "",
        f"  {'engine':<9} " + " ".join(f"{name:>12}" for name in phase_names)
        + f" {'other':>12} {'total':>9}",
    ]
    for engine in ENGINES:
        row = rows[engine]
        cells = " ".join(
            f"{row['phases_s'].get(name, 0.0):>11.3f}s" for name in phase_names
        )
        lines.append(
            f"  {engine:<9} {cells} {row['unattributed_s']:>11.3f}s "
            f"{row['wall_time_s']:>8.3f}s"
        )
    lines.append("wrote BENCH_compile.json")
    record_table("BENCH_compile_phases", lines)


# ---------------------------------------------------------------------------
# Engine-level measurements: recorded schedules replayed on raw steppers
# ---------------------------------------------------------------------------


class _Recorder:
    """Wraps a process's engine, recording every resume value so the
    same per-process request/answer script can be replayed later
    against a fresh stepper of either kind."""

    def __init__(self, engine, script):
        self._engine = engine
        self._script = script

    def start(self):
        return self._engine.start()

    def resume(self, value):
        self._script.append(value)
        return self._engine.resume(value)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _record_scripts(make_system, seeds, max_steps=3000):
    """Drive seeded random schedules, returning per-process resume
    scripts (one dict per seed)."""
    scripts_per_seed = []
    for seed in seeds:
        rng = random.Random(seed)
        run = make_system().start()
        scripts = {p.name: [] for p in run.processes}
        for p in run.processes:
            p._interpreter = _Recorder(p._interpreter, scripts[p.name])
        run.start_processes()
        for _ in range(max_steps):
            pending = run.toss_pending()
            if pending is not None:
                run.answer_toss(pending, rng.randint(0, pending.toss_request.bound))
                continue
            enabled = run.enabled_processes()
            if not enabled:
                break
            run.execute_visible(rng.choice(enabled))
        scripts_per_seed.append(scripts)
    return scripts_per_seed


def _replay_scripts(system, engine, scripts_per_seed, reps):
    """Replay every recorded script against fresh steppers; returns
    (elapsed_seconds, choices, request_log).  The request log (op names
    in order, first pass only) doubles as the parity check."""
    choices = 0
    request_log = []
    log_requests = True
    started = time.perf_counter()
    for _ in range(reps):
        for scripts in scripts_per_seed:
            run = system.start(engine=engine)
            engines = {p.name: p._interpreter for p in run.processes}
            for name, script in scripts.items():
                stepper = engines[name]
                try:
                    request = stepper.start()
                    if log_requests:
                        request_log.append((name, getattr(request, "op", "toss")))
                    for value in script:
                        request = stepper.resume(value)
                        if log_requests and request is not None:
                            request_log.append((name, getattr(request, "op", "toss")))
                except (RuntimeFault, DivergenceError):
                    pass
                choices += 1 + len(script)
        log_requests = False
    return time.perf_counter() - started, choices, request_log


def _engine_rows(make_system, scripts_per_seed, reps):
    rows = {}
    logs = {}
    for engine in ENGINES:
        system = make_system()
        system.compiled_program()
        _replay_scripts(system, engine, scripts_per_seed, 1)  # warmup
        elapsed, choices, log = _replay_scripts(
            system, engine, scripts_per_seed, reps
        )
        logs[engine] = log
        rows[engine] = {
            "engine": engine,
            "choices": choices,
            "wall_time_s": round(elapsed, 4),
            "us_per_choice": round(elapsed / choices * 1e6, 3),
            "choices_per_second": round(choices / elapsed),
        }
    # Both engines must produce the same request sequence for the same
    # recorded answers — engine-level observational parity.
    assert logs["walk"] == logs["compiled"], "request sequences diverged"
    speedup = rows["walk"]["us_per_choice"] / rows["compiled"]["us_per_choice"]
    rows["compiled"]["speedup_vs_walk"] = round(speedup, 2)
    return rows, speedup


def _engine_table(record_table, label, title, rows, speedup):
    lines = [
        title,
        "",
        f"  {'engine':<9} {'choices':>8} {'us/choice':>10} {'choices/s':>11}",
    ]
    for engine in ENGINES:
        row = rows[engine]
        lines.append(
            f"  {engine:<9} {row['choices']:>8} {row['us_per_choice']:>10.2f} "
            f"{row['choices_per_second']:>11,}"
        )
    lines.append(f"  engine-level speedup: {speedup:.2f}x")
    lines.append("wrote BENCH_compile.json")
    record_table(f"BENCH_compile_{label}", lines)


def test_bench_compile_engine_5ess(record_table):
    """Raw stepper throughput on recorded 5ESS schedules.

    The 5ESS workload is communication-dominated (~4 invisible nodes
    per visible operation), so the per-request floor bounds the gain;
    the compiled engine must still clear 2x.
    """
    make = lambda: _fiveess_system(calls_per_line=4)  # noqa: E731
    scripts = _record_scripts(make, seeds=range(8))
    rows, speedup = _engine_rows(make, scripts, reps=6)
    assert speedup >= 2.0, f"compiled engine only {speedup:.2f}x on 5ESS drive"
    merge_bench_json("compile", "5ess_engine", rows)
    _engine_table(
        record_table,
        "5ess_engine",
        "Engine-level drive: recorded random schedules, bounded 5ESS",
        rows,
        speedup,
    )


def test_bench_compile_kernel(record_table):
    """Raw stepper throughput on the computation-heavy kernel.

    Long invisible runs between sends: node dispatch and expression
    evaluation dominate, which is what compilation accelerates."""
    scripts = _record_scripts(_kernel_system, seeds=range(2), max_steps=200)
    rows, speedup = _engine_rows(_kernel_system, scripts, reps=4)
    assert speedup >= 3.0, f"compiled engine only {speedup:.2f}x on the kernel"
    merge_bench_json("compile", "kernel", rows)
    _engine_table(
        record_table,
        "kernel",
        "Engine-level drive: dispatch-heavy checksum kernel",
        rows,
        speedup,
    )
