"""Experiment BENCH-SHARD — work-stealing parallel search vs sequential DFS.

The parallel strategy (:mod:`repro.service.scheduler`) hands out
subtree *leases* and lets idle workers steal unexplored siblings from
busy ones, so a skewed tree — one giant subtree among trivial
siblings — is split at runtime instead of leaving one worker holding
almost all the work.

This experiment runs the identical bounded search two ways — the
sequential DFS baseline and ``--strategy parallel`` — over Figure 2,
Figure 3 and a deliberately skewed toss tree, and records wall time
plus the lease/steal telemetry.

Asserted unconditionally (parallel search must differ *only* in how
work is distributed):

* states / transitions / paths / toss points / violation groups all
  identical to sequential DFS;
* on the skewed tree, stealing actually happens (``steals > 0``) and
  the work is split across leases (``leases > jobs``).

Numbers land in the repo-root ``BENCH_shard.json`` (CI uploads the
``BENCH_*.json`` artifacts) with a copy under ``benchmarks/results/``.
Each parametrized case merges its rows into the JSON, so a filtered run
(``-k "fig2 or fig3"``) refreshes only its own entries.
"""

from __future__ import annotations

import time

import pytest

from repro import SearchOptions, System, run_search
from benchmarks.bench_lib import baseline_delta_lines, merge_bench_json
from tests.statespace.conftest import FIG2_SRC, FIG3_SRC, figure_system

pytestmark = pytest.mark.slow

JOBS = 4

PARITY_KEYS = ("states", "transitions", "paths", "toss_points", "violation_groups")

SKEWED_SRC = """
proc main() {
    var which;
    which = VS_toss(3);
    if (which == 0) {
        var i = 0;
        while (i < 8) {
            var t;
            t = VS_toss(1);
            i = i + 1;
        }
        send(out, i);
    } else {
        send(out, which);
    }
}
"""


def _skewed_system():
    """One subtree holds 2**8 paths, its three siblings one each — the
    worst case for a partition fixed before the search starts."""
    system = System(SKEWED_SRC)
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


CASES = {
    "fig2": (lambda: figure_system(FIG2_SRC, "p"), dict(max_depth=60)),
    "fig3": (lambda: figure_system(FIG3_SRC, "q"), dict(max_depth=60)),
    "skewed": (lambda: _skewed_system(), dict(max_depth=60)),
}


def _run_one(build, bounds, *, strategy, jobs=0):
    system = build()
    options = SearchOptions(strategy=strategy, jobs=jobs, **bounds)
    started = time.perf_counter()
    report = run_search(system, options)
    elapsed = time.perf_counter() - started
    stats = report.stats
    return {
        "strategy": stats.strategy,
        "jobs": stats.jobs,
        "states": stats.states_visited,
        "transitions": stats.transitions_executed,
        "toss_points": stats.toss_points,
        "paths": stats.paths_explored,
        "violation_groups": len(report.triage()),
        "leases": stats.leases,
        "steals": stats.steals,
        "leases_requeued": stats.leases_requeued,
        "wall_time_s": round(elapsed, 4),
        "states_per_second": round(stats.states_per_second),
    }


@pytest.mark.parametrize("label", list(CASES))
def test_bench_shard(label, record_table, baseline_results):
    build, bounds = CASES[label]
    rows = {
        "dfs": _run_one(build, bounds, strategy="dfs"),
        "parallel": _run_one(build, bounds, strategy="parallel", jobs=JOBS),
    }

    # Identical search, different distribution cost — nothing else.
    for key in PARITY_KEYS:
        assert rows["parallel"][key] == rows["dfs"][key], (
            f"{label}: {key} differs between parallel and dfs: "
            f"{rows['parallel'][key]} vs {rows['dfs'][key]}"
        )

    if label == "skewed":
        assert rows["parallel"]["steals"] > 0, "skewed tree must trigger steals"
        assert rows["parallel"]["leases"] > JOBS, (
            "stealing must split the heavy subtree into more leases "
            "than there are workers"
        )

    merge_bench_json("shard", label, rows)

    lines = [
        f"Sequential vs parallel on {label} (bounds {bounds}, jobs {JOBS})",
        "",
        f"  {'variant':<8} {'paths':>6} {'states':>7} {'leases':>7} "
        f"{'steals':>7} {'time':>9}",
    ]
    for variant, row in rows.items():
        lines.append(
            f"  {variant:<8} {row['paths']:>6} {row['states']:>7} "
            f"{row['leases']:>7} {row['steals']:>7} {row['wall_time_s']:>8.3f}s"
        )
    lines.extend(baseline_delta_lines(baseline_results.get("shard"), label, rows))
    record_table(f"bench_shard_{label}", lines)
