"""Shared plumbing for the ``BENCH_*.json`` artifacts.

Every benchmark writes its numbers to a repo-root ``BENCH_<name>.json``
(with a copy under ``benchmarks/results/``) so the measurements are
machine-consumable across sessions and CI runs.  This module normalizes
the three concerns every bench script shares:

* :func:`provenance_block` — one uniform ``_provenance`` block per file
  (when it was generated, on what interpreter/platform/CPU count, at
  which commit, and whether the measured tree had uncommitted changes —
  :func:`git_dirty`), so a number can always be traced back to its run;
* :func:`merge_bench_json` — label-wise merging, so a filtered run
  (``-k "fig2 or fig3"``) refreshes only its own entries and never
  clobbers the rest of the file;
* :func:`baseline_delta_lines` — the ``--baseline`` delta summary (see
  ``benchmarks/conftest.py``): every row carrying a
  ``states_per_second`` field is matched by path against the baseline
  file and the throughput delta printed alongside the result table.

The CI ``perf-smoke`` job drives the same row discovery
(:func:`iter_rates`) through ``benchmarks/check_regression.py`` to fail
on throughput regressions against the committed baselines.
"""

from __future__ import annotations

import datetime
import fnmatch
import json
import os
import pathlib
import platform
import subprocess
from typing import Any, Iterator

#: Repository root — the BENCH_*.json files live here so CI artifact
#: globs and README pointers find them.
ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Copies land next to the human-readable result tables.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _is_run_output(path: str) -> bool:
    """Whether ``path`` (relative to the repo root) is written by a
    benchmark run itself: the root ``BENCH_*.json`` files and
    ``benchmarks/results/``."""
    return (
        "/" not in path and fnmatch.fnmatch(path, "BENCH_*.json")
    ) or path.startswith("benchmarks/results/")


def git_dirty(root: pathlib.Path = ROOT) -> bool | None:
    """Whether the working tree under ``root`` differs from ``HEAD``
    (modified, staged, deleted or untracked files), ignoring what a
    benchmark run writes itself.  ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    for line in proc.stdout.splitlines():
        # "XY path" or "XY old -> new" for renames.
        path = line[3:].split(" -> ")[-1].strip('"')
        if not _is_run_output(path):
            return True
    return False


def provenance_block() -> dict[str, Any]:
    """The uniform ``_provenance`` block stamped into every BENCH file."""
    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
        commit = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "git_dirty": git_dirty(),
    }


def merge_bench_json(name: str, label: str, rows: Any) -> pathlib.Path:
    """Merge one experiment's ``rows`` under ``label`` into
    ``BENCH_<name>.json`` (root + results copy), preserving entries a
    filtered run did not regenerate and restamping ``_provenance``."""
    path = ROOT / f"BENCH_{name}.json"
    results: dict[str, Any] = {}
    if path.exists():
        try:
            results = json.loads(path.read_text())
        except (ValueError, OSError):
            results = {}
    results[label] = rows
    results["_provenance"] = provenance_block()
    text = json.dumps(results, indent=2) + "\n"
    path.write_text(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / path.name).write_text(text)
    return path


def iter_rates(
    data: Any, prefix: tuple[str, ...] = ()
) -> Iterator[tuple[tuple[str, ...], float]]:
    """Yield ``(path, states_per_second)`` for every row holding one.

    Walks nested dicts/lists; ``_provenance`` blocks are skipped so a
    regenerated file never "regresses" against its own metadata."""
    if isinstance(data, dict):
        rate = data.get("states_per_second")
        if isinstance(rate, (int, float)):
            yield prefix, float(rate)
        for key, value in data.items():
            if key == "_provenance":
                continue
            yield from iter_rates(value, prefix + (str(key),))
    elif isinstance(data, list):
        for index, value in enumerate(data):
            yield from iter_rates(value, prefix + (str(index),))


def baseline_delta_lines(
    baseline: dict[str, Any] | None, label: str, rows: Any
) -> list[str]:
    """Human-readable throughput deltas of ``rows`` against a baseline
    file's matching ``label`` entry (empty when there is no baseline or
    no overlapping rows)."""
    if not baseline or label not in baseline:
        return []
    current = dict(iter_rates(rows))
    old = dict(iter_rates(baseline[label]))
    lines: list[str] = []
    for path, new_rate in current.items():
        old_rate = old.get(path)
        if not old_rate:
            continue
        delta = (new_rate - old_rate) / old_rate
        where = "/".join(path) or label
        lines.append(
            f"  vs baseline {where}: {old_rate:,.0f} -> {new_rate:,.0f} "
            f"states/s ({delta:+.1%})"
        )
    if lines:
        lines.insert(0, "")
    return lines
