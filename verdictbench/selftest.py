"""Self-test of the benchmark; takes well under a minute.

    python3 verdictbench/selftest.py

* runs every workload for one unit, untraced and traced, and checks the
  result line: its keys, that the metric names and units are exactly
  those ``BENCHMARK.json`` declares, that every answer matched, and
  that every per-layer metric reading 0 is explained as idle;
* corrupts one known answer and checks the run reports a failed unit,
  ``correct: false`` and a non-zero exit;
* runs the benchmark in a directory holding only ``BENCHMARK.json`` and
  the benchmark's files, and checks it exits non-zero without a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: pathlib.Path, workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [
            sys.executable, "verdictbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc, result = run(ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{what}: exit 0 (got {proc.returncode})")
            if result is None:
                expect(False, f"{what}: result line is JSON")
                continue
            expect(set(result) == RESULT_KEYS, f"{what}: result keys")
            expect(result["correct"] and result["failed"] == 0, f"{what}: answers match")
            expect(result["attempted"] >= 1, f"{what}: attempted >= 1")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == declared[trace], f"{what}: metric names and units")
            if trace:
                idle = {
                    line.split()[1].rstrip(":")
                    for line in proc.stdout.splitlines()
                    if "(idle:" in line
                }
                unexplained = [
                    k for k, v in result["metrics"].items() if v["value"] == 0 and k not in idle
                ]
                expect(not unexplained, f"{what}: zero per-layer metrics explained {unexplained}")

    scratch = ROOT / ".verdictbench-work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        expected = json.loads((HERE / "expected.json").read_text())
        expected["programs"]["fiveess-2-d22"]["answer"]["states"] += 1
        corrupted = pathlib.Path(tmp) / "expected.json"
        corrupted.write_text(json.dumps(expected))
        proc, result = run(ROOT, "5ess-dfs", 0, "--expected", str(corrupted))
        expect(proc.returncode != 0, "corrupted answer: non-zero exit")
        expect(
            result is not None and not result["correct"] and result["failed"] >= 1,
            "corrupted answer: counted as a failed unit",
        )
        expect("MISMATCH" in proc.stderr, "corrupted answer: mismatch reported")

        bare = pathlib.Path(tmp) / "bare"
        shutil.copytree(HERE, bare / "verdictbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, result = run(bare, "5ess-dfs", 0)
        expect(proc.returncode != 0 and result is None, "without sources: fails, no result")
    try:
        scratch.rmdir()
    except OSError:
        pass  # another run is using it

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
