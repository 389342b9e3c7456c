"""Repeat the benchmark over several seeds and record how steady it is.

    python3 verdictbench/steady.py --runs 10 --seconds 25 [--workload NAME ...] \
        [--out verdictbench/steadiness/record.json]

Runs ``run.py --trace 0`` once per seed (seeds ``--first-seed``,
``--first-seed + 1``, ...) for each workload, one run at a time, and
prints for every end-to-end metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the quartile spread as a
share of the median.  With ``--out`` the per-run results and the
summary are written as JSON (merged into an existing file).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("close-suite", "5ess-dfs", "5ess-cached", "serve-hunt")


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values),
    }


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    samples = {
        line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2])
        for line in proc.stdout.splitlines()
        if line.startswith("samples ")
    }
    return {
        "seed": seed,
        "exit": proc.returncode,
        "wall_s": time.perf_counter() - started,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "host_probe_ms": statistics.median(samples["host.probe_ms"]),
        "samples": samples,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args()

    record = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for i in range(args.runs):
            run = one_run(workload, args.first_seed + i, args.seconds)
            runs.append(run)
            print(workload, json.dumps(run), flush=True)
        summary = {}
        if len(runs) >= 2:
            summary = {
                name: spread([r["metrics"][name] for r in runs])
                for name in runs[0]["metrics"]
            }
        for name, s in summary.items():
            print(
                f"{workload:12s} {name:12s} median {s['median']:.6g} "
                f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['iqr_share']:.4f}",
                flush=True,
            )
        record[workload] = {
            "seconds": args.seconds,
            "seeds": [r["seed"] for r in runs],
            "runs": runs,
            "summary": summary,
        }
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
