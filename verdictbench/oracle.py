"""Regenerate ``expected.json``, the benchmark's known answers.

    python3 verdictbench/oracle.py

No answer comes from the configuration the benchmark times.  Counts
come from the walk engine with replay backtracking (the repository's
differential oracle), while timed runs use the compiled engine with
restore backtracking, and jobs run on the work-stealing scheduler.  On
top of the counts, each program's verdict is checked against an
independent source:

* ``paper`` — Fig. 2/3: the closed program tosses at each of the three
  parity tests, so it has 2^3 paths, and the seeded ``VS_assert`` fails;
* ``seeded-defect`` — the ``.py`` examples, the worker-pool variants
  and the 5ESS system carry planted bugs; the verdict must contain them;
* ``naive`` — each generated program is also closed by
  ``repro.closing.naive`` over a finite input domain and searched.  The
  programs have no assertions and one process, so the naive verdict is
  clean, and by Theorem 7 the closed verdict must be clean as well.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from repro import SearchOptions, System, close_naively, run_search  # noqa: E402
from repro.counterex import load_trace, save_report_traces, shrink  # noqa: E402

from verdictbench import programs, workloads  # noqa: E402

ORACLE = dict(engine="walk", backtrack="replay")
OUT = pathlib.Path(__file__).with_name("expected.json")

#: Verdict kinds each seeded defect must produce.
SEEDED = {
    "fig2": ["assertion"],
    "fig3": ["assertion"],
    "py_worker_pool": ["assertion"],
    "py_pinger": ["assertion"],
    "py_worker_pool-full": ["assertion"],
    "py_pinger-full": ["assertion"],
    "pool-off-by-one": ["assertion"],
    "pool-short-producer": ["assertion", "deadlock"],
    "fiveess-1-maint-d24": ["deadlock"],
    "fiveess-2-d22": ["deadlock"],
}


def _kinds(report) -> list[str]:
    return sorted({group.kind for group in report.triage()})


def _naive_verdict(prog: programs.Program) -> dict:
    """Close the generated program naively and search it exhaustively."""
    domain = [0, 1] if prog.name.startswith("small") else [0]
    naive = close_naively(prog.source, default_domain=domain)
    system = System(naive.cfgs)
    system.add_env_sink("out")
    system.add_process("P", "main", [])
    report = run_search(system, SearchOptions(max_depth=10_000, **ORACLE))
    if report.stats.paths_explored == 0:
        raise AssertionError(f"{prog.name}: naive search explored nothing")
    return {"domain": domain, "kinds": _kinds(report)}


def program_entry(prog: programs.Program) -> dict:
    report = workloads.search(workloads.build(prog), prog, **ORACLE)
    entry = {"answer": workloads.answer(report), "source": "walk+replay"}
    kinds = _kinds(report)
    if prog.name in ("fig2", "fig3"):
        if report.stats.paths_explored != 8 or kinds != SEEDED[prog.name]:
            raise AssertionError(f"{prog.name}: disagrees with the paper's figure")
        entry["source"] += "; paper: 2^3 paths, seeded VS_assert fails"
    elif prog.name in SEEDED:
        if kinds != SEEDED[prog.name]:
            raise AssertionError(f"{prog.name}: seeded defects {SEEDED[prog.name]}, found {kinds}")
        entry["source"] += f"; seeded-defect: {', '.join(kinds)}"
    elif prog.name.startswith(("small", "sized")):
        naive = _naive_verdict(prog)
        if naive["kinds"] != kinds:
            raise AssertionError(f"{prog.name}: naive {naive['kinds']} vs closed {kinds}")
        entry["source"] += f"; naive over {naive['domain']}: clean"
    return entry


def job_entry(prog: programs.Program) -> dict:
    """A job's expected result and shrunk counterexample lengths."""
    system = workloads.build(prog)
    report = workloads.search(system, prog, **ORACLE)
    kinds = _kinds(report)
    if kinds != SEEDED[prog.name]:
        raise AssertionError(f"{prog.name}: seeded defects {SEEDED[prog.name]}, found {kinds}")
    stats = report.stats
    answer = {
        "state": "done",
        "states": stats.states_visited,
        "paths": stats.paths_explored,
        "transitions": stats.transitions_executed,
        "groups": [[group.kind, group.count] for group in report.triage()],
    }
    with tempfile.TemporaryDirectory() as tmp:
        save_report_traces(
            tmp,
            report,
            system=system,
            system_payload={
                "description": prog.system_description(),
                "program_source": prog.source,
            },
        )
        shrunk = []
        for path in workloads.first_trace_per_group(pathlib.Path(tmp)):
            trace = load_trace(path)
            shrunk.append(len(shrink(system, trace.event()).trace.choices))
    return {
        "answer": answer,
        "shrunk": shrunk,
        "source": f"walk+replay sequential DFS; seeded-defect: {', '.join(kinds)}; "
        "shrunk lengths from shrink() on that search's saved traces",
    }


def main() -> int:
    hunt = programs.hunt_queue()
    doc = {
        "about": __doc__.strip().splitlines()[0],
        "oracle_search": ORACLE,
        "timed_search": workloads.TIMED,
        "programs": {},
        "jobs": {},
    }
    for prog in programs.all_programs():
        if prog in hunt:
            continue
        doc["programs"][prog.name] = program_entry(prog)
        print(prog.name, doc["programs"][prog.name]["source"], file=sys.stderr)
    for prog in hunt:
        doc["jobs"][prog.name] = job_entry(prog)
        print(prog.name, doc["jobs"][prog.name]["shrunk"], file=sys.stderr)
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
