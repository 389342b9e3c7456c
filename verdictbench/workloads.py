"""The four workloads: what one unit does and how its answers are checked.

A unit takes source text to a search-ready system (``setup_s``) and that
system to a verdict checked against ``expected.json`` (``verdict_s``).
Timed searches use the compiled engine with restore backtracking;
``oracle.py`` derived every expected answer another way.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import resource
import shutil
import time

from repro import SearchOptions, run_search
from repro.counterex import load_trace, reproduces, shrink
from repro.service import JobStore
from repro.service.jobs import serve
from repro.sysdesc import system_from_description

from . import programs
from .layers import search_layers

#: The timed search configuration.
TIMED = dict(engine="compiled", backtrack="restore")
#: Workers per job on the steal scheduler: two, but never more than the
#: host has CPUs.
HUNT_WORKERS = min(2, os.cpu_count() or 1)


def build(prog: programs.Program):
    """Set-up: source text to a closed, compiled, search-ready system."""
    system = system_from_description(
        prog.system_description(), None, program_source=prog.source
    )
    if system.compiled_program() is None:
        raise RuntimeError(f"{prog.name}: the compiled engine rejected the program")
    return system


def answer(report) -> dict:
    """The checked part of a search verdict."""
    stats = report.stats
    out = {
        "states": stats.states_visited,
        "paths": stats.paths_explored,
        "transitions": stats.transitions_executed,
        "groups": [[repr(g.signature), g.count] for g in report.triage()],
    }
    if stats.state_cache != "off":
        out["cache_stored"] = stats.cache_stored
        out["cache_hits"] = stats.cache_hits
    return out


def search(system, prog: programs.Program, profile: bool = False, **config):
    return run_search(
        system, SearchOptions(**dict(prog.search, **(config or TIMED)), profile=profile)
    )


#: The probe's time in the host's fast phase on the machine this
#: benchmark was built on (a 2-core Xeon VM).  Timings are reported at
#: this host speed; see :meth:`Record.measure`.
REFERENCE_PROBE_MS = 3.0


def probe_ms() -> float:
    """A fixed pure-Python kernel, timed: the host's speed right now."""
    started = time.perf_counter()
    acc, table = 0, {}
    for i in range(20_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return (time.perf_counter() - started) * 1000


class Record:
    """Timings, per-layer values and answer checks of one run."""

    def __init__(self, log) -> None:
        #: metric -> raw wall seconds (or other values) per sample.
        self.samples: dict[str, list[float]] = {}
        #: metric -> seconds at the reference host speed per sample.
        self.scaled: dict[str, list[float]] = {}
        self.layers: dict[str, list[float]] = {}
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._log = log

    def measure(self, fn):
        """Run ``fn`` between two host probes.

        Returns ``(result, seconds, scaled)``: ``scaled`` is the wall time
        at the reference host speed, ``seconds * REFERENCE_PROBE_MS /
        probe``, with ``probe`` the mean of the probes just before and
        just after.  The host runs the same code at speeds that differ by
        up to 2x, in phases of seconds; the probe tracks them, so the
        scaled time moves only when the program does.
        """
        before = probe_ms()
        started = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - started
        after = probe_ms()
        self.probes += [before, after]
        return result, seconds, seconds * REFERENCE_PROBE_MS * 2 / (before + after)

    def sample(self, metric: str, value: float, scaled: float | None = None) -> None:
        self.samples.setdefault(metric, []).append(value)
        if scaled is not None:
            self.scaled.setdefault(metric, []).append(scaled)

    def layer(self, values: dict) -> None:
        for metric, value in values.items():
            self.layers.setdefault(metric, []).append(value)

    def check(self, what: str, observed, expected) -> bool:
        self.attempted += 1
        if observed == expected:
            return True
        self.failed += 1
        self._log(f"MISMATCH {what}: observed {observed!r}, expected {expected!r}")
        return False


def best_setup(rec: Record, setups: int, fn):
    """Set up ``setups`` times; the fastest (scaled) is the sample."""
    best = None
    for _ in range(setups):
        out = rec.measure(fn)
        if best is None or out[2] < best[2]:
            best = out
    result, seconds, scaled = best
    rec.sample("setup_s", seconds, scaled)
    return result


def _known(expected: dict, prog: programs.Program) -> dict:
    try:
        return expected["programs"][prog.name]["answer"]
    except KeyError:
        raise KeyError(f"expected.json has no answer for {prog.name}") from None


class Workload:
    """One workload; :meth:`unit` runs one unit into a :class:`Record`."""

    def __init__(self, seed: int, expected: dict, workdir: pathlib.Path):
        self.seed = seed
        self.expected = expected
        self.workdir = workdir

    def unit(self, rec: Record, traced: bool, timer) -> None:
        raise NotImplementedError



class SearchWorkload(Workload):
    """Set up every program of :meth:`inputs`, then search each."""

    #: Set-ups per unit; the fastest one is the unit's ``setup_s``
    #: sample (best-of-k, as ``timeit`` advises for short timings), and
    #: its systems are searched.
    setups = 1

    def inputs(self) -> list[programs.Program]:
        raise NotImplementedError

    def unit(self, rec: Record, traced: bool, timer) -> None:
        progs = self.inputs()
        systems = best_setup(rec, self.setups, lambda: [build(p) for p in progs])
        if traced:
            rec.layer(_setup_layers(timer.take(), self.setups))

        def verdict():
            started = time.perf_counter()
            reports = [search(s, p, profile=traced) for p, s in zip(progs, systems)]
            searched = time.perf_counter() - started
            for prog, report in zip(progs, reports):
                rec.check(prog.name, answer(report), _known(self.expected, prog))
            return reports, searched

        (reports, searched), seconds, scaled = rec.measure(verdict)
        rec.sample("verdict_s", seconds, scaled)
        if traced:
            rec.layer(search_layers(reports, searched))


def _setup_layers(totals, setups: int) -> dict:
    """Per-layer values of one set-up, from the totals of ``setups``."""
    per = {name: value / setups for name, value in totals.items()}
    parse = per["lang.parse_s"]
    return {
        "lang.parse_s": parse,
        "lang.kb_per_s": per["lang.kb"] / parse if parse else 0.0,
        "cfg.build_s": per["cfg.build_s"],
        "cfg.nodes": per["cfg.nodes"],
        "closing.analyze_s": per["closing.analyze_s"],
        "closing.transform_s": per["closing.transform_s"],
        "closing.closed_nodes": per["closing.closed_nodes"],
        "closing.toss_nodes": per["closing.toss_nodes"],
        "runtime.build_s": per["runtime.build_s"],
    }


class CloseSuite(SearchWorkload):
    """Front ends and the closing transformation dominate."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.suite = programs.close_suite(self.seed)

    def inputs(self):
        return self.suite


class FiveessDfs(SearchWorkload):
    """Engine, journal and explorer/POR dominate."""

    setups = 5

    def inputs(self):
        return [programs.fiveess_dfs()]


class FiveessCached(SearchWorkload):
    """Every state is keyed and stored or looked up."""

    setups = 5

    def inputs(self):
        return [programs.fiveess_cached()]


class ServeHunt(Workload):
    """One client drains the bug queue through the job service, in a
    closed loop: submit a job, serve until it is done, check its result,
    shrink and replay-verify the first saved trace of each violation
    group, then submit the next.  Draining the whole queue is the unit's
    ``verdict_s``: the sum of the five jobs' verdict times, each measured
    between its own probes.  The sum averages out the jobs' scheduling
    noise."""

    #: Client-side set-ups per job, best-of-k like the 5ESS workloads.
    setups = 3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.queue = programs.hunt_queue()
        rng = random.Random(self.seed)
        self.names = {p.name: f"{p.name}-{rng.getrandbits(32):08x}" for p in self.queue}
        self.store_dir = self.workdir / "jobs"

    def unit(self, rec: Record, traced: bool, timer) -> None:
        for prog in self.queue:
            best_setup(rec, self.setups, lambda: build(prog))
        if traced:
            timer.take()  # set-up layers are reported by the search workloads
        times = [rec.measure(lambda: self._job(prog, rec, traced)) for prog in self.queue]
        rec.sample("verdict_s", sum(t[1] for t in times), sum(t[2] for t in times))
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def _job(self, prog, rec: Record, traced: bool) -> None:
        description = prog.system_description()
        options = SearchOptions(
            strategy="parallel",
            scheduler="steal",
            jobs=HUNT_WORKERS,
            coverage=True,
            profile=traced,
            **dict(prog.search, **TIMED),
        )
        known = self.expected["jobs"][prog.name]
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        marks = {}

        def log(message: str) -> None:
            if message.endswith(": running"):
                marks.setdefault("running", time.perf_counter())

        marks["submit"] = time.perf_counter()
        store = JobStore(self.store_dir)
        job = store.submit(
            description, options, program_source=prog.source, name=self.names[prog.name]
        )
        serve(store, once=True, log=log)
        job = store.get(job.id)
        marks["done"] = time.perf_counter()
        result = json.loads(job.result_path.read_text()) if job.state == "done" else {}
        stats = result.get("stats") or {}
        observed = {
            "state": job.state,
            "states": stats.get("states_visited"),
            "paths": stats.get("paths_explored"),
            "transitions": stats.get("transitions_executed"),
            "groups": [[g["kind"], g["count"]] for g in result.get("groups", [])],
        }
        rec.check(f"job {prog.name}", observed, known["answer"])
        shrunk = [
            self._counterexample(path, rec, traced)
            for path in first_trace_per_group(job.traces_dir)
        ]
        rec.check(f"shrunk lengths {prog.name}", shrunk, known["shrunk"])
        marks["verified"] = time.perf_counter()
        job_s = marks["done"] - marks["submit"]
        rec.sample("service.job_s", job_s)
        rec.sample("counterex.cex_s", marks["verified"] - marks["done"])
        if shrunk:
            rec.sample("counterex.cex_choices", sum(shrunk) / len(shrunk))
        if traced:
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            search_s = stats.get("wall_time", 0.0)
            queue_wait = marks.get("running", marks["submit"]) - marks["submit"]
            manifest = json.loads(job.manifest_path.read_text())
            profile = manifest["report"].get("profile") or {}
            rec.layer(
                {
                    "service.queue_wait_s": queue_wait,
                    "service.search_s": search_s,
                    "service.artifacts_s": job_s - queue_wait - search_s,
                    "service.leases": stats.get("leases", 0),
                    "service.steals": stats.get("steals", 0),
                    "service.requeued": stats.get("leases_requeued", 0),
                    "service.worker_cpu_s": (after.ru_utime + after.ru_stime)
                    - (children.ru_utime + children.ru_stime),
                    "obs.coverage_s": profile.get("phases_s", {}).get("coverage", 0.0),
                    "obs.coverage_nodes": stats.get("coverage_nodes", 0),
                }
            )

    def _counterexample(self, path: pathlib.Path, rec: Record, traced: bool) -> int:
        """Load a saved trace, shrink it, replay-verify the result on
        the walk engine; returns the shrunk length in choices."""
        started = time.perf_counter()
        trace = load_trace(path)
        system = system_from_description(
            trace.system["description"], None, program_source=trace.system["program_source"]
        )
        loaded = time.perf_counter()
        result = shrink(system, trace.event())
        shrunk = time.perf_counter()
        ok = reproduces(system, result.trace.choices, trace.signature())
        replayed = time.perf_counter()
        rec.check(f"replay {path.name}", ok, True)
        if traced:
            applied = result.oracle_choices_applied
            rec.layer(
                {
                    "counterex.load_s": loaded - started,
                    "counterex.shrink_s": shrunk - loaded,
                    "counterex.replay_s": replayed - shrunk,
                    "counterex.oracle_runs": result.oracle_runs,
                    "counterex.reuse_ratio": (
                        result.oracle_choices_reused / applied if applied else 0.0
                    ),
                }
            )
        return len(result.trace.choices)



def first_trace_per_group(traces_dir: pathlib.Path) -> list[pathlib.Path]:
    """The first saved trace of every violation group, in file order."""
    firsts: dict = {}
    for path in sorted(traces_dir.glob("*.json")):
        firsts.setdefault(load_trace(path).signature(), path)
    return list(firsts.values())


WORKLOADS = {
    "close-suite": CloseSuite,
    "5ess-dfs": FiveessDfs,
    "5ess-cached": FiveessCached,
    "serve-hunt": ServeHunt,
}
