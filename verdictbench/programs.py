"""The programs the benchmark closes and searches, and how each is searched.

Every program is a ``(description, source)`` pair — the same
self-contained form the job service stores — so one set-up path,
:func:`repro.sysdesc.system_from_description`, takes every input from
source text to a closed system, whichever front end it uses.

Programs whose content depends on the run's seed (the generated ones)
are drawn from fixed pools, so ``expected.json`` can hold a known answer
for every program any seed can pick.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import pathlib
import random
from dataclasses import dataclass, field

from repro.closing.generators import (
    GeneratorConfig,
    generate_program,
    generate_sized_program,
)
from repro.fiveess import build_app
from repro.lang.python import description_from_python
from repro.runtime import ObjectRef

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

#: Small random programs: the shape the Theorem 6/7 tests use, so the
#: naive closing stays finitely explorable.
SMALL = GeneratorConfig(
    max_depth=2, statements_per_block=(2, 3), loop_bound=(1, 2), n_env_inputs=2
)
#: Pool sizes the run seed draws from (``expected.json`` covers them all).
SMALL_POOL = 48
SIZED_POOL = 6
#: Generated programs in one close-suite unit.  The sizes are fixed, so
#: the seed changes a unit's content but not its amount of work.
SMALL_PER_SUITE = 6
SIZED_STATEMENTS = (500, 1000, 2000)

#: The searches.  Timed runs use the compiled engine with restore
#: backtracking; ``oracle.py`` derives the known answers with the walk
#: engine and replay backtracking instead.
SUITE_DEPTH = {"fiveess": 1, "example": 60, "small": 60, "sized": 8}
FIVEESS_DFS_DEPTH = 22
FIVEESS_CACHED_DEPTH = 32
HUNT_FIVEESS_DEPTH = 24
#: The worker-pool variants are searched to this depth, not in full.
HUNT_VARIANT_DEPTH = 10
#: Events recorded per kind.  Jobs save one trace file per recorded
#: event, so the cap bounds serve-hunt's artifact writing.
MAX_EVENTS = 25


@dataclass(frozen=True)
class Program:
    """One input: its system description, its source text, its search."""

    name: str
    #: ``None`` for a ``.py`` program: it is its own description, which
    #: set-up derives from the source like ``repro search x.py`` does.
    description: dict | None = field(hash=False)
    source: str
    #: :class:`~repro.verisoft.search.SearchOptions` fields of its verdict.
    search: dict = field(hash=False)

    #: The program file name; its suffix picks the front end.
    filename: str = ""

    def system_description(self) -> dict:
        if self.description is not None:
            return self.description
        return description_from_python(self.source, self.filename)


def _search(depth: int, **extra) -> dict:
    return dict(max_depth=depth, max_events=MAX_EVENTS, **extra)


def _describe(system, closing: dict) -> dict:
    """The description of a built 5ESS system (objects and processes
    read back from it), closed with ``closing``."""
    kinds = {"env_sink": "sink"}
    objects = []
    for spec in system._object_specs.values():
        obj = {"kind": kinds.get(spec.kind, spec.kind), "name": spec.name}
        obj.update((k, v) for k, v in spec.params if k != "visible_in_state")
        objects.append(obj)
    processes = [
        {
            "name": name,
            "proc": proc,
            "args": [
                {"object": a.name} if isinstance(a, ObjectRef) else a
                for a in args
            ],
        }
        for name, proc, args in system.process_specs
    ]
    return {
        "program": "fiveess.rc",
        "close": closing,
        "objects": objects,
        "processes": processes,
    }


@functools.lru_cache(maxsize=None)
def fiveess(n_lines: int, with_maintenance: bool, depth: int) -> Program:
    """The closed 5ESS call-processing system with its seeded defects
    (one call per line, no mobility changes)."""
    app = build_app(n_lines=n_lines, calls_per_line=1)
    system = app.make_system(with_maintenance=with_maintenance)
    bindings = {
        f"{proc}.{param}": sorted(objs)
        for (proc, param), objs in app.spec.object_bindings.items()
    }
    description = _describe(system, {"object_bindings": bindings})
    maint = "-maint" if with_maintenance else ""
    return Program(
        f"fiveess-{n_lines}{maint}-d{depth}",
        description,
        app.source,
        _search(depth),
    )


def _rc_example(stem: str, name: str) -> Program:
    description = json.loads((EXAMPLES / f"{stem}.json").read_text())
    source = (EXAMPLES / f"{stem}.rc").read_text()
    return Program(name, description, source, _search(SUITE_DEPTH["example"]))


def _py_program(
    name: str, filename: str, source: str, depth: int = SUITE_DEPTH["example"], **search
) -> Program:
    return Program(name, None, source, _search(depth, **search), filename)


@functools.lru_cache(maxsize=None)
def examples() -> tuple[Program, ...]:
    """Fig. 2/3, both ``.py`` examples and the C router."""
    spec = importlib.util.spec_from_file_location("c_frontend", EXAMPLES / "c_frontend.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    router = {
        "program": "router.c",
        "close": {},
        "objects": [{"kind": "sink", "name": "egress"}],
        "processes": [{"name": "router", "proc": "router", "args": [3]}],
    }
    depth = SUITE_DEPTH["example"]
    return (
        _rc_example("fig2", "fig2"),
        _rc_example("fig3", "fig3"),
        _py_program(
            "py_worker_pool",
            "py_worker_pool.py",
            (EXAMPLES / "py_worker_pool.py").read_text(),
            stop_on_first=True,
        ),
        _py_program(
            "py_pinger",
            "py_pinger.py",
            (EXAMPLES / "py_pinger.py").read_text(),
            stop_on_first=True,
        ),
        Program("c_router", router, module.C_SOURCE, _search(depth)),
    )


def _generated(name: str, source: str, depth: int) -> Program:
    description = {
        "program": f"{name}.rc",
        "close": {},
        "objects": [{"kind": "sink", "name": "out"}],
        "processes": [{"name": "P", "proc": "main", "args": []}],
    }
    return Program(name, description, source, _search(depth))


def small(seed: int) -> Program:
    return _generated(f"small-{seed}", generate_program(seed, SMALL), SUITE_DEPTH["small"])


def sized(n: int, seed: int) -> Program:
    return _generated(
        f"sized-{n}-{seed}", generate_sized_program(n, seed), SUITE_DEPTH["sized"]
    )


def close_suite(seed: int) -> list[Program]:
    """One run's suite: fixed parts plus seed-drawn generated programs."""
    rng = random.Random(seed)
    programs = [fiveess(n, False, SUITE_DEPTH["fiveess"]) for n in (2, 3, 4)]
    programs += examples()
    programs += [small(s) for s in rng.sample(range(SMALL_POOL), SMALL_PER_SUITE)]
    programs += [sized(n, rng.randrange(SIZED_POOL)) for n in SIZED_STATEMENTS]
    return programs


def fiveess_dfs() -> Program:
    """Exhaustive bounded DFS: POR + sleep sets, no cache."""
    return fiveess(2, False, FIVEESS_DFS_DEPTH)


def fiveess_cached() -> Program:
    """The same system under the exact state cache in safe mode."""
    base = fiveess(2, False, FIVEESS_CACHED_DEPTH)
    return Program(
        f"{base.name}-exact",
        base.description,
        base.source,
        dict(base.search, state_cache="exact", cache_mode="safe"),
    )


# -- serve-hunt: buggy programs queued as jobs --------------------------------

#: Worker-pool variants, each with one planted defect: ``(old, new)``
#: replacements applied to ``examples/py_worker_pool.py``.
POOL_VARIANTS = {
    # Off by one: a worker may reject only one job of its quota.
    "pool-off-by-one": (
        "assert rejected < JOBS_PER_WORKER",
        "assert rejected < JOBS_PER_WORKER - 1",
    ),
    # The producer sends one job too few: a worker waits forever.
    "pool-short-producer": (
        "spawn(producer, jobs, 2 * JOBS_PER_WORKER)",
        "spawn(producer, jobs, 2 * JOBS_PER_WORKER - 1)",
    ),
}


@functools.lru_cache(maxsize=None)
def hunt_queue() -> tuple[Program, ...]:
    """The fixed queue of buggy programs one serve-hunt unit drains:
    both ``.py`` examples searched in full, the worker-pool variants to a
    bounded depth, and the 5ESS system with maintenance and its seeded
    defects."""
    pool_source = (EXAMPLES / "py_worker_pool.py").read_text()
    pinger_source = (EXAMPLES / "py_pinger.py").read_text()
    queue = [
        _py_program("py_worker_pool-full", "py_worker_pool.py", pool_source),
        _py_program("py_pinger-full", "py_pinger.py", pinger_source),
    ]
    for name, (old, new) in POOL_VARIANTS.items():
        if old not in pool_source:
            raise ValueError(f"{name}: examples/py_worker_pool.py changed")
        queue.append(
            _py_program(
                name, f"{name}.py", pool_source.replace(old, new), HUNT_VARIANT_DEPTH
            )
        )
    queue.append(fiveess(1, True, HUNT_FIVEESS_DEPTH))
    return tuple(queue)


def all_programs() -> list[Program]:
    """Every program any seed can put in front of the benchmark."""
    programs = [fiveess(n, False, SUITE_DEPTH["fiveess"]) for n in (2, 3, 4)]
    programs += examples()
    programs += [small(s) for s in range(SMALL_POOL)]
    programs += [sized(n, s) for n in SIZED_STATEMENTS for s in range(SIZED_POOL)]
    programs += [fiveess_dfs(), fiveess_cached()]
    programs += hunt_queue()
    return programs
