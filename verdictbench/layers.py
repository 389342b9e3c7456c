"""Per-layer timing for traced runs, recorded from benchmark code.

:class:`LayerTimer` wraps the public entry point of each set-up layer
wherever the ``repro`` package has bound it, and accumulates wall time
and work counts per unit.  Untraced runs never install it, so their
calls are the program's own, unwrapped.  The search layers need no
wrapping: their counters and profiler phases come from the report
(:func:`search_layers`).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

#: metric -> the public functions whose calls it times.
ENTRY_POINTS = {
    "lang.parse_s": [
        ("repro.lang.parser", "parse_program"),
        ("repro.lang.python.model", "lift_module"),
        ("repro.lang.cfront", "c_to_program"),
    ],
    "cfg.build_s": [("repro.cfg.builder", "build_cfgs")],
    "closing.analyze_s": [("repro.closing.analysis", "analyze_for_closing")],
    "closing.transform_s": [("repro.closing.transform", "transform_program")],
    "runtime.build_s": [("repro.runtime.compile", "compile_program")],
}


def _node_count(cfgs) -> int:
    return sum(len(cfg.nodes) for cfg in cfgs.values())


def _count(metric: str, args: tuple, result, totals: Counter) -> None:
    """Work counts read off a layer call's arguments and result."""
    if metric == "lang.parse_s":
        totals["lang.kb"] += len(args[0].encode()) / 1024
    elif metric == "cfg.build_s":
        totals["cfg.nodes"] += _node_count(result)
    elif metric == "closing.transform_s":
        cfgs, stats = result
        totals["closing.closed_nodes"] += _node_count(cfgs)
        totals["closing.toss_nodes"] += sum(s.toss_nodes for s in stats.values())


class LayerTimer:
    """Installs timing wrappers; :attr:`totals` accumulates until reset.

    Only the outermost call of a metric counts, so a front end that
    calls another entry point of the same layer is not timed twice.
    """

    def __init__(self) -> None:
        self.totals: Counter = Counter()
        self._depth: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, metric: str, func):
        totals, depth = self.totals, self._depth

        def timed(*args, **kwargs):
            depth[metric] += 1
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                depth[metric] -= 1
            if depth[metric] == 0:
                totals[metric] += time.perf_counter() - started
                _count(metric, args, result, totals)
            return result

        return timed

    def install(self) -> None:
        for metric, entries in ENTRY_POINTS.items():
            for module_name, name in entries:
                original = getattr(importlib.import_module(module_name), name)
                wrapper = self._wrap(metric, original)
                for module in list(sys.modules.values()):
                    if (
                        getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, name, None) is original
                    ):
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def take(self) -> Counter:
        """This unit's totals; resets for the next unit."""
        out = Counter(self.totals)
        self.totals.clear()
        return out


def search_layers(reports, wall: float) -> dict[str, float]:
    """Per-layer metrics of profiled search reports that took ``wall``
    seconds together; time outside the profiler phases is
    ``verisoft.unattributed_s``."""
    phases: Counter = Counter()
    totals: Counter = Counter()
    for report in reports:
        phases.update(report.profile.phases)
        stats = report.stats
        for name in (
            "transitions_executed", "restores", "undo_entries", "states_visited",
            "paths_explored", "sleep_prunes", "persistent_transitions",
            "enabled_transitions", "cache_hits", "cache_misses", "cache_stored",
            "cache_memory_bytes", "coverage_nodes",
        ):
            totals[name] += getattr(stats, name)
    lookups = totals["cache_hits"] + totals["cache_misses"]
    enabled = totals["enabled_transitions"]
    return {
        "runtime.engine_s": phases["engine"],
        "runtime.fingerprint_s": phases["fingerprint"],
        "runtime.transitions": totals["transitions_executed"],
        "runtime.restores": totals["restores"],
        "runtime.undo_entries": totals["undo_entries"],
        "verisoft.por_s": phases["por"],
        "verisoft.unattributed_s": max(0.0, wall - sum(phases.values())),
        "verisoft.states": totals["states_visited"],
        "verisoft.paths": totals["paths_explored"],
        "verisoft.states_per_s": totals["states_visited"] / wall,
        "verisoft.sleep_prunes": totals["sleep_prunes"],
        "verisoft.persistent_ratio": (
            totals["persistent_transitions"] / enabled if enabled else 0.0
        ),
        "statespace.cache_s": phases["cache"],
        "statespace.hit_ratio": totals["cache_hits"] / lookups if lookups else 0.0,
        "statespace.stored": totals["cache_stored"],
        "statespace.mb": totals["cache_memory_bytes"] / 1e6,
        "obs.coverage_s": phases["coverage"],
        "obs.coverage_nodes": totals["coverage_nodes"],
    }
