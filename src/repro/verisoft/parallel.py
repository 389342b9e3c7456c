"""Subtree prefixes: the unit of work of parallel exploration.

VeriSoft's defining property — the explorer stores *no* states and
backtracks by deterministic replay from the initial state — means that
disjoint subtrees of the choice tree can be searched by fully
independent operating-system processes: a subtree is identified by the
choice *prefix* leading to its root, and a worker that re-executes the
prefix owns everything below it with no shared state whatsoever.

This module holds the prefix vocabulary shared by the work-stealing
scheduler (:mod:`repro.service.scheduler`, the driver behind
``run_search(strategy="parallel")``) and the frontier-checkpoint format
(:mod:`repro.service.frontier`):

* :class:`ChoicePrefix` / :class:`PrefixPoint` — a picklable, fully
  pinned path to a subtree root, including the sleep sets and sibling
  signatures needed to resume the partial-order reduction exactly;
* :func:`harvest_residual` — the unexplored remainder of a suspended
  DFS as disjoint prefixes, and :func:`_thaw` — the inverse, rebuilding
  explorer choice points from a prefix;
* :func:`prefix_key` — the prefix's position in sequential DFS order,
  which makes the merge deterministic;
* :func:`warn_oversubscription` — the once-per-search CPU check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from .explorer import _ChoicePoint
from .por import TransitionSig

__all__ = [
    "ChoicePrefix",
    "PrefixPoint",
    "harvest_residual",
    "prefix_key",
    "warn_oversubscription",
]


# ---------------------------------------------------------------------------
# Choice prefixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PrefixPoint:
    """One pinned decision of a choice prefix (picklable snapshot of the
    explorer's internal choice point, with the POR context frozen in)."""

    kind: str  # "schedule" | "toss"
    alternatives: tuple[Any, ...]
    index: int
    sleep: frozenset[TransitionSig]
    sigs: tuple[TransitionSig | None, ...]


@dataclass(frozen=True, slots=True)
class ChoicePrefix:
    """A path from the root of the choice tree to an untried decision.

    Replaying the prefix and freezing backtracking at its length makes a
    worker explore exactly the subtree below that decision.
    """

    points: tuple[PrefixPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def describe(self) -> str:
        return " / ".join(
            f"{p.kind}={p.alternatives[p.index]!r}" for p in self.points
        )


def prefix_key(prefix: ChoicePrefix) -> tuple[int, ...]:
    """The prefix's position in DFS order: the tuple of chosen-alternative
    indices along its path.

    Two disjoint subtree prefixes compare exactly as the sequential DFS
    would visit them (lexicographic on index tuples), and a prefix that
    extends another — a split lease's residual extending the suspended
    lease's own prefix — sorts directly after it.  The work-stealing
    merge (:mod:`repro.service.scheduler`) sorts completed lease reports
    by this key so event order (and therefore ``max_events`` truncation)
    is identical to the sequential search, regardless of which worker
    finished what when.
    """
    return tuple(point.index for point in prefix.points)


def _freeze_point(point: _ChoicePoint, index: int | None = None) -> PrefixPoint:
    """A picklable snapshot of one live choice point, optionally pinned
    to a different alternative ``index`` (residual harvesting)."""
    return PrefixPoint(
        kind=point.kind,
        alternatives=tuple(point.alternatives),
        index=point.index if index is None else index,
        sleep=point.sleep,
        sigs=tuple(point.sigs),
    )


def harvest_residual(
    stack: list[_ChoicePoint], base: int = 0
) -> list[ChoicePrefix]:
    """Decompose the unexplored remainder of a suspended DFS into
    disjoint, fully pinned subtree prefixes.

    After a path completes, everything the DFS has left to do is "the
    subtree below alternative ``i`` of stack point ``j``" for every
    untried ``(j, i)`` with ``j >= base`` (points inside a frozen prefix
    are never bumped).  Each such subtree is captured as a
    :class:`ChoicePrefix` pinning ``stack[:j]`` at its current decisions
    and point ``j`` at alternative ``i`` — the full alternative and
    signature lists are retained, so resuming the prefix reconstructs
    the exact sleep-set context the sequential search would have had on
    bumping that choice point.  The pinned tip decision was never
    executed, so when the explorer resumes the prefix its out-edge is
    fresh, countable ground.

    The prefixes come back in sequential DFS visit order (deepest point
    first, ascending alternative index within a point); their union is
    exactly the suspended search's remaining work and they are pairwise
    disjoint, so a partial report plus these prefixes partitions the
    subtree losslessly.
    """
    out: list[ChoicePrefix] = []
    for j in range(len(stack) - 1, base - 1, -1):
        point = stack[j]
        for i in range(point.index + 1, len(point.alternatives)):
            points = [_freeze_point(p) for p in stack[:j]]
            points.append(_freeze_point(point, index=i))
            out.append(ChoicePrefix(tuple(points)))
    return out


def _thaw(prefix: ChoicePrefix) -> list[_ChoicePoint]:
    """Rebuild explorer choice points, pinned to the prefix's decisions.

    The full alternative/signature lists are retained so the replayed
    sleep-set augmentation sees the same explored siblings the
    sequential search would.
    """
    points = []
    for frozen in prefix.points:
        point = _ChoicePoint(
            kind=frozen.kind,
            alternatives=list(frozen.alternatives),
            index=frozen.index,
            sleep=frozen.sleep,
            sigs=list(frozen.sigs),
        )
        points.append(point)
    return points


def warn_oversubscription(
    jobs: int,
    warn: Callable[[str], None],
    *,
    cpus: int | None = None,
) -> bool:
    """Warn when the worker pool *plus the coordinator process* exceed
    the machine's CPUs.

    Emitted exactly once per search, before any fan-out — the
    work-stealing driver hands out leases continuously, so it must not
    repeat it per lease.  ``jobs <= 1`` runs in-process with no pool and
    no separate coordinator, so it never warns.  Returns whether a
    warning was emitted (for the tests).
    """
    if jobs <= 1:
        return False
    if cpus is None:
        cpus = os.cpu_count() or 1
    if jobs + 1 <= cpus:
        return False
    warn(
        f"--jobs {jobs} exceeds the {cpus} available CPU(s) once the "
        "coordinator process is counted; workers will time-slice"
    )
    return True
