"""The versioned on-disk frontier-checkpoint format.

A work-stealing search (:mod:`repro.service.scheduler`) decomposes its
remaining work into **subtree leases** — fully pinned
:class:`~repro.verisoft.parallel.ChoicePrefix` snapshots carrying the
choice stack, the pinned decisions and the partial-order-reduction
context (sleep sets, explored-sibling signatures).  A
:class:`SearchCheckpoint` is the suspended search in one JSON document:

* the **pending leases** — the prefixes of every subtree not yet
  explored, in sequential DFS order;
* the **completed blocks** — one partial
  :class:`~repro.verisoft.results.ExplorationReport` per finished
  lease, keyed by the lease's DFS position
  (:func:`~repro.verisoft.parallel.prefix_key`), kept *unmerged* so the
  final merge reproduces sequential event order exactly no matter how
  many suspend/resume cycles the search went through;
* the **state fingerprints** seen so far (``count_states`` searches),
  canonicalized to strings so the distinct-state union survives JSON;
* the **search options** snapshot and the **system fingerprint**
  (:meth:`repro.runtime.system.System.fingerprint`), so resuming
  against a changed program or changed knobs fails loudly instead of
  producing a report that is half one search and half another.

Because the sleep-set context travels inside the pinned points and the
runtime is deterministic, a checkpoint written by a ``walk``-engine
search resumes bit-identically on the ``compiled`` engine and vice
versa — the engine is a throughput lever, not part of the format.

Version policy (same contract as :mod:`repro.counterex.traceio`):
``version`` is a single integer, bumped on any change that older
readers would misinterpret.  Readers accept exactly the versions they
know; unknown versions raise :class:`FrontierFormatError` instead of
guessing.  New *optional* keys may be added without a bump — readers
must ignore unknown keys.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any

from ..counterex.traceio import (
    choices_from_json,
    choices_to_json,
    steps_from_json,
    steps_to_json,
    violation_from_json,
    violation_to_json,
)
from ..runtime.fingerprint import decode_canonical
from ..verisoft.parallel import ChoicePrefix, PrefixPoint, prefix_key
from ..verisoft.por import TransitionSig
from ..verisoft.results import ExplorationReport, Trace
from ..verisoft.stats import SearchStats

#: Magic format tag of every frontier-checkpoint file.
FRONTIER_FORMAT = "repro-frontier"
#: Current (and only) frontier-format version this build reads and writes.
FRONTIER_VERSION = 1

__all__ = [
    "FRONTIER_FORMAT",
    "FRONTIER_VERSION",
    "FrontierFormatError",
    "SearchCheckpoint",
    "load_frontier",
    "prefix_from_json",
    "prefix_to_json",
    "report_from_json",
    "report_to_json",
    "save_frontier",
]


class FrontierFormatError(ValueError):
    """A frontier checkpoint is malformed or of an unsupported version."""


# ---------------------------------------------------------------------------
# Prefix (de)serialization
# ---------------------------------------------------------------------------


def _sig_to_json(sig: TransitionSig | None) -> list | None:
    if sig is None:
        return None
    return [sig.process, sig.node_id, sig.op, sig.obj, sig.local]


def _sig_from_json(payload: list | None) -> TransitionSig | None:
    if payload is None:
        return None
    process, node_id, op, obj, local = payload
    return TransitionSig(process, node_id, op, obj, bool(local))


def prefix_to_json(prefix: ChoicePrefix) -> list:
    """A :class:`~repro.verisoft.parallel.ChoicePrefix` as JSON: one
    object per pinned point, POR context (sleep set, sibling
    signatures) included.  Sleep sets are emitted sorted so equal
    prefixes serialize byte-identically."""
    out: list = []
    for point in prefix.points:
        # Alternatives are plain scalars: process names for schedule
        # points, toss values (ints) for toss points — JSON-native.
        out.append(
            {
                "kind": point.kind,
                "alternatives": list(point.alternatives),
                "index": point.index,
                "sleep": sorted(
                    (_sig_to_json(sig) for sig in point.sleep),
                    key=lambda entry: [str(part) for part in entry],
                ),
                "sigs": [_sig_to_json(sig) for sig in point.sigs],
            }
        )
    return out


def prefix_from_json(payload: list) -> ChoicePrefix:
    """Inverse of :func:`prefix_to_json`."""
    points = []
    for entry in payload:
        points.append(
            PrefixPoint(
                kind=entry["kind"],
                alternatives=tuple(entry["alternatives"]),
                index=entry["index"],
                sleep=frozenset(
                    _sig_from_json(sig) for sig in entry.get("sleep", ())
                ),
                sigs=tuple(_sig_from_json(sig) for sig in entry.get("sigs", ())),
            )
        )
    return ChoicePrefix(tuple(points))


# ---------------------------------------------------------------------------
# Report-block (de)serialization
# ---------------------------------------------------------------------------

_EVENT_LISTS = ("deadlocks", "violations", "crashes", "divergences")


def _event_to_json(event: Any) -> dict:
    return {
        "violation": violation_to_json(event),
        "choices": choices_to_json(event.trace.choices),
        "steps": steps_to_json(event.trace.steps),
    }


def _event_from_json(payload: dict) -> Any:
    trace = Trace(
        choices_from_json(payload["choices"]),
        steps_from_json(payload.get("steps", [])),
    )
    return violation_from_json(payload["violation"], trace)


def report_to_json(report: ExplorationReport) -> dict:
    """One lease's partial report as JSON: the counters, the recorded
    events (reusing the counterexample trace codecs of
    :mod:`repro.counterex.traceio`) and the full
    :class:`~repro.verisoft.stats.SearchStats` snapshot."""
    doc: dict[str, Any] = {
        "states_visited": report.states_visited,
        "transitions_executed": report.transitions_executed,
        "toss_points": report.toss_points,
        "paths_explored": report.paths_explored,
        "max_depth_reached": report.max_depth_reached,
        "truncated": report.truncated,
        "incomplete": report.incomplete,
    }
    for name in _EVENT_LISTS:
        doc[name] = [_event_to_json(event) for event in getattr(report, name)]
    if report.stats is not None:
        doc["stats"] = report.stats.as_dict()
    return doc


def report_from_json(payload: dict) -> ExplorationReport:
    """Inverse of :func:`report_to_json`."""
    report = ExplorationReport(
        states_visited=payload.get("states_visited", 0),
        transitions_executed=payload.get("transitions_executed", 0),
        toss_points=payload.get("toss_points", 0),
        paths_explored=payload.get("paths_explored", 0),
        max_depth_reached=payload.get("max_depth_reached", 0),
        truncated=payload.get("truncated", False),
        incomplete=payload.get("incomplete", False),
    )
    for name in _EVENT_LISTS:
        getattr(report, name).extend(
            _event_from_json(entry) for entry in payload.get(name, ())
        )
    if "stats" in payload:
        stats = dict(payload["stats"])
        # Written before the static prefix partition was removed; the
        # lease count it mirrored is still in ``leases``.
        stats.pop("prefixes", None)
        report.stats = SearchStats(**stats)
    return report


# ---------------------------------------------------------------------------
# The checkpoint
# ---------------------------------------------------------------------------


def canonical_fingerprint(value: Any) -> str:
    """The canonical string form of a state fingerprint.

    State fingerprints are nested tuples of primitives — hashable but
    not JSON-stable (tuples come back as lists).  ``repr`` is injective
    on them, so unioning canonical strings counts distinct states
    exactly as unioning the raw values would; the scheduler
    canonicalizes every fingerprint at lease-commit time so suspend/
    resume cycles never mix representations.

    The explorer now collects fingerprints as canonical *bytes*
    (:meth:`~repro.runtime.system.Run.state_key`); those decode back to
    the structural tuple first, so the wire form — and therefore every
    frontier checkpoint written before the incremental-fingerprint
    change — stays bit-identical (``FRONTIER_VERSION`` unchanged)."""
    if isinstance(value, bytes):
        value = decode_canonical(value)
    return repr(value)


@dataclass
class SearchCheckpoint:
    """A suspended work-stealing search, losslessly.

    Invariant: ``pending`` and ``completed`` partition the search's
    choice tree — every subtree is either below exactly one pending
    lease or accounted in exactly one completed block.  Resuming the
    checkpoint (feeding it back to
    :func:`~repro.service.scheduler.work_stealing_search`) therefore
    completes the search with a final report identical to an
    uninterrupted run.
    """

    #: System fingerprint at suspension time; resuming against a system
    #: with a different fingerprint raises :class:`FrontierFormatError`.
    fingerprint: str | None = None
    #: :meth:`~repro.verisoft.search.SearchOptions.as_dict` snapshot of
    #: the suspended search's options.
    options: dict = field(default_factory=dict)
    #: Unexplored subtree leases, each a fully pinned
    #: :class:`~repro.verisoft.parallel.ChoicePrefix` (``None`` is the
    #: whole-tree root lease of a search suspended before any work).
    pending: list[ChoicePrefix | None] = field(default_factory=list)
    #: Completed per-lease report blocks as ``(key, report)`` pairs,
    #: where ``key`` is the lease's
    #: :func:`~repro.verisoft.parallel.prefix_key` (``()`` for the root
    #: lease).  Kept unmerged — see the module docstring.
    completed: list[tuple[tuple[int, ...], ExplorationReport]] = field(
        default_factory=list
    )
    #: Canonicalized state fingerprints seen so far (``count_states``
    #: searches only; see :func:`canonical_fingerprint`).
    fingerprints: set[str] = field(default_factory=set)
    #: Lifetime work-stealing counters, carried across resume cycles.
    leases: int = 0
    steals: int = 0
    leases_requeued: int = 0
    version: int = FRONTIER_VERSION

    def done(self) -> bool:
        """No pending leases: the checkpoint is a finished search."""
        return not self.pending

    def to_json(self) -> dict:
        """The complete JSON document (dict form)."""
        return {
            "format": FRONTIER_FORMAT,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "options": self.options,
            "pending": [
                None if prefix is None else prefix_to_json(prefix)
                for prefix in self.pending
            ],
            "completed": [
                {"key": list(key), "report": report_to_json(report)}
                for key, report in self.completed
            ],
            "fingerprints": sorted(self.fingerprints),
            "leases": self.leases,
            "steals": self.steals,
            "leases_requeued": self.leases_requeued,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SearchCheckpoint":
        """Parse and validate a JSON document."""
        if not isinstance(doc, dict) or doc.get("format") != FRONTIER_FORMAT:
            raise FrontierFormatError(
                f"not a {FRONTIER_FORMAT} file (format tag: {doc.get('format')!r})"
                if isinstance(doc, dict)
                else "not a frontier checkpoint: top level must be a JSON object"
            )
        version = doc.get("version")
        if version != FRONTIER_VERSION:
            raise FrontierFormatError(
                f"unsupported frontier format version {version!r} "
                f"(this build reads version {FRONTIER_VERSION})"
            )
        if "pending" not in doc or "completed" not in doc:
            raise FrontierFormatError(
                "frontier checkpoint lacks 'pending' or 'completed'"
            )
        return cls(
            fingerprint=doc.get("fingerprint"),
            options=doc.get("options", {}),
            pending=[
                None if entry is None else prefix_from_json(entry)
                for entry in doc["pending"]
            ],
            completed=[
                (tuple(entry["key"]), report_from_json(entry["report"]))
                for entry in doc["completed"]
            ],
            fingerprints=set(doc.get("fingerprints", ())),
            leases=doc.get("leases", 0),
            steals=doc.get("steals", 0),
            leases_requeued=doc.get("leases_requeued", 0),
            version=version,
        )

    def check_system(self, system) -> None:
        """Raise unless ``system`` matches the checkpointed fingerprint
        (a prefix of choices is only meaningful against the exact
        program it was recorded from)."""
        if self.fingerprint is None:
            return
        actual = system.fingerprint()
        if actual != self.fingerprint:
            raise FrontierFormatError(
                "frontier checkpoint was recorded from a different system "
                f"(checkpoint fingerprint {self.fingerprint}, "
                f"current {actual}); refusing to resume"
            )

    def sorted_completed(self) -> list[tuple[tuple[int, ...], ExplorationReport]]:
        """The completed blocks in sequential DFS order (lexicographic
        on lease keys; a suspended lease's own partial block is a strict
        tuple-prefix of its residuals' keys, so it sorts first)."""
        return sorted(self.completed, key=lambda entry: entry[0])


def pending_key(prefix: ChoicePrefix | None) -> tuple[int, ...]:
    """DFS-order key of a pending lease (root lease sorts first)."""
    return () if prefix is None else prefix_key(prefix)


def save_frontier(
    path: str | pathlib.Path, checkpoint: SearchCheckpoint
) -> pathlib.Path:
    """Atomically write ``checkpoint`` as JSON; returns the path.

    Write-then-rename, so a reader (or a crash) never observes a
    half-written frontier — the job service checkpoints *live* searches
    on a timer."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(checkpoint.to_json(), indent=2) + "\n")
    tmp.replace(path)
    return path


def load_frontier(path: str | pathlib.Path) -> SearchCheckpoint:
    """Read and validate a frontier checkpoint."""
    path = pathlib.Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise FrontierFormatError(f"{path}: not valid JSON: {err}") from err
    return SearchCheckpoint.from_json(doc)
