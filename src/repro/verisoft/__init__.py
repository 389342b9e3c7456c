"""The VeriSoft substrate: systematic state-space exploration with
partial-order reduction, for closed concurrent systems.

The DFS backtracks in one of two modes (``SearchOptions.backtrack``):
*restore* (the default) keeps undo-journal checkpoints at choice points
and rewinds the live run in O(changes), while *replay* is the classic
VeriSoft stateless mode that re-executes the path prefix from scratch.
Both explore the identical choice tree and report identical results.

The unified entry point is :func:`run_search` driven by a
:class:`SearchOptions` (``strategy`` picks DFS vs random walks,
``engine`` picks the walking vs compiled execution engine);
:func:`replay` re-executes a recorded trace.
"""

from .behaviors import behavior_inclusion, matches_with_erasure, missing_behaviors
from .explorer import (
    Explorer,
    ReplayMismatch,
    apply_choice,
    collect_output_traces,
    replay,
)
from .parallel import (
    ChoicePrefix,
    PrefixPoint,
    harvest_residual,
    prefix_key,
    warn_oversubscription,
)
from .search import ENGINES, STRATEGIES, SearchOptions, run_search
from .stats import ProgressPrinter, SearchStats
from .por import (
    PersistentSetComputer,
    TransitionSig,
    independent,
    process_footprint,
    signature_of,
)
from .results import (
    AssertionViolationEvent,
    Choice,
    CrashEvent,
    DeadlockEvent,
    DivergenceEvent,
    ExplorationReport,
    ScheduleChoice,
    TossChoice,
    Trace,
    TraceStep,
)

__all__ = [
    "AssertionViolationEvent",
    "Choice",
    "ChoicePrefix",
    "CrashEvent",
    "DeadlockEvent",
    "DivergenceEvent",
    "ENGINES",
    "ExplorationReport",
    "Explorer",
    "PersistentSetComputer",
    "PrefixPoint",
    "ProgressPrinter",
    "ReplayMismatch",
    "STRATEGIES",
    "ScheduleChoice",
    "SearchOptions",
    "SearchStats",
    "TossChoice",
    "Trace",
    "TraceStep",
    "TransitionSig",
    "apply_choice",
    "behavior_inclusion",
    "collect_output_traces",
    "harvest_residual",
    "independent",
    "matches_with_erasure",
    "missing_behaviors",
    "prefix_key",
    "process_footprint",
    "replay",
    "run_search",
    "signature_of",
    "warn_oversubscription",
]
