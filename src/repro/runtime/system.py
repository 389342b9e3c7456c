"""System description and live runs.

:class:`System` is the *static* description of a closed concurrent
system: the program (as CFGs), the communication objects and the process
launch specs.  Calling :meth:`System.start` instantiates a fresh
:class:`Run` — fresh objects, fresh process steppers — which is what
makes stateless (re-execution based) exploration possible: the explorer
simply starts a new run per path, exactly like VeriSoft reinitialises
the system to explore an alternative path.  A run started with
``journal=True`` additionally supports :meth:`Run.checkpoint` /
:meth:`Run.restore`, which is what restore-based backtracking builds on
(see :mod:`repro.runtime.journal`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable

from ..cfg.builder import build_cfgs
from ..cfg.graph import ControlFlowGraph
from ..lang import ast
from ..lang.parser import parse_program
from .compile import (
    CompiledEngine,
    CompiledProgram,
    CompileUnsupported,
    compile_program,
)
from .engine import validate_engine
from .errors import ObjectError
from .fingerprint import RunFingerprinter, encode_canonical
from .interp import Interpreter
from .journal import RunCheckpoint, UndoJournal
from .objects import CommunicationObject, EnvSink, FifoChannel, Semaphore, SharedVar
from .process import Process, ProcessStatus
from .values import ObjectRef


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Tunables shared by every process of a system."""

    divergence_budget: int = 100_000
    max_call_depth: int = 512


@dataclass(frozen=True, slots=True)
class _ObjectSpec:
    kind: str
    name: str
    params: tuple[tuple[str, Any], ...]

    def instantiate(self) -> CommunicationObject:
        kwargs = dict(self.params)
        if self.kind == "channel":
            return FifoChannel(self.name, **kwargs)
        if self.kind == "env_sink":
            return EnvSink(self.name, **kwargs)
        if self.kind == "semaphore":
            return Semaphore(self.name, **kwargs)
        if self.kind == "shared":
            return SharedVar(self.name, **kwargs)
        raise ObjectError(f"unknown object kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class _ProcessSpec:
    name: str
    proc: str
    args: tuple[Any, ...]


class System:
    """Static description of a closed concurrent system.

    ``source`` may be RC source text, a parsed :class:`~repro.lang.ast.Program`
    or a pre-built CFG dictionary (the output of the closing
    transformation).

    Systems are **picklable**: a ``System`` consists only of static data
    (CFGs, object/process specs, config), never of live runs, so the
    parallel driver (:mod:`repro.verisoft.parallel`) can ship one to
    worker processes and re-instantiate fresh runs there.  The pickle
    contract is explicit (:meth:`__getstate__`/:meth:`__setstate__`) so
    that future caches added to the class cannot accidentally break
    worker fan-out.  :class:`Run` instances hold live coroutines and are
    deliberately *not* picklable — workers re-execute from the initial
    state instead, which is the whole point of stateless search.
    """

    def __init__(
        self,
        source: str | ast.Program | dict[str, ControlFlowGraph],
        config: SystemConfig | None = None,
    ):
        if isinstance(source, str):
            source = parse_program(source)
        if isinstance(source, ast.Program):
            self.cfgs = build_cfgs(source)
        else:
            self.cfgs = dict(source)
        self.config = config or SystemConfig()
        self._object_specs: dict[str, _ObjectSpec] = {}
        self._process_specs: list[_ProcessSpec] = []
        # Compiled-engine cache: None = not yet attempted, False =
        # compilation unsupported (fall back to the walking engine).
        # Per-instance and excluded from pickling — workers recompile.
        self._compiled: CompiledProgram | bool | None = None
        # uses_pointers() cache — per-instance, excluded from pickling.
        self._uses_pointers: bool | None = None

    # -- pickling (parallel worker fan-out) ---------------------------------------

    def __getstate__(self) -> dict:
        return {
            "cfgs": self.cfgs,
            "config": self.config,
            "object_specs": self._object_specs,
            "process_specs": self._process_specs,
        }

    def __setstate__(self, state: dict) -> None:
        self.cfgs = state["cfgs"]
        self.config = state["config"]
        self._object_specs = state["object_specs"]
        self._process_specs = state["process_specs"]
        self._compiled = None
        self._uses_pointers = None

    # -- declaration API ---------------------------------------------------------

    def _add_object(self, kind: str, name: str, **params) -> ObjectRef:
        if name in self._object_specs:
            raise ObjectError(f"duplicate communication object {name!r}")
        self._object_specs[name] = _ObjectSpec(kind, name, tuple(sorted(params.items())))
        public_kind = "channel" if kind == "env_sink" else kind
        return ObjectRef(public_kind, name)

    def add_channel(self, name: str, capacity: int = 1) -> ObjectRef:
        """Declare a bounded FIFO channel."""
        return self._add_object("channel", name, capacity=capacity)

    def add_env_sink(self, name: str, visible_in_state: bool = False) -> ObjectRef:
        """Declare an always-enabled output channel to the environment."""
        return self._add_object("env_sink", name, visible_in_state=visible_in_state)

    def add_semaphore(self, name: str, initial: int = 1) -> ObjectRef:
        """Declare a counting semaphore."""
        return self._add_object("semaphore", name, initial=initial)

    def add_shared(self, name: str, initial: Any = 0) -> ObjectRef:
        """Declare a shared variable."""
        return self._add_object("shared", name, initial=initial)

    def add_process(self, name: str, proc: str, args: Iterable[Any] = ()) -> None:
        """Declare a process running top-level procedure ``proc``.

        ``args`` are bound to the procedure's parameters; they may be
        ints, bools, strings or :class:`ObjectRef` values.
        """
        if any(spec.name == name for spec in self._process_specs):
            raise ObjectError(f"duplicate process name {name!r}")
        if proc not in self.cfgs:
            raise ObjectError(f"unknown top-level procedure {proc!r}")
        args = tuple(args)
        expected = len(self.cfgs[proc].params)
        if len(args) != expected:
            raise ObjectError(
                f"process {name!r}: procedure {proc!r} takes {expected} "
                f"arguments, got {len(args)}"
            )
        self._process_specs.append(_ProcessSpec(name, proc, args))

    @property
    def process_names(self) -> list[str]:
        return [spec.name for spec in self._process_specs]

    @property
    def process_specs(self) -> list[tuple[str, str, tuple[Any, ...]]]:
        """(process name, top-level procedure, launch args) triples."""
        return [(spec.name, spec.proc, spec.args) for spec in self._process_specs]

    @property
    def object_names(self) -> list[str]:
        return list(self._object_specs)

    # -- identity ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """A stable hex digest of the *static* system description.

        Covers the program (every CFG node and guarded arc, rendered
        textually), the communication-object specs, the process launch
        specs and the config — everything that determines the behaviour
        of :meth:`start`.  Two systems with equal fingerprints replay a
        choice sequence identically, so persisted counterexample traces
        (:mod:`repro.counterex`) record it to detect that the program
        has changed since a trace was captured.
        """
        digest = hashlib.sha256()

        def feed(*parts: Any) -> None:
            digest.update("\x1f".join(str(part) for part in parts).encode())
            digest.update(b"\x1e")

        for proc_name in sorted(self.cfgs):
            cfg = self.cfgs[proc_name]
            feed("proc", proc_name, ",".join(cfg.params))
            for node_id in sorted(cfg.nodes):
                node = cfg.nodes[node_id]
                feed("node", node_id, node.kind.value, node.describe())
                for arc in cfg.successors(node_id):
                    feed("arc", arc.src, arc.dst, arc.guard.describe())
        for name in sorted(self._object_specs):
            spec = self._object_specs[name]
            feed("object", spec.kind, spec.name, spec.params)
        for spec in self._process_specs:
            feed("process", spec.name, spec.proc, spec.args)
        feed("config", self.config.divergence_budget, self.config.max_call_depth)
        return digest.hexdigest()[:16]

    # -- instantiation -------------------------------------------------------------

    def uses_pointers(self) -> bool:
        """Whether any procedure takes an address (``&``) or dereferences
        (``*``) — the precondition check for incremental fingerprints.

        ``copy_value`` transmits pointers by reference, so a pointer
        program can mutate one process's fingerprint from another
        process without touching its dirty counter; such programs fall
        back to full fingerprint recomputation (see
        :mod:`repro.runtime.fingerprint`).
        """
        if self._uses_pointers is None:
            self._uses_pointers = any(
                isinstance(expr, ast.Unary) and expr.op in ("&", "*")
                for cfg in self.cfgs.values()
                for node in cfg.nodes.values()
                for root in (node.target, node.value, node.expr, node.result, *node.args)
                if root is not None
                for expr in ast.walk_expr(root)
            )
        return self._uses_pointers

    def compiled_program(self) -> CompiledProgram | None:
        """The program compiled for the ``"compiled"`` engine, or
        ``None`` when compilation is unsupported (pointer programs fall
        back to the walking engine).  Compiled once per ``System`` and
        cached — compiled procedures are immutable and shared by every
        run and process.
        """
        if self._compiled is None:
            try:
                self._compiled = compile_program(self.cfgs)
            except CompileUnsupported:
                self._compiled = False
        return self._compiled or None

    def resolve_engine(self, engine: str) -> str:
        """The engine a run of this system actually uses: ``engine``,
        except that ``"compiled"`` falls back to ``"walk"`` when the
        program cannot be compiled (see :meth:`compiled_program`)."""
        validate_engine(engine)
        if engine == "compiled" and self.compiled_program() is None:
            return "walk"
        return engine

    def start(self, journal: bool = False, engine: str = "walk", trace: bool = False) -> "Run":
        """Create a fresh run (fresh objects, fresh process steppers).

        With ``journal=True`` the run records an undo entry for every
        state mutation, enabling :meth:`Run.checkpoint` /
        :meth:`Run.restore`.

        ``engine`` selects the process stepper (see
        :mod:`repro.runtime.engine`): ``"walk"`` (the tree-walking
        reference engine) or ``"compiled"`` (CFGs pre-translated to
        Python closures).  When the program cannot be compiled the run
        falls back to the walking engine; :attr:`Run.engine` records
        which engine the run actually uses.

        ``trace=True`` turns on per-process node tracing
        (``enable_trace()`` on every stepper) for coverage collection.
        """
        engine = self.resolve_engine(engine)
        if not self._process_specs:
            raise ObjectError("system has no processes")
        program = self.compiled_program() if engine == "compiled" else None
        journal_obj = UndoJournal() if journal else None
        objects = {name: spec.instantiate() for name, spec in self._object_specs.items()}
        if journal_obj is not None:
            for obj in objects.values():
                obj.journal = journal_obj
        processes = []
        for spec in self._process_specs:
            if program is not None:
                stepper = CompiledEngine(
                    program,
                    spec.proc,
                    spec.args,
                    objects,
                    divergence_budget=self.config.divergence_budget,
                    process_name=spec.name,
                    max_call_depth=self.config.max_call_depth,
                    journal=journal_obj,
                )
            else:
                stepper = Interpreter(
                    self.cfgs,
                    spec.proc,
                    spec.args,
                    objects,
                    divergence_budget=self.config.divergence_budget,
                    process_name=spec.name,
                    max_call_depth=self.config.max_call_depth,
                    journal=journal_obj,
                )
            if trace:
                stepper.enable_trace()
            processes.append(Process(spec.name, stepper))
        fingerprinter = None
        if not self.uses_pointers():
            fingerprinter = RunFingerprinter(processes, list(objects.values()))
        return Run(
            objects,
            processes,
            journal=journal_obj,
            engine=engine,
            fingerprinter=fingerprinter,
        )


@dataclass(frozen=True, slots=True)
class AssertionOutcome:
    """Result of performing one ``VS_assert``."""

    process: str
    proc_name: str
    node_id: int
    violated: bool


class Run:
    """A live instance of a system, driven by a scheduler/explorer."""

    def __init__(
        self,
        objects: dict[str, CommunicationObject],
        processes: list[Process],
        journal: UndoJournal | None = None,
        engine: str = "walk",
        fingerprinter: RunFingerprinter | None = None,
    ):
        self.objects = objects
        self.processes = processes
        #: Name → process, for O(1) scheduler lookups in the search hot loop.
        self.process_map = {process.name: process for process in processes}
        self.journal = journal
        #: The execution engine actually driving this run's processes —
        #: ``"walk"`` even when ``"compiled"`` was requested but the
        #: program could not be compiled (see :mod:`repro.runtime.engine`).
        self.engine = engine
        #: Incremental state-key combiner, attached by :meth:`System.start`
        #: for pointer-free programs; ``None`` makes :meth:`state_key`
        #: recompute the full encoding (still once per call).
        self.fingerprinter = fingerprinter
        self._started = False

    def __reduce__(self):
        raise TypeError(
            "Run instances hold live process state and cannot be "
            "pickled; pickle the System and start a fresh run instead"
        )

    # -- checkpoint / restore ---------------------------------------------------------

    def checkpoint(self) -> RunCheckpoint:
        """Capture a restorable point of this run.

        Requires the run to have been started with ``journal=True``
        (:meth:`System.start`).  Cost is O(total stack depth) — one
        shallow control snapshot per process; value state is covered by
        the journal mark.
        """
        if self.journal is None:
            raise RuntimeError(
                "run was not started with journaling; pass journal=True "
                "to System.start() to enable checkpoints"
            )
        # Accounting-model footprint: a checkpoint tuple plus, per
        # process, its snapshot tuple and one slot per stack entry.
        snapshots = []
        approx_bytes = 96
        for process in self.processes:
            snap = process.snapshot()
            snapshots.append(snap)
            approx_bytes += 112 + 56 * len(snap[3][0])
        snapshots = tuple(snapshots)
        fingerprinter = self.fingerprinter
        return RunCheckpoint(
            mark=self.journal.mark(),
            processes=snapshots,
            approx_bytes=approx_bytes,
            fingerprints=None if fingerprinter is None else fingerprinter.snapshot(),
        )

    def restore(self, checkpoint: RunCheckpoint) -> None:
        """Rewind this run to a :meth:`checkpoint` taken earlier.

        Value state is rewound by the journal (O(changes since)), then
        every process's control state is overwritten from its snapshot.
        The resulting state is bit-identical to re-execution: the same
        ``state_fingerprint()`` over the same live cell/frame objects.
        """
        if self.journal is None:
            raise RuntimeError("run is not journaled; cannot restore")
        self.journal.rewind(checkpoint.mark)
        for process, snap in zip(self.processes, checkpoint.processes):
            process.restore(snap)
        if self.fingerprinter is not None:
            if checkpoint.fingerprints is not None:
                self.fingerprinter.restore(checkpoint.fingerprints)
            else:
                # A checkpoint without a memo (hand-built) still rewound
                # value state under the cache — drop every cached byte.
                self.fingerprinter.invalidate()

    # -- lifecycle ------------------------------------------------------------------

    def start_processes(self) -> None:
        """Run every process's initial invisible prefix.

        May leave some processes in ``NEEDS_TOSS`` if they toss before
        their first visible operation; the scheduler must answer those
        before a global state is reached.
        """
        if self._started:
            raise RuntimeError("run already started")
        self._started = True
        for process in self.processes:
            process.start()

    # -- scheduler interface -----------------------------------------------------------

    def toss_pending(self) -> Process | None:
        """The first process awaiting a toss value, if any.

        Tosses are invisible and local, so answering them in a fixed
        deterministic order loses no behaviours (invisible operations of
        distinct processes commute).
        """
        for process in self.processes:
            if process.status is ProcessStatus.NEEDS_TOSS:
                return process
        return None

    def at_global_state(self) -> bool:
        """All processes stopped at a visible op or blocked forever."""
        return all(
            process.status is ProcessStatus.AT_VISIBLE or process.is_blocked_forever()
            for process in self.processes
        )

    def enabled_processes(self) -> list[Process]:
        """Processes whose next visible operation is currently enabled."""
        return [
            process
            for process in self.processes
            if process.status is ProcessStatus.AT_VISIBLE and process.enabled()
        ]

    def is_deadlock(self) -> bool:
        """A deadlock: some process is still live but nothing is enabled.

        A state where *every* process terminated normally is not a
        deadlock.
        """
        if not self.at_global_state():
            return False
        if self.enabled_processes():
            return False
        return any(
            process.status is ProcessStatus.AT_VISIBLE for process in self.processes
        )

    def all_terminated(self) -> bool:
        return all(
            process.status is ProcessStatus.TERMINATED for process in self.processes
        )

    def execute_visible(self, process: Process) -> AssertionOutcome | None:
        """Execute ``process``'s pending visible operation.

        The caller must have checked enabledness.  Returns the assertion
        outcome when the operation was a ``VS_assert``.
        """
        request = process.visible_request
        if request is None:
            raise RuntimeError(f"process {process.name!r} has no pending visible op")
        outcome = None
        if request.obj is None:
            # VS_assert: evaluate the (already computed) subject.
            subject = request.args[0]
            violated = _assert_violated(subject)
            outcome = AssertionOutcome(
                process=process.name,
                proc_name=request.proc_name,
                node_id=request.node_id,
                violated=violated,
            )
            result = None
        else:
            if not request.obj.enabled(request.op):
                raise RuntimeError(
                    f"visible op {request.op!r} on {request.obj.name!r} is not enabled"
                )
            result = request.obj.perform(request.op, request.args)
        process.resume(result)
        return outcome

    def answer_toss(self, process: Process, value: int) -> None:
        request = process.toss_request
        if request is None:
            raise RuntimeError(f"process {process.name!r} is not awaiting a toss")
        if not (0 <= value <= request.bound):
            raise ValueError(f"toss value {value} outside 0..{request.bound}")
        process.resume(value)

    # -- state inspection ------------------------------------------------------------

    def state_fingerprint(self) -> Any:
        """Hashable global-state snapshot (processes + objects)."""
        return (
            tuple(process.state_fingerprint() for process in self.processes),
            tuple(obj.state_fingerprint() for obj in self.objects.values()),
        )

    def state_key(self) -> bytes:
        """The canonical byte key of the current global state.

        Bit-identical to ``encode_canonical(self.state_fingerprint())``
        always; computed incrementally (O(components changed since the
        last call)) when :meth:`System.start` attached a fingerprinter,
        i.e. for every pointer-free program.  This is the *single* key
        shared by seen-state dedup, the statespace stores and the
        frontier codec — compute it once per state.
        """
        fingerprinter = self.fingerprinter
        if fingerprinter is None:
            return encode_canonical(self.state_fingerprint())
        return fingerprinter.key()

    def env_outputs(self, sink_name: str) -> list[Any]:
        """The recorded output trace of an :class:`EnvSink`."""
        sink = self.objects.get(sink_name)
        if not isinstance(sink, EnvSink):
            raise ObjectError(f"{sink_name!r} is not an environment sink")
        return list(sink.outputs)


def _assert_violated(subject: Any) -> bool:
    from .values import TOP

    if subject is TOP:
        # A non-preserved assertion (its subject was erased by the closing
        # transformation): vacuously passes — Theorem 7 only promises
        # preservation for assertions whose subject survives.
        return False
    if isinstance(subject, bool):
        return not subject
    if isinstance(subject, int):
        return subject == 0
    # Any non-boolean, non-int subject counts as a violation: asserting on
    # a record/pointer is almost certainly a bug in the checked program.
    return True
