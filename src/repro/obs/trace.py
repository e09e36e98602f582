"""Per-round chase trace events: phase timers, counts, JSONL sink.

One :class:`RunTrace` describes one :class:`~repro.engine.runner.ChaseRunner`
run as a header (``meta``), one structured record per round, and a final
summary.  The runner owns the lifecycle — it opens a
:class:`RoundRecorder` per round, the engine layers feed it through the
module-level *active-recorder stack* (:func:`active_round`), and the
runner closes the round with its counts and byte deltas.  A rewriting
traces the same way: :func:`repro.rewriting.rewriter.rewrite` opens and
closes one round per breadth level itself.  Each
instrumented loop has one body for traced and untraced rounds: it times
only while a recorder is active (:func:`timed` for whole blocks), so
with no trace attached every instrumentation site reduces to an
``is None`` check and makes no ``perf_counter`` call.

Phase attribution
-----------------
Each round record carries six wall-clock phases (``time.perf_counter``):

``enumerate``
    Trigger enumeration (or the derivation sweep of a saturate round),
    minus any inner phase recorded during it.
``gate``
    Claim-gate evaluation: frontier-class dedup, satisfaction checks.
``fire``
    Head instantiation and the firing stream's own work — always in the
    parent, whichever backend enumerated the round — minus the inner
    gate/record time recorded during it.
``record``
    Provenance recording — the body of
    :meth:`~repro.chase.result.ChaseResult.record_round`, excluding the
    lazy stream pulls it drives (those are firing work and stay in
    ``fire``, or in ``gate`` for the claims).
``sync``
    Replica synchronization payload preparation in the persistent pool
    (per-round ``delta_since`` + wire encoding, seed included).
``probe``
    The post-round goal probe (the policy's ``round_complete`` hook —
    the serving layer's goal-directed entailment check).

The *outer* phases (``enumerate``, ``fire``, ``probe``) are measured
disjointly by :meth:`RoundRecorder.outer_phase`: elapsed wall-clock minus
whatever inner phase time accumulated during the block, clamped at zero —
so the six phases of a record never double-count one second of work.

A round's ``triggers`` count is what the enumeration handed to the
firing path.  For the restricted chase that is the candidates *after*
ground-head pruning (existential-free triggers whose head was present at
round start, or repeated a smaller image's head, are never built — see
:func:`repro.chase.trigger.round_triggers`), so on a pure
Datalog round ``triggers == applied``; the unpruned ``naive`` engine
counts every new trigger.  The oblivious chase prunes the same triggers
but counts each as an application that adds nothing
(:class:`repro.chase.trigger.CountedImages`), so its ``triggers`` and
``applied`` count them too, as firing them would.

Trace records deliberately separate deterministic fields (counts, plan,
routing weights, byte deltas — bit-stable for a given engine
configuration, and counts/plan across the whole engine × workers
equivalence matrix) from wall-clock fields (the phase timers),
mirroring the byte-vs-wall-clock split of the ``BENCH_*.json`` artifacts.

JSONL layout (``RunTrace.to_jsonl``): one ``{"type": "run"}`` header
line with the schema version and run meta, one ``{"type": "round"}``
line per round, and a ``{"type": "summary"}`` footer once the run
finished.  ``tools/trace_summary.py`` renders the phase breakdown table
from such a file.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator

#: Bumped when the shape of run/round/summary records changes.
TRACE_SCHEMA_VERSION = 1

#: The six phases of every round record, in reporting order.
PHASES = ("enumerate", "gate", "fire", "record", "sync", "probe")

#: The active-recorder stack: the engine layers report phase time to its
#: top.  A list (not a single slot) so nested runs — a chase started from
#: inside another run's round — each see their own recorder.
_ACTIVE: list["RoundRecorder"] = []


def active_round() -> "RoundRecorder | None":
    """The recorder of the innermost round being traced, if any.

    The one hook the engine layers call; when no trace is attached it
    costs a truthiness check on an empty list.
    """
    return _ACTIVE[-1] if _ACTIVE else None


#: What :func:`timed` hands out while no round is traced (reusable).
_UNTIMED = nullcontext()


def timed(recorder: "RoundRecorder | None", name: str) -> ContextManager:
    """``recorder.outer_phase(name)``, or a no-op context without one.

    Lets one loop body serve traced and untraced rounds alike: an
    untraced round makes no ``perf_counter`` call.
    """
    return _UNTIMED if recorder is None else recorder.outer_phase(name)


class RoundRecorder:
    """Accumulates one round's phase timers and routing facts."""

    __slots__ = ("number", "phases", "plan", "delta_atoms", "shard_weights")

    def __init__(self, number: int):
        self.number = number
        self.phases: dict[str, float] = dict.fromkeys(PHASES, 0.0)
        #: "batched" (a fired chase round) | "derive" (a closure round) |
        #: "expand" (a rewriting level); set by the loop that opened the
        #: round (the runner, or the rewriter's breadth loop).
        self.plan: str | None = None
        #: Size of the round's enumeration delta (None on the naive engine).
        self.delta_atoms: int | None = None
        #: Per-worker wire id weights routed this round (the worker pool).
        self.shard_weights: tuple[int, ...] | None = None

    def add_phase(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to a phase timer (negative clamps to zero)."""
        if seconds > 0.0:
            self.phases[name] += seconds

    @contextmanager
    def outer_phase(self, name: str) -> Iterator[None]:
        """Time a block, excluding inner phase time recorded during it.

        ``enumerate`` wraps the enumeration (which nests ``sync``),
        ``fire`` wraps the whole firing path (which nests ``gate`` and
        ``record``), ``probe`` wraps the post-round goal
        probe.  The attributed time is
        ``elapsed - inner_delta``, clamped at zero, so the six phases
        stay disjoint.
        """
        perf = time.perf_counter
        inner_before = sum(self.phases.values())
        start = perf()
        try:
            yield
        finally:
            elapsed = perf() - start
            inner = sum(self.phases.values()) - inner_before
            self.add_phase(name, elapsed - inner)


class RunTrace:
    """One run's trace: meta header, round records, summary footer."""

    def __init__(self, meta: dict | None = None):
        self.schema_version = TRACE_SCHEMA_VERSION
        self.meta: dict = dict(meta or {})
        self.rounds: list[dict] = []
        self.summary: dict | None = None

    # ------------------------------------------------------------------
    # Recording (driven by ChaseRunner and the rewriter's breadth loop)
    # ------------------------------------------------------------------

    def begin_run(self, **meta) -> None:
        """Merge the run's engine/budget facts into the header."""
        self.meta.update(meta)

    def begin_round(self, number: int) -> RoundRecorder:
        """Open round ``number`` and make its recorder the active one."""
        recorder = RoundRecorder(number)
        _ACTIVE.append(recorder)
        return recorder

    def end_round(self, recorder: RoundRecorder, **fields) -> dict:
        """Close a round: pop the recorder, append its record.

        ``fields`` carries the runner-side facts (trigger/application
        counts, new-atom counts, transport and worker-time deltas).
        """
        if recorder in _ACTIVE:  # tolerate exceptional unwinds
            _ACTIVE.remove(recorder)
        record: dict = {
            "type": "round",
            "round": recorder.number,
            "plan": recorder.plan,
            "phases": dict(recorder.phases),
            "delta_atoms": recorder.delta_atoms,
            "shard_weights": (
                list(recorder.shard_weights)
                if recorder.shard_weights is not None
                else None
            ),
        }
        record.update(fields)
        self.rounds.append(record)
        return record

    def finish_run(self, **summary) -> None:
        self.summary = {"type": "summary", **summary}

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------

    def _header(self) -> dict:
        return {
            "type": "run",
            "schema_version": self.schema_version,
            "meta": self.meta,
        }

    def to_jsonl(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the trace as JSON Lines; returns the written path."""
        path = pathlib.Path(path)
        if path.parent != pathlib.Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(self._header(), sort_keys=True)]
        lines.extend(json.dumps(record, sort_keys=True) for record in self.rounds)
        if self.summary is not None:
            lines.append(json.dumps(self.summary, sort_keys=True))
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def from_jsonl(cls, path: str | pathlib.Path) -> "RunTrace":
        """Read a trace back from :meth:`to_jsonl` output."""
        trace = cls()
        for line in pathlib.Path(path).read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "run":
                trace.schema_version = record.get(
                    "schema_version", TRACE_SCHEMA_VERSION
                )
                trace.meta = dict(record.get("meta", {}))
            elif kind == "round":
                trace.rounds.append(record)
            elif kind == "summary":
                trace.summary = record
        return trace

    def summary_table(self) -> str:
        """A human phase-time breakdown: one row per round plus totals."""
        from repro.io.text import format_table

        headers = ["round", "plan", "triggers", "applied", "new"] + [
            f"{phase} ms" for phase in PHASES
        ]
        rows: list[tuple] = []
        totals = dict.fromkeys(PHASES, 0.0)
        applied_total = 0
        new_total = 0
        for record in self.rounds:
            phases = record.get("phases", {})
            for phase in PHASES:
                totals[phase] += phases.get(phase, 0.0)
            applied = record.get("applied")
            new_atoms = record.get("new_atoms")
            applied_total += applied or 0
            new_total += new_atoms or 0
            rows.append(
                (
                    record.get("round"),
                    record.get("plan") or "-",
                    _count(record.get("triggers")),
                    _count(applied),
                    _count(new_atoms),
                    *(f"{phases.get(phase, 0.0) * 1e3:.3f}" for phase in PHASES),
                )
            )
        rows.append(
            (
                "total",
                "-",
                "-",
                applied_total,
                new_total,
                *(f"{totals[phase] * 1e3:.3f}" for phase in PHASES),
            )
        )
        title = " ".join(
            str(self.meta[key])
            for key in ("variant", "engine")
            if key in self.meta
        )
        return format_table(headers, rows, title=title or "chase trace")


def _count(value) -> object:
    return "-" if value is None else value
