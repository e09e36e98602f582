"""Chase results: the produced instance plus timestamps and provenance.

The Section 5 machinery needs more than the final atom set:

* ``TS(t)`` — the timestamp of a chase term (Definition 34): the first
  chase level at which ``t`` appears;
* the *frontier* of a chase term — ``h(fr(ρ))`` for the trigger that
  created it (Section 2.2);
* the creating trigger itself (used by the executable peak-removing
  argument, Lemma 40).

All three read only *creating* applications: those that add an atom.
:class:`ChaseResult` keeps a :class:`CreationRecord` for exactly those
(every application that draws a null is one) and counts the rest; it
exposes the level-indexed prefixes ``Ch_k`` and timestamp multisets
``TS_m``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from repro.datastructures.multiset import Multiset
from repro.obs.trace import active_round
from repro.errors import ProvenanceError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.terms import Null, Term
from repro.rules.rule import INSTANTIATION_STATS
from repro.chase.trigger import CountedImages, Trigger


@dataclass(frozen=True)
class CreationRecord:
    """Provenance of one creating trigger application: one that added at
    least one atom.  ``output_atoms`` is its whole output, atoms that
    were already present included."""

    trigger: Trigger
    level: int
    created_nulls: tuple[Null, ...]
    output_atoms: frozenset[Atom]

    def frontier_terms(self) -> set[Term]:
        """The frontier of every null this application created: ``h(fr(ρ))``."""
        return set(self.trigger.frontier_image().values())


class ChaseResult:
    """The (possibly partial) result of a chase run.

    Attributes
    ----------
    instance:
        All atoms produced up to the last completed level.
    levels_completed:
        The largest ``k`` such that this result contains ``Ch_k`` exactly.
    terminated:
        True when the chase reached a fixpoint (no new triggers), i.e. the
        result is the full ``Ch(I, R)``.
    stopped_on_goal:
        True when the run ended early because the policy's
        ``round_complete`` hook reported its goal witnessed (the serving
        layer's goal-directed entailment).  The instance is then a sound
        chase prefix — ``terminated`` stays False unless the goal round
        happened to also be the fixpoint.
    telemetry:
        ``None`` unless the run was executed by a
        :class:`~repro.engine.runner.ChaseRunner`, which attaches a
        telemetry snapshot: the schema version plus the
        :func:`repro.obs.default_registry` counter deltas scoped to the
        run (see :mod:`repro.obs`).
    """

    def __init__(self, initial: Instance):
        self.instance: Instance = initial.copy()
        self.levels_completed: int = 0
        self.terminated: bool = False
        self.stopped_on_goal: bool = False
        self.telemetry: dict | None = None
        self._atom_level: dict[Atom, int] = {a: 0 for a in initial}
        self._term_timestamp: dict[Term, int] = {
            t: 0 for t in initial.active_domain()
        }
        self._creation: dict[Null, CreationRecord] = {}
        self._records: list[CreationRecord] = []
        self._applications: int = 0

    # ------------------------------------------------------------------
    # Recording (used by the chase engines)
    # ------------------------------------------------------------------

    def record_round(
        self,
        applications: Iterable[tuple],
        level: int,
        max_atoms: int,
        counted: CountedImages | None = None,
    ) -> tuple[int, bool]:
        """Record a round's applications, pulling them one at a time.

        ``applications`` yields
        ``(trigger, (output_atoms, existential_map))`` pairs in canonical
        firing order — the lazy claim/output stream every
        :class:`~repro.engine.runner.ChaseRunner` round fires through.
        Each pair is applied, and the atom budget checked, before the
        next one is pulled, so a claim evaluated by the stream sees every
        earlier application of the round.  ``level`` is the round's
        number, at least 1: the initial terms alone have timestamp 0.
        Every application is counted; a :class:`CreationRecord` is kept
        only for one that adds an atom.  Returns
        ``(applications, budget_exceeded)``; on a budget hit the iterable
        is not pulled further, so no later trigger is claimed or
        instantiated and no further null is drawn.

        ``counted`` holds the round's applications that add no atom and
        never enter the stream (an oblivious round's pruned images,
        :class:`~repro.chase.trigger.CountedImages`).  Each counts as one
        application and one head instantiation, the ones that precede
        the budget stop in canonical order only: a stop at a trigger
        counts those before it, and a round that starts over the budget
        stops at its first application, which may be one of them.

        While a round is traced (:func:`repro.obs.trace.active_round`),
        the recording body of each pair is timed into the round's
        ``record`` phase; pulling the lazy stream — claims and head
        instantiation — stays outside the timer and lands on ``gate``
        (the runner times claims) or the outer ``fire`` phase.
        """
        recorder = active_round()
        perf = time.perf_counter
        records = self._records
        creation = self._creation
        timestamps = self._term_timestamp
        atom_level = self._atom_level
        instance = self.instance
        add = instance.add
        size = len(instance)
        applied = 0
        unfired = 0  # the counted applications the round reached
        try:
            if counted and size > max_atoms and counted.leads():
                unfired = 1
                return unfired, True
            for trigger, (output_atoms, existential_map) in applications:
                if recorder is not None:
                    start = perf()
                applied += 1
                atoms = frozenset(output_atoms)
                before = size
                for atom in atoms:
                    if add(atom):
                        size += 1
                        atom_level[atom] = level
                        for term in atom.args:
                            timestamps.setdefault(term, level)
                if size > before:
                    # Every created null lies in an added atom, which
                    # gave it its timestamp.
                    record = CreationRecord(
                        trigger=trigger,
                        level=level,
                        created_nulls=tuple(sorted(existential_map.values())),
                        output_atoms=atoms,
                    )
                    records.append(record)
                    for null in record.created_nulls:
                        creation[null] = record
                if recorder is not None:
                    recorder.add_phase("record", perf() - start)
                if size > max_atoms:
                    if counted:
                        unfired = counted.preceding(trigger)
                    return applied + unfired, True
            unfired = len(counted) if counted is not None else 0
            return applied + unfired, False
        finally:
            self._applications += applied + unfired
            INSTANTIATION_STATS.heads += unfired

    # ------------------------------------------------------------------
    # Timestamps (Definition 34)
    # ------------------------------------------------------------------

    def timestamp(self, term: Term) -> int:
        """``TS(t)``: the first level at which ``t`` appears."""
        try:
            return self._term_timestamp[term]
        except KeyError:
            raise ProvenanceError(f"term {term} never appeared in this chase")

    def timestamp_multiset(self, terms: Iterable[Term]) -> Multiset[int]:
        """``TS_m(T)``: the multiset of timestamps of ``terms``."""
        return Multiset(self.timestamp(t) for t in terms)

    def atoms_timestamp_multiset(self, atoms: Iterable[Atom]) -> Multiset[int]:
        """``TS_m`` over the active domain of an atom set."""
        domain: set[Term] = set()
        for atom in atoms:
            domain.update(atom.args)
        return self.timestamp_multiset(domain)

    def atom_level(self, atom: Atom) -> int:
        """The level at which ``atom`` first appeared."""
        try:
            return self._atom_level[atom]
        except KeyError:
            raise ProvenanceError(f"atom {atom} never appeared in this chase")

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------

    def is_chase_term(self, term: Term) -> bool:
        """True for terms created by the chase (not in the initial adom):
        exactly the terms with a timestamp above 0."""
        return self._term_timestamp.get(term, 0) > 0

    def creation_of(self, term: Term) -> CreationRecord:
        """The trigger application that created ``term``."""
        if not isinstance(term, Null) or term not in self._creation:
            raise ProvenanceError(f"{term} is not a chase-created term")
        return self._creation[term]

    def frontier_of(self, term: Term) -> set[Term]:
        """The frontier of a chase term: ``h(fr(ρ))`` of its creator."""
        return self.creation_of(term).frontier_terms()

    def records(self) -> tuple[CreationRecord, ...]:
        """The creating trigger applications, in firing order.

        Each added at least one atom, and every atom above level 0 was
        added by exactly one of them.  Applications that added nothing
        are only counted (``statistics()["trigger_applications"]``).
        """
        return tuple(self._records)

    # ------------------------------------------------------------------
    # Level-indexed views
    # ------------------------------------------------------------------

    def prefix(self, level: int) -> Instance:
        """Return ``Ch_level``: the atoms that appeared at level ≤ ``level``."""
        return Instance(
            (a for a, l in self._atom_level.items() if l <= level),
            add_top=False,
        )

    def new_atoms_at(self, level: int) -> set[Atom]:
        """The atoms first appearing exactly at ``level``."""
        return {a for a, l in self._atom_level.items() if l == level}

    def chase_terms(self) -> set[Term]:
        """All terms created by the chase (Definition: adom(Ch) \\ adom(I))."""
        return {t for t, ts in self._term_timestamp.items() if ts > 0}

    def statistics(self) -> dict[str, int]:
        """Summary counters for reporting; ``trigger_applications``
        counts every application, creating or not, the oblivious chase's
        pruned images included (counted without passing through the
        firing stream, :meth:`record_round`)."""
        return {
            "atoms": len(self.instance),
            "terms": len(self._term_timestamp),
            "chase_terms": len(self.chase_terms()),
            "levels": self.levels_completed,
            "trigger_applications": self._applications,
        }
