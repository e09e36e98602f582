"""Chase results: the produced instance plus timestamps and provenance.

The Section 5 machinery needs more than the final atom set:

* ``TS(t)`` — the timestamp of a chase term (Definition 34): the first
  chase level at which ``t`` appears;
* the *frontier* of a chase term — ``h(fr(ρ))`` for the trigger that
  created it (Section 2.2);
* the creating trigger itself (used by the executable peak-removing
  argument, Lemma 40).

:class:`ChaseResult` records all of this, exposes the level-indexed
prefixes ``Ch_k`` and timestamp multisets ``TS_m``.
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
from repro.chase.trigger import Trigger


@dataclass(frozen=True)
class CreationRecord:
    """Provenance of one trigger application."""

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
        self._initial_domain: frozenset[Term] = frozenset(
            initial.active_domain()
        )

    # ------------------------------------------------------------------
    # Recording (used by the chase engines)
    # ------------------------------------------------------------------

    def record_application(
        self,
        trigger: Trigger,
        level: int,
        created_nulls: Iterable[Null],
        output_atoms: Iterable[Atom],
    ) -> int:
        """Record one trigger application; return the number of new atoms."""
        atoms = frozenset(output_atoms)
        record = CreationRecord(
            trigger=trigger,
            level=level,
            created_nulls=tuple(sorted(created_nulls)),
            output_atoms=atoms,
        )
        self._records.append(record)
        new_count = 0
        for null in record.created_nulls:
            self._creation[null] = record
            self._term_timestamp.setdefault(null, level)
        for atom in atoms:
            if self.instance.add(atom):
                new_count += 1
                self._atom_level[atom] = level
                for term in atom.args:
                    self._term_timestamp.setdefault(term, level)
        return new_count

    def record_round(
        self,
        applications: Iterable[tuple],
        level: int,
        max_atoms: int,
    ) -> tuple[int, bool]:
        """Record a whole round of applications in one amortized pass.

        ``applications`` yields
        ``(trigger, (output_atoms, existential_map))`` pairs in canonical
        firing order, as produced by :func:`repro.engine.batch.fire_round`
        — the recording path of every
        :class:`~repro.engine.runner.ChaseRunner` round that is not
        interleaved.
        Equivalent to calling :meth:`record_application` per pair with a
        budget check after each one — the provenance structures are simply
        bound once per round instead of once per application.  Returns
        ``(applications_recorded, budget_exceeded)``; on a budget hit the
        iterable is not pulled further, so lazily instantiated outputs
        (and their fresh nulls) stop exactly where the sequential engines
        stop.

        While a round is traced (:func:`repro.obs.trace.active_round`),
        the recording body of each pair is timed into the round's
        ``record`` phase; pulling the lazy stream — claims and head
        instantiation — stays outside the timer and lands on the phases
        the producer attributes (``gate``) or the outer ``fire`` phase.
        """
        recorder = active_round()
        perf = time.perf_counter
        records = self._records
        creation = self._creation
        timestamps = self._term_timestamp
        atom_level = self._atom_level
        instance = self.instance
        add = instance.add
        applied = 0
        for trigger, (output_atoms, existential_map) in applications:
            if recorder is not None:
                start = perf()
            atoms = frozenset(output_atoms)
            record = CreationRecord(
                trigger=trigger,
                level=level,
                created_nulls=tuple(sorted(existential_map.values())),
                output_atoms=atoms,
            )
            records.append(record)
            for null in record.created_nulls:
                creation[null] = record
                timestamps.setdefault(null, level)
            for atom in atoms:
                if add(atom):
                    atom_level[atom] = level
                    for term in atom.args:
                        timestamps.setdefault(term, level)
            applied += 1
            exceeded = len(instance) > max_atoms
            if recorder is not None:
                recorder.add_phase("record", perf() - start)
            if exceeded:
                return applied, True
        return applied, False

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
        """True for terms created by the chase (not in the initial adom)."""
        return term in self._term_timestamp and term not in self._initial_domain

    def creation_of(self, term: Term) -> CreationRecord:
        """The trigger application that created ``term``."""
        if not isinstance(term, Null) or term not in self._creation:
            raise ProvenanceError(f"{term} is not a chase-created term")
        return self._creation[term]

    def frontier_of(self, term: Term) -> set[Term]:
        """The frontier of a chase term: ``h(fr(ρ))`` of its creator."""
        return self.creation_of(term).frontier_terms()

    def records(self) -> tuple[CreationRecord, ...]:
        """All trigger applications in order."""
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
        return {
            t
            for t in self._term_timestamp
            if t not in self._initial_domain
        }

    def statistics(self) -> dict[str, int]:
        """Summary counters for reporting."""
        return {
            "atoms": len(self.instance),
            "terms": len(self._term_timestamp),
            "chase_terms": len(self.chase_terms()),
            "levels": self.levels_completed,
            "trigger_applications": len(self._records),
        }
