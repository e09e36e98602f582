"""Columnar id-native instances: one encoding from wire to store.

A :class:`ColumnarInstance` keeps atoms as flat integer rows over a
shared symbol vocabulary, in exactly the id space of
:mod:`repro.engine.wire`.  It is the worker pool's replica type — packed
seed and sync buffers fold straight into rows, no ``Atom`` decoded — and
the join kernel's *id view* of an object
:class:`~repro.logic.instances.Instance`.

Layout
------
One :class:`Vocabulary` maps ids to term/predicate objects and back.
It is the only symbol table in the engine, in three roles: the pool's
wire tables in the parent (grown by interning what the pool ships, cut
into per-worker table segments by :meth:`Vocabulary.segment`), a
worker's replica of them (grown only through the segments the parent
ships, :meth:`Vocabulary.apply_segment`), and an id view's own tables.
Per predicate id the store keeps

* its *table*, in the one layout of the id join
  (:func:`~repro.logic.homomorphisms.append_row`, which builds it): the
  rows — term-id tuples — in append order, and per argument position a
  bucket dict ``term_id -> rows``, mirroring the object instance's
  most-selective candidate seeding;
* a row set of the same tuples for O(1) membership.

Both share one tuple object per row.

Id joins only
-------------
The store has no ``Atom``-facing API: every delta round's matcher, the
delta core's join kernel (:mod:`repro.engine.core`), runs the id join
(:func:`~repro.logic.homomorphisms.run_plan`) on
:attr:`ColumnarInstance.tables` and tests heads against
:meth:`ColumnarInstance.row_set`, comparing integers.  The object
matcher's atom ordering (``_order_atoms``) reads only
:meth:`ColumnarInstance.count`.  Row order is interning order and
carries no meaning: nothing may be sorted or tie-broken on ids.

Columnar instances are append-only, as every instance is: the chase
never retracts an atom.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine import wire
from repro.errors import ChaseError
from repro.logic.atoms import Atom, build_atom
from repro.logic.homomorphisms import append_row
from repro.logic.predicates import Predicate
from repro.logic.terms import Term, term_from_wire

_EMPTY_ROWS: frozenset[tuple[int, ...]] = frozenset()


class Vocabulary:
    """A live, append-only id ↔ object table of terms and predicates.

    Four containers — terms, term ids, predicates, predicate ids —
    starting empty and held by reference, so a columnar instance keyed
    on the vocabulary sees every symbol the tables learn later, with no
    copies and no synchronization.  The pool's parent-side tables grow
    through :meth:`intern_term`, :meth:`intern_predicate` and
    :meth:`intern_atom` (:func:`repro.engine.wire.encode_atoms`) and ship
    as :meth:`segment` cuts; a worker's vocabulary grows only through
    :meth:`apply_segment`; an id view's through :meth:`intern_atom`.
    :meth:`atoms` is the way back, for the new heads of a derive round.
    """

    __slots__ = ("terms", "term_ids", "predicates", "predicate_ids")

    def __init__(self):
        self.terms: list[Term] = []
        self.term_ids: dict[Term, int] = {}
        self.predicates: list[Predicate] = []
        self.predicate_ids: dict[Predicate, int] = {}

    def marks(self) -> tuple[int, int]:
        """The current table sizes ``(terms, predicates)``: a worker's
        high-water mark once it has replayed everything up to here."""
        return (len(self.terms), len(self.predicates))

    def segment(self, term_mark: int, pred_mark: int):
        """The entries appended since the marks, as a table segment for
        :meth:`apply_segment`: terms as ``(rank, name)`` (the rank
        indexes :data:`repro.logic.terms.TERM_KINDS`), predicates as
        ``(name, arity)``.  ``None`` when the marks are current."""
        terms = self.terms
        predicates = self.predicates
        if term_mark == len(terms) and pred_mark == len(predicates):
            return None
        return (
            term_mark,
            tuple([(term._rank, term.name) for term in terms[term_mark:]]),
            pred_mark,
            tuple([(p.name, p.arity) for p in predicates[pred_mark:]]),
        )

    def apply_segment(self, segment) -> None:
        """Replay one wire table segment (``None``: nothing new).

        Segments must arrive in message order; one that does not start
        at the current table sizes raises
        :class:`~repro.errors.ChaseError`.
        """
        if segment is None:
            return
        term_start, term_specs, pred_start, pred_specs = segment
        if term_start != len(self.terms) or pred_start != len(self.predicates):
            raise ChaseError(
                "wire table segment out of sequence: worker at "
                f"({len(self.terms)}, {len(self.predicates)}), segment "
                f"starts at ({term_start}, {pred_start})"
            )
        for rank, name in term_specs:
            self.intern_term(term_from_wire(rank, name))
        for name, arity in pred_specs:
            self.intern_predicate(Predicate(name, arity))

    def intern_term(self, term: Term) -> int:
        """``term``'s id, appending it when new."""
        term_id = self.term_ids.get(term)
        if term_id is None:
            term_id = self.term_ids[term] = len(self.terms)
            self.terms.append(term)
        return term_id

    def intern_predicate(self, predicate: Predicate) -> int:
        """``predicate``'s id, appending it when new."""
        pred_id = self.predicate_ids.get(predicate)
        if pred_id is None:
            pred_id = self.predicate_ids[predicate] = len(self.predicates)
            self.predicates.append(predicate)
        return pred_id

    def intern_atom(self, atom: Atom) -> tuple[int, tuple[int, ...]]:
        """``atom`` as ``(pred_id, term_ids)``, interning new symbols.

        :meth:`intern_predicate`, then :meth:`intern_term` per argument,
        inlined: every atom the chase adds reaches an id view here.
        Never on a worker's vocabulary, which grows only by segments.
        """
        predicate = atom.predicate
        pred_id = self.predicate_ids.get(predicate)
        if pred_id is None:
            pred_id = self.predicate_ids[predicate] = len(self.predicates)
            self.predicates.append(predicate)
        term_ids = self.term_ids
        terms = self.terms
        ids = []
        for term in atom.args:
            term_id = term_ids.get(term)
            if term_id is None:
                term_id = term_ids[term] = len(terms)
                terms.append(term)
            ids.append(term_id)
        return pred_id, tuple(ids)

    def atoms(self, rows: Iterable[tuple[int, tuple[int, ...]]]) -> set[Atom]:
        """One ``Atom`` per id row ``(pred_id, term_ids)`` — the inverse
        of :meth:`intern_atom` — built through the cached-hash fast path
        :func:`~repro.logic.atoms.build_atom`."""
        predicates = self.predicates
        term = self.terms.__getitem__
        return {
            build_atom(predicates[pred_id], tuple(map(term, term_ids)))
            for pred_id, term_ids in rows
        }


class ColumnarInstance:
    """An append-only id-native atom store over a shared vocabulary.

    See the module docstring for the layout.  ``add_row`` and
    ``ingest_packed`` are how rows arrive; ``tables`` and ``row_set`` are
    what the join kernel reads, and ``count`` what the kernel's atom
    ordering reads.
    """

    __slots__ = ("_vocabulary", "_tables", "_row_sets")

    def __init__(self, vocabulary: Vocabulary):
        self._vocabulary = vocabulary
        # pred_id -> its table: term-id row tuples in append order, and
        # per position term_id -> the rows with term_id there.
        self._tables: dict[int, tuple[list, tuple[dict, ...]]] = {}
        # pred_id -> the same rows as a set (membership + dedup).
        self._row_sets: dict[int, set[tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # Id-native access and mutation
    # ------------------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    def row_set(self, pred_id: int) -> "set[tuple[int, ...]] | frozenset":
        """The rows over ``pred_id`` as a set (live; read-only)."""
        return self._row_sets.get(pred_id, _EMPTY_ROWS)

    @property
    def tables(self) -> dict[int, tuple[list, tuple[dict, ...]]]:
        """``pred_id -> table`` in the layout of
        :func:`~repro.logic.homomorphisms.append_row` (live; read-only)."""
        return self._tables

    def add_row(self, pred_id: int, term_ids: tuple[int, ...]) -> bool:
        """Append one row; return True when it was new."""
        rows = self._row_sets.get(pred_id)
        if rows is None:
            rows = self._row_sets[pred_id] = set()
        if term_ids in rows:
            return False
        rows.add(term_ids)
        append_row(self._tables, pred_id, term_ids)
        return True

    def ingest_packed(self, data: bytes) -> int:
        """Fold one wire-format atom buffer in; return the new-row count.

        The buffer is ``(pred_id, term_ids...)`` per atom, parsed into id
        rows by :func:`~repro.engine.wire.unpack_rows` (no ``Atom`` is
        built).  Duplicate rows are dropped.
        """
        add_row = self.add_row
        grouped = wire.unpack_rows(data, self._vocabulary.predicates)
        return sum(
            add_row(pred_id, row)
            for pred_id, rows in grouped.items()
            for row in rows
        )

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._row_sets.values())

    def count(self, predicate: Predicate) -> int:
        pred_id = self._vocabulary.predicate_ids.get(predicate)
        return len(self._row_sets.get(pred_id, _EMPTY_ROWS))
