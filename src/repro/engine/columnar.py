"""Columnar id-native instances: one encoding from wire to store.

A :class:`ColumnarInstance` keeps atoms as flat integer rows over a
shared symbol vocabulary, in exactly the id space of
:mod:`repro.engine.wire`.  It is the worker pool's replica type — packed
seed and sync buffers fold straight into rows, no ``Atom`` decoded — and
the join kernel's *id view* of an object
:class:`~repro.logic.instances.Instance`.

Layout
------
One :class:`Vocabulary` maps ids to term/predicate objects and back: a
worker's replica of the pool's symbol tables, grown only through the
table segments the parent ships (:meth:`Vocabulary.apply_segment`), or
an id view's own tables.  Per predicate id the store keeps

* its *rows* — term-id tuples, in append order,
* a row set of the same tuples for O(1) membership,
* an id-level positional index ``(pred_id, position, term_id) -> rows``
  mirroring the object instance's most-selective candidate seeding.

The three share one tuple object per row.

Id joins only
-------------
The store has no ``Atom``-facing API: every delta round's matcher, the
delta core's join kernel (:mod:`repro.engine.core`), walks the rows
through :meth:`ColumnarInstance.rows`, the positional index and
:meth:`ColumnarInstance.row_set` directly, comparing integers.  The
object matcher's atom ordering (``_order_atoms``) reads only
:meth:`ColumnarInstance.count`.  Row order is interning order and
carries no meaning: nothing may be sorted or tie-broken on ids.

Columnar instances are append-only (the chase never retracts);
``discard`` has no columnar counterpart by design.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine import wire
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.predicates import Predicate
from repro.logic.terms import Term, term_from_wire

_EMPTY_ROWS: frozenset[tuple[int, ...]] = frozenset()


class Vocabulary:
    """A live id ↔ object view over one set of symbol tables.

    Four containers — terms, term ids, predicates, predicate ids —
    starting empty and held by reference, so a columnar instance keyed
    on the vocabulary sees every symbol the tables learn later, with no
    copies and no synchronization.  A worker's vocabulary grows only
    through :meth:`apply_segment`; an id view's through
    :meth:`intern_atom`.
    """

    __slots__ = ("terms", "term_ids", "predicates", "predicate_ids")

    def __init__(self):
        self.terms: list[Term] = []
        self.term_ids: dict[Term, int] = {}
        self.predicates: list[Predicate] = []
        self.predicate_ids: dict[Predicate, int] = {}

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
            term = term_from_wire(rank, name)
            self.term_ids[term] = len(self.terms)
            self.terms.append(term)
        for name, arity in pred_specs:
            predicate = Predicate(name, arity)
            self.predicate_ids[predicate] = len(self.predicates)
            self.predicates.append(predicate)

    def intern_atom(self, atom: Atom) -> tuple[int, tuple[int, ...]]:
        """``atom`` as ``(pred_id, term_ids)``, interning new symbols.

        Only for an id view's tables: a worker's vocabulary grows through
        its table segments, never from here.
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


class ColumnarInstance:
    """An append-only id-native atom store over a shared vocabulary.

    See the module docstring for the layout.  ``add_row`` and
    ``ingest_packed`` are how rows arrive; ``rows`` / ``row_set`` /
    ``positional_index`` are what the join kernel reads, and ``count``
    what the kernel's atom ordering reads.
    """

    __slots__ = ("_vocabulary", "_rows", "_row_sets", "_by_position")

    def __init__(self, vocabulary: Vocabulary):
        self._vocabulary = vocabulary
        # pred_id -> term-id row tuples in append order.
        self._rows: dict[int, list[tuple[int, ...]]] = {}
        # pred_id -> the same rows as a set (membership + dedup).
        self._row_sets: dict[int, set[tuple[int, ...]]] = {}
        # (pred_id, position, term_id) -> the rows with term_id there.
        self._by_position: dict[
            tuple[int, int, int], list[tuple[int, ...]]
        ] = {}

    # ------------------------------------------------------------------
    # Id-native access and mutation
    # ------------------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    def row_count(self, pred_id: int) -> int:
        rows = self._row_sets.get(pred_id)
        return len(rows) if rows else 0

    def rows(self, pred_id: int) -> Sequence[tuple[int, ...]]:
        """The rows over ``pred_id`` in append order (live; read-only)."""
        return self._rows.get(pred_id, ())

    def row_set(self, pred_id: int) -> "set[tuple[int, ...]] | frozenset":
        """The rows over ``pred_id`` as a set (live; read-only)."""
        return self._row_sets.get(pred_id, _EMPTY_ROWS)

    @property
    def positional_index(
        self,
    ) -> dict[tuple[int, int, int], list[tuple[int, ...]]]:
        """``(pred_id, position, term_id) -> rows`` (live; read-only)."""
        return self._by_position

    def add_row(self, pred_id: int, term_ids: tuple[int, ...]) -> bool:
        """Append one row; return True when it was new."""
        rows = self._row_sets.get(pred_id)
        if rows is None:
            rows = self._row_sets[pred_id] = set()
            self._rows[pred_id] = []
        if term_ids in rows:
            return False
        rows.add(term_ids)
        self._rows[pred_id].append(term_ids)
        by_position = self._by_position
        for position, term_id in enumerate(term_ids):
            key = (pred_id, position, term_id)
            bucket = by_position.get(key)
            if bucket is None:
                by_position[key] = [term_ids]
            else:
                bucket.append(term_ids)
        return True

    # checks: hot
    def ingest_packed(self, data: bytes) -> int:
        """Fold one wire-format atom buffer in; return the new-row count.

        The buffer is ``(pred_id, term_ids...)`` per atom, delimited by
        each predicate's arity; every row is a slice of the unpacked id
        tuple, so no ``Atom`` is built.  Duplicate rows are dropped.
        """
        ids = tuple(wire.unpack_ids(data))
        predicates = self._vocabulary.predicates
        add_row = self.add_row
        added = 0
        position = 0
        end = len(ids)
        while position < end:
            pred_id = ids[position]
            stop = position + 1 + predicates[pred_id].arity
            if stop > end:
                raise ChaseError("truncated packed atom stream")
            if add_row(pred_id, ids[position + 1:stop]):
                added += 1
            position = stop
        return added

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._row_sets.values())

    def count(self, predicate: Predicate) -> int:
        pred_id = self._vocabulary.predicate_ids.get(predicate)
        return self.row_count(pred_id) if pred_id is not None else 0
