"""Columnar id-native instances: one encoding from wire to store.

A :class:`ColumnarInstance` keeps atoms as flat integer rows over a
shared symbol vocabulary, in exactly the id space of
:mod:`repro.engine.wire`.  It is the worker pool's replica type — packed
seed and sync buffers fold straight into rows, no ``Atom`` decoded — and
the join kernel's *id view* of an object
:class:`~repro.logic.instances.Instance`.

Layout
------
One :class:`Vocabulary` (a view over a worker's
:class:`~repro.engine.wire.WireDecoder` replica of the parent's symbol
tables, or a store-private table set) maps ids to term/predicate objects
and back.  Per predicate id the store keeps

* its *rows* — term-id tuples, in append order,
* a row set of the same tuples for O(1) membership (``__contains__``
  runs on ids, no ``Atom`` is built),
* an id-level positional index ``(pred_id, position, term_id) -> rows``
  mirroring the object instance's most-selective candidate seeding.

The three share one tuple object per row.

Id joins and lazy materialization
---------------------------------
Existential-free rules never see an ``Atom`` here: the delta core's
join kernel (:mod:`repro.engine.core`) walks the rows through
:meth:`ColumnarInstance.rows`, the positional index and
:meth:`ColumnarInstance.row_set` directly, comparing integers.  The
same store is the kernel's *id view* of an object
:class:`~repro.logic.instances.Instance` (over a private
:meth:`Vocabulary.private`), so one layout serves replicas and views.

The object matcher — existential rules on a worker replica — still
speaks ``Atom``: the store implements the matcher-facing slice of the
:class:`~repro.logic.instances.Instance` API (``count`` /
``position_count`` / ``sorted_with_predicate`` / ``matching_position``
/ ``__contains__``) by materializing atoms lazily, bucket by bucket,
through the cached-hash :func:`~repro.logic.atoms.build_atom` fast path
— one ``Atom`` per row ever, built only when the object matcher first
touches its bucket.  Sync ingest, membership probes, candidate
*counting* and the id joins never build objects.

Ordering is inherited, not re-invented: materialized buckets are sorted
with the library's ``Atom`` order, so every enumeration the object
matcher seeds from a columnar replica is bit-identical to one seeded
from an object instance — the equivalence matrix in
``tests/test_runner_equivalence.py`` runs the pool on columnar replicas
throughout.  Row order is interning order and carries no meaning:
nothing may be sorted or tie-broken on ids.

Columnar instances are append-only (the chase never retracts);
``discard`` has no columnar counterpart by design.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from repro.engine import wire
from repro.errors import ChaseError
from repro.logic.atoms import Atom, build_atom
from repro.logic.predicates import Predicate
from repro.logic.terms import Term

if TYPE_CHECKING:  # annotation-only
    from repro.engine.wire import WireDecoder

_EMPTY_ATOMS: tuple[Atom, ...] = ()
_EMPTY_ROWS: frozenset[tuple[int, ...]] = frozenset()


class Vocabulary:
    """A live id ↔ object view over one set of symbol tables.

    A worker's :class:`~repro.engine.wire.WireDecoder` holds its replica
    of the pool's tables as flat lists plus reverse maps; an id view
    owns private tables of the same shape.  The vocabulary binds the
    four live containers (terms, term ids, predicates, predicate ids) by
    reference, so a columnar instance keyed on it sees every symbol the
    tables learn later — no copies, no synchronization.
    """

    __slots__ = ("terms", "term_ids", "predicates", "predicate_ids")

    def __init__(
        self,
        terms: Sequence[Term],
        term_ids: dict,
        predicates: Sequence[Predicate],
        predicate_ids: dict,
    ):
        self.terms = terms
        self.term_ids = term_ids
        self.predicates = predicates
        self.predicate_ids = predicate_ids

    @classmethod
    def of_decoder(cls, decoder: "WireDecoder") -> "Vocabulary":
        """The worker-side view over a decoder's table replica."""
        return cls(
            decoder.terms,
            decoder.term_ids,
            decoder.predicates,
            decoder.predicate_ids,
        )

    @classmethod
    def private(cls) -> "Vocabulary":
        """Fresh tables owned by one store alone (an id view's)."""
        return cls([], {}, [], {})

    def intern_atom(self, atom: Atom) -> tuple[int, tuple[int, ...]]:
        """``atom`` as ``(pred_id, term_ids)``, interning new symbols.

        Only for :meth:`private` vocabularies: a decoder's view grows
        through its table segments, never from here.
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

    See the module docstring for the layout.  The matcher-facing methods
    mirror :class:`~repro.logic.instances.Instance` exactly (same names,
    same deterministic orders); ``add_row`` and ``ingest_packed`` are how
    rows arrive, and ``rows`` / ``row_set`` / ``positional_index`` are
    what the join kernel reads.
    """

    __slots__ = (
        "_vocabulary",
        "_rows",
        "_row_sets",
        "_by_position",
        "_atoms",
        "_sorted_predicate",
        "_sorted_position",
    )

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
        # Lazy per-row Atom cache and the sorted bucket caches the
        # matcher reads (invalidated per key on append, like Instance).
        self._atoms: dict[int, dict[tuple[int, ...], Atom]] = {}
        self._sorted_predicate: dict[int, tuple[Atom, ...]] = {}
        self._sorted_position: dict[
            tuple[int, int, int], tuple[Atom, ...]
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
            self._atoms[pred_id] = {}
        if term_ids in rows:
            return False
        rows.add(term_ids)
        self._rows[pred_id].append(term_ids)
        self._sorted_predicate.pop(pred_id, None)
        by_position = self._by_position
        for position, term_id in enumerate(term_ids):
            key = (pred_id, position, term_id)
            bucket = by_position.get(key)
            if bucket is None:
                by_position[key] = [term_ids]
            else:
                bucket.append(term_ids)
            self._sorted_position.pop(key, None)
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

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def _atom_at(self, pred_id: int, row: tuple[int, ...]) -> Atom:
        cache = self._atoms[pred_id]
        atom = cache.get(row)
        if atom is None:
            vocabulary = self._vocabulary
            terms = vocabulary.terms
            atom = build_atom(
                vocabulary.predicates[pred_id], tuple([terms[i] for i in row])
            )
            cache[row] = atom
        return atom

    # ------------------------------------------------------------------
    # The matcher-facing Instance API slice
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._row_sets.values())

    def __iter__(self) -> Iterator[Atom]:
        for pred_id, rows in self._rows.items():
            for row in rows:
                yield self._atom_at(pred_id, row)

    def __contains__(self, atom: Atom) -> bool:
        vocabulary = self._vocabulary
        pred_id = vocabulary.predicate_ids.get(atom.predicate)
        if pred_id is None:
            return False
        rows = self._row_sets.get(pred_id)
        if not rows:
            return False
        term_ids = vocabulary.term_ids
        ids = []
        for term in atom.args:
            term_id = term_ids.get(term)
            if term_id is None:
                return False
            ids.append(term_id)
        return tuple(ids) in rows

    def count(self, predicate: Predicate) -> int:
        pred_id = self._vocabulary.predicate_ids.get(predicate)
        return self.row_count(pred_id) if pred_id is not None else 0

    def position_count(
        self, predicate: Predicate, position: int, term: Term
    ) -> int:
        vocabulary = self._vocabulary
        pred_id = vocabulary.predicate_ids.get(predicate)
        if pred_id is None:
            return 0
        term_id = vocabulary.term_ids.get(term)
        if term_id is None:
            return 0
        bucket = self._by_position.get((pred_id, position, term_id))
        return len(bucket) if bucket else 0

    def sorted_with_predicate(self, predicate: Predicate) -> tuple[Atom, ...]:
        pred_id = self._vocabulary.predicate_ids.get(predicate)
        if pred_id is None:
            return _EMPTY_ATOMS
        cached = self._sorted_predicate.get(pred_id)
        if cached is None:
            rows = self._rows.get(pred_id)
            if not rows:
                return _EMPTY_ATOMS
            cached = tuple(sorted(self._atom_at(pred_id, row) for row in rows))
            self._sorted_predicate[pred_id] = cached
        return cached

    def matching_position(
        self, predicate: Predicate, position: int, term: Term
    ) -> tuple[Atom, ...]:
        vocabulary = self._vocabulary
        pred_id = vocabulary.predicate_ids.get(predicate)
        if pred_id is None:
            return _EMPTY_ATOMS
        term_id = vocabulary.term_ids.get(term)
        if term_id is None:
            return _EMPTY_ATOMS
        key = (pred_id, position, term_id)
        cached = self._sorted_position.get(key)
        if cached is None:
            bucket = self._by_position.get(key)
            if bucket is None:
                return _EMPTY_ATOMS
            cached = tuple(
                sorted(self._atom_at(pred_id, row) for row in bucket)
            )
            self._sorted_position[key] = cached
        return cached

    def signature(self) -> list[Predicate]:
        """The predicates with at least one row (materialized view)."""
        predicates = self._vocabulary.predicates
        return [
            predicates[pred_id]
            for pred_id, rows in self._row_sets.items()
            if rows
        ]

    def sorted_atoms(self) -> list[Atom]:
        """Every atom, materialized, in the library's deterministic order."""
        return sorted(self)
