"""Columnar id-native instances: one encoding from store to wire.

The persistent pool's PR 6 wire codec interns every symbol once, but the
*stores* on both ends of the pipe stayed object-shaped: worker replicas
decode each packed sync buffer back into ``Atom`` objects and re-index
them from scratch, and every ``delta_since`` re-encodes object atoms the
encoder has already packed before.  A :class:`ColumnarInstance` removes
that round-trip: atoms live as flat integer rows over the pool's shared
symbol tables, in exactly the id space of :mod:`repro.engine.wire`.

Layout
------
One :class:`Vocabulary` (a view over the parent's
:class:`~repro.engine.wire.WireEncoder` tables or a worker's
:class:`~repro.engine.wire.WireDecoder` replica of them) maps ids to
term/predicate objects and back.  Per predicate id the store keeps

* its *rows* — term-id tuples, in append order (a row's index is its
  position there; the wire packs each as ``(pred_id, term_ids...)``),
* a row set of the same tuples for O(1) membership (``__contains__``
  runs on ids, no ``Atom`` is built),
* an id-level positional index ``(pred_id, position, term_id) -> rows``
  mirroring the object instance's most-selective candidate seeding.

The three share one tuple object per row.

Revision log and the wire
-------------------------
The revision counter is the number of rows ever appended.  Next to the
columns the store keeps an append-only *wire log*: each accepted row's
LEB128 encoding, concatenated, with one byte mark per revision.
:meth:`ColumnarInstance.packed_delta_since` is therefore a byte *slice*
— the delta a replica or a downstream worker needs is re-served in wire
format without touching a single id.  Ingest is symmetric:
:meth:`ColumnarInstance.ingest_packed` walks a packed buffer with
:func:`repro.engine.wire.iter_atom_spans` and copies each new row's span
straight into the wire log — packed bytes in, packed bytes out, encoded
exactly once in the row's lifetime.

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
touches its bucket.  Sync ingest, membership probes, delta extraction,
candidate *counting* and the id joins never build objects, which is
what takes ``decode_atoms`` out of the persistent worker's per-round
hot path.

Ordering is inherited, not re-invented: materialized buckets are sorted
with the library's ``Atom`` order, so every enumeration the object
matcher seeds from a columnar replica is bit-identical to one seeded
from an object instance — the equivalence matrix in
``tests/test_runner_equivalence.py`` runs the persistent engine on
columnar replicas throughout.  Row order is interning order and carries
no meaning: nothing may be sorted or tie-broken on ids.

Columnar instances are append-only (the chase never retracts);
``discard`` has no columnar counterpart by design.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.engine import wire
from repro.errors import ChaseError
from repro.logic.atoms import Atom, build_atom
from repro.logic.predicates import Predicate
from repro.logic.terms import Term

if TYPE_CHECKING:  # annotation-only
    from repro.engine.wire import WireDecoder, WireEncoder

_EMPTY_ATOMS: tuple[Atom, ...] = ()
_EMPTY_ROWS: frozenset[tuple[int, ...]] = frozenset()


class Vocabulary:
    """A live id ↔ object view over one side's wire symbol tables.

    Both ends of the pool hold the same append-only tables in different
    shapes — the parent's :class:`~repro.engine.wire.WireEncoder` wraps
    ``TermTable``/``PredicateTable`` objects, a worker's
    :class:`~repro.engine.wire.WireDecoder` holds flat lists.  The
    vocabulary binds the four live containers (terms, term ids,
    predicates, predicate ids) by reference, so a columnar instance
    keyed on it sees every symbol the table learns later — no copies,
    no synchronization.
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
    def of_encoder(cls, encoder: "WireEncoder") -> "Vocabulary":
        """The parent-side view over an encoder's tables."""
        return cls(
            encoder.terms.objects,
            encoder.terms.ids,
            encoder.predicates.objects,
            encoder.predicates.ids,
        )

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

        Only for :meth:`private` vocabularies: a wire-table view grows
        through its encoder or decoder, never from here.
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
    same deterministic orders); the id-native methods (``add_row``,
    ``ingest_packed``, ``packed_delta_since``) are the hot path the
    persistent protocol runs on, and ``rows`` / ``row_set`` /
    ``positional_index`` are what the join kernel reads.
    """

    __slots__ = (
        "_vocabulary",
        "_rows",
        "_row_sets",
        "_by_position",
        "_ranges",
        "_revision",
        "_wire",
        "_wire_marks",
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
        # Revision log over row ranges: (pred_id, first_row, stop_row),
        # contiguous appends to one predicate coalesce into one entry.
        self._ranges: list[list[int]] = []
        self._revision = 0
        # The wire log: every accepted row's LEB128 bytes, appended in
        # revision order; _wire_marks[r] is the log length at revision r.
        self._wire = bytearray()
        self._wire_marks: list[int] = [0]
        # Lazy per-row Atom cache and the sorted bucket caches the
        # matcher reads (invalidated per key on append, like Instance).
        self._atoms: dict[int, dict[tuple[int, ...], Atom]] = {}
        self._sorted_predicate: dict[int, tuple[Atom, ...]] = {}
        self._sorted_position: dict[
            tuple[int, int, int], tuple[Atom, ...]
        ] = {}

    # ------------------------------------------------------------------
    # Id-native mutation
    # ------------------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def revision(self) -> int:
        """Rows ever appended (columnar stores are append-only)."""
        return self._revision

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

    def add_row(
        self,
        pred_id: int,
        term_ids: tuple[int, ...],
        wire_bytes: bytes | None = None,
    ) -> bool:
        """Append one row; return True when it was new.

        ``wire_bytes`` — the row's packed encoding, when the caller
        already holds it (a span of an ingested buffer) — is copied into
        the wire log verbatim; otherwise the row is packed here, the
        only time it will ever be.
        """
        rows = self._row_sets.get(pred_id)
        if rows is None:
            rows = self._row_sets[pred_id] = set()
            self._rows[pred_id] = []
            self._atoms[pred_id] = {}
        if term_ids in rows:
            return False
        row_list = self._rows[pred_id]
        row = len(row_list)
        rows.add(term_ids)
        row_list.append(term_ids)
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
        if wire_bytes is None:
            wire_bytes = wire.pack_ids((pred_id, *term_ids))
        self._wire += wire_bytes
        ranges = self._ranges
        if ranges and ranges[-1][0] == pred_id and ranges[-1][2] == row:
            ranges[-1][2] = row + 1
        else:
            ranges.append([pred_id, row, row + 1])
        self._revision += 1
        self._wire_marks.append(len(self._wire))
        return True

    def add_atom(self, atom: Atom, encoder: "WireEncoder") -> bool:
        """Intern ``atom``'s symbols through ``encoder`` and append it.

        The parent-side ingest path (columnar
        :class:`~repro.engine.shards.ShardedIndex` shards): interning
        here is what puts the symbols on the next table segment, so the
        row's ids are resolvable wherever the segment has been replayed.
        """
        pred_id = encoder.predicates.intern(atom.predicate)
        intern = encoder.terms.intern
        return self.add_row(pred_id, tuple(intern(t) for t in atom.args))

    # checks: hot
    def ingest_packed(self, data: bytes) -> int:
        """Fold one wire-format atom buffer in; return the new-row count.

        Each atom's byte span is copied into the wire log as-is when the
        row is new — no re-encoding — and duplicate rows are dropped
        (sync streams are deduplicated already; seed-after-resize
        replays are not).
        """
        if not data:
            return 0
        predicates = self._vocabulary.predicates
        added = 0
        for pred_id, term_ids, start, stop in wire.iter_atom_spans(
            data, lambda p: predicates[p].arity
        ):
            if self.add_row(pred_id, term_ids, data[start:stop]):
                added += 1
        return added

    # ------------------------------------------------------------------
    # Deltas: served by slicing, not re-encoding
    # ------------------------------------------------------------------

    # checks: hot
    def packed_delta_since(self, revision: int) -> bytes:
        """The wire-format bytes of every row appended after ``revision``.

        One slice of the append-only wire log — exactly the buffer
        :meth:`~repro.engine.wire.WireEncoder.encode_atoms` would build
        from the same rows, at the cost of a memcpy.
        """
        if revision < 0 or revision > self._revision:
            raise ChaseError(
                f"columnar delta revision {revision} out of range "
                f"(store at {self._revision})"
            )
        return bytes(self._wire[self._wire_marks[revision]:])

    def delta_rows_since(
        self, revision: int
    ) -> Iterator[tuple[int, tuple[int, ...]]]:
        """``(pred_id, term_ids)`` rows appended after ``revision``."""
        remaining = self._revision - revision
        if remaining <= 0:
            return
        for pred_id, first, stop in self._suffix_ranges(remaining):
            for row in self._rows[pred_id][first:stop]:
                yield pred_id, row

    def _suffix_ranges(
        self, remaining: int
    ) -> list[tuple[int, int, int]]:
        """The trailing ``remaining`` rows as forward-order range triples.

        Ranges are appended in revision order, so the suffix is found by
        a reversed scan and flipped back before use.
        """
        suffix: list[tuple[int, int, int]] = []
        for pred_id, first, stop in reversed(self._ranges):
            width = stop - first
            if width >= remaining:
                suffix.append((pred_id, stop - remaining, stop))
                break
            suffix.append((pred_id, first, stop))
            remaining -= width
        suffix.reverse()
        return suffix

    def delta_atoms_since(self, revision: int) -> list[Atom]:
        """Materialized delta atoms, in append order."""
        remaining = self._revision - revision
        if remaining <= 0:
            return []
        atoms: list[Atom] = []
        for pred_id, first, stop in self._suffix_ranges(remaining):
            for row in self._rows[pred_id][first:stop]:
                atoms.append(self._atom_at(pred_id, row))
        return atoms

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

    # Convenience for object-shaped callers (tests, ShardedIndex ingest
    # fallbacks); the protocol hot paths use ingest_packed/add_row.
    def update(self, atoms: Iterable[Atom], encoder: "WireEncoder") -> int:
        return sum(1 for atom in atoms if self.add_atom(atom, encoder))
