"""The columnar id-native instance: one encoding from wire to store.

Three angles:

* store semantics — id-native add/dedup/membership, a worker
  vocabulary's tables shared by reference, ``ingest_packed`` folding
  packed buffers straight into rows; rows are read back as atoms through
  the vocabulary (the store itself has no ``Atom``-facing API);
* matcher parity — ``count`` and ``len`` agree with an object-level
  :class:`~repro.logic.instances.Instance` holding the same atoms;
* the ``delta_since`` append-only fast path the pool's sync hot loop
  rides.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import wire
from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.terms import Constant, Null

E = Predicate("E", 2)
F = Predicate("F", 2)
TAG = Predicate("Tag", 1)
MARK = Predicate("Mark", 0)


def _constants(n):
    return [Constant(f"c{i}") for i in range(n)]


def _random_atoms(rng, n):
    terms = _constants(6) + [Null(f"_n{i}") for i in range(3)]
    atoms = []
    for _ in range(n):
        pred = rng.choice([E, F, TAG, MARK])
        atoms.append(
            Atom(pred, tuple(rng.choice(terms) for _ in range(pred.arity)))
        )
    return atoms


def _row_of(store, atom):
    """``atom`` as ``(pred_id, term_ids)`` in the store's vocabulary, or
    None when a symbol is not in it."""
    vocabulary = store.vocabulary
    pred_id = vocabulary.predicate_ids.get(atom.predicate)
    ids = tuple(vocabulary.term_ids.get(term) for term in atom.args)
    if pred_id is None or None in ids:
        return None
    return pred_id, ids


def _has(store, atom):
    """Membership through the vocabulary and the row sets."""
    row = _row_of(store, atom)
    return row is not None and row[1] in store.row_set(row[0])


def _atoms_of(store):
    """Every row of ``store`` as an atom, read through its vocabulary."""
    vocabulary = store.vocabulary
    return sorted(
        Atom(vocabulary.predicates[pred_id], tuple(vocabulary.terms[i] for i in row))
        for pred_id, (rows, _) in store.tables.items()
        for row in rows
    )


class _Replica:
    """A worker-style store: atoms arrive as packed buffers, over a
    vocabulary that replays one parent table's segments."""

    def __init__(self, atoms=()):
        self.tables = Vocabulary()
        self.vocabulary = Vocabulary()
        self.store = ColumnarInstance(self.vocabulary)
        self._marks = (0, 0)
        self.feed(atoms)

    def packed(self, atoms):
        """``atoms`` packed, with the vocabulary caught up on their symbols."""
        buf = wire.encode_atoms(self.tables, atoms)
        self.vocabulary.apply_segment(self.tables.segment(*self._marks))
        self._marks = self.tables.marks()
        return buf

    def feed(self, atoms):
        return self.store.ingest_packed(self.packed(atoms))


class TestStoreSemantics:
    def test_add_dedup_len_contains(self):
        a, b = _constants(2)
        replica = _Replica([Atom(E, (a, b)), Atom(MARK, ())])
        store = replica.store
        assert replica.feed([Atom(E, (a, b))]) == 0
        e_id = store.vocabulary.predicate_ids[E]
        ((row,), _) = store.tables[e_id]
        assert not store.add_row(e_id, row)
        assert len(store) == 2
        assert _has(store, Atom(E, (a, b)))
        assert _has(store, Atom(MARK, ()))
        assert not _has(store, Atom(E, (b, a)))
        # Unknown symbols can never be in the store: reading rows never
        # interns into a worker's vocabulary.
        assert _row_of(store, Atom(E, (a, Constant("unseen")))) is None
        assert _row_of(store, Atom(F, (a, b))) is None
        assert Constant("unseen") not in store.vocabulary.term_ids

    def test_vocabulary_is_shared_by_reference(self):
        a, b, c = _constants(3)
        replica = _Replica([Atom(E, (a, b))])
        store = replica.store
        # Replaying a table segment into the vocabulary is visible to the
        # store without any sync step.
        buf = replica.packed([Atom(F, (b, c))])
        assert store.vocabulary is replica.vocabulary
        assert c in store.vocabulary.term_ids
        assert F in store.vocabulary.predicate_ids
        store.ingest_packed(buf)
        assert _has(store, Atom(F, (b, c)))
        assert store.count(F) == 1

    def test_ingest_packed_round_trip_and_dedup(self):
        rng = random.Random(11)
        atoms = _random_atoms(rng, 30)
        distinct = list(dict.fromkeys(atoms))
        replica = _Replica()
        buf = replica.packed(atoms)
        assert replica.store.ingest_packed(buf) == len(distinct)
        # Re-ingesting the same buffer adds nothing.
        assert replica.store.ingest_packed(buf) == 0
        assert _atoms_of(replica.store) == sorted(distinct)
        assert replica.store.ingest_packed(b"") == 0

    def test_ingest_packed_truncated_stream_raises(self):
        a, b = _constants(2)
        replica = _Replica()
        buf = replica.packed([Atom(E, (a, b))])
        with pytest.raises(ChaseError):
            replica.store.ingest_packed(buf[:-1])


class TestOnePackedRowParser:
    """A worker's pivot rows (:func:`~repro.engine.wire.unpack_rows`, the
    join kernel's delta form) and a replica's ingest read a packed
    buffer through one parser."""

    def test_worker_pivots_are_the_rows_ingest_stores(self):
        rng = random.Random(5)
        distinct = list(dict.fromkeys(_random_atoms(rng, 40)))
        replica = _Replica()
        buf = replica.packed(distinct)
        replica.store.ingest_packed(buf)
        pivots = wire.unpack_rows(buf, replica.vocabulary.predicates)
        assert len(pivots) == 4
        assert pivots == {
            pred_id: rows for pred_id, (rows, _) in replica.store.tables.items()
        }

    @pytest.mark.parametrize(
        "cut", [lambda buf: buf[:-1], lambda buf: wire.pack_ids([99])],
        ids=["truncated", "predicate_past_the_table"],
    )
    def test_a_malformed_buffer_raises_in_both(self, cut):
        a, b = _constants(2)
        replica = _Replica()
        buf = cut(replica.packed([Atom(MARK, ()), Atom(E, (a, b))]))
        with pytest.raises(ChaseError):
            wire.unpack_rows(buf, replica.vocabulary.predicates)
        with pytest.raises(ChaseError):
            replica.store.ingest_packed(buf)
        assert len(replica.store) == 0


class TestMatcherParity:
    """``count`` and ``len`` — what the kernel's atom ordering reads —
    agree with an :class:`Instance` holding the same atoms."""

    def test_counts_and_membership(self):
        atoms = _random_atoms(random.Random(3), 60)
        store = _Replica(atoms).store
        reference = Instance(atoms, add_top=False)
        for pred in (E, F, TAG, MARK):
            assert store.count(pred) == reference.count(pred)
        for atom in reference:
            assert _has(store, atom)
        assert len(store) == len(reference)
        assert _atoms_of(store) == reference.sorted_atoms()
        assert store.count(Predicate("Absent", 1)) == 0


class TestDeltaSinceFastPath:
    """`Instance.delta_since` is a plain slice of the add log."""

    def test_append_only_delta_is_a_log_slice(self):
        a, b, c = _constants(3)
        inst = Instance(add_top=False)
        inst.add(Atom(E, (a, b)))
        mark = inst.revision
        inst.add(Atom(E, (b, c)))
        inst.add(Atom(TAG, (a,)))
        delta = inst.delta_since(mark)
        assert delta == [Atom(E, (b, c)), Atom(TAG, (a,))]
        # Full-history delta on an append-only instance is the log itself.
        assert inst.delta_since(0) == [
            Atom(E, (a, b)),
            Atom(E, (b, c)),
            Atom(TAG, (a,)),
        ]
