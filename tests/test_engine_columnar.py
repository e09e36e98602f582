"""The columnar id-native instance: one encoding from wire to store.

Three angles:

* store semantics — id-native add/dedup/membership, vocabulary sharing
  with a decoder's tables, ``ingest_packed`` folding packed buffers
  straight into rows;
* matcher-API parity — ``count`` / ``position_count`` /
  ``sorted_with_predicate`` / ``matching_position`` / iteration agree
  *exactly* (including order) with an object-level
  :class:`~repro.logic.instances.Instance` holding the same atoms, which
  is what makes columnar worker replicas bit-identical;
* the ``delta_since`` append-only fast path the pool's sync hot loop
  rides.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.engine.core import delta_homomorphisms
from repro.engine.wire import WireDecoder, WireEncoder
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.terms import Constant, Null
from repro.rules.parser import parse_rules

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


class _Replica:
    """A worker-style store: atoms arrive as packed buffers, over the
    decoder's replica of one encoder's symbol tables."""

    def __init__(self, atoms=()):
        self.encoder = WireEncoder()
        self.decoder = WireDecoder()
        self.store = ColumnarInstance(Vocabulary.of_decoder(self.decoder))
        self._marks = (0, 0)
        self.feed(atoms)

    def packed(self, atoms):
        """``atoms`` packed, with the decoder caught up on their symbols."""
        buf = self.encoder.encode_atoms(atoms)
        self.decoder.apply_segment(self.encoder.segment(*self._marks))
        self._marks = self.encoder.marks()
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
        (row,) = store.rows(e_id)
        assert not store.add_row(e_id, row)
        assert len(store) == 2
        assert Atom(E, (a, b)) in store
        assert Atom(MARK, ()) in store
        assert Atom(E, (b, a)) not in store
        # Unknown symbols can never be in the store: no interning happens
        # on the read path.
        assert Atom(E, (a, Constant("unseen"))) not in store
        assert Atom(F, (a, b)) not in store

    def test_vocabulary_is_shared_by_reference(self):
        a, b, c = _constants(3)
        replica = _Replica([Atom(E, (a, b))])
        store = replica.store
        # Replaying a table segment into the decoder is visible to the
        # store without any sync step.
        buf = replica.packed([Atom(F, (b, c))])
        assert c in store.vocabulary.term_ids
        assert F in store.vocabulary.predicate_ids
        store.ingest_packed(buf)
        assert Atom(F, (b, c)) in store
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
        assert sorted(replica.store) == sorted(distinct)
        assert replica.store.ingest_packed(b"") == 0

    def test_ingest_packed_truncated_stream_raises(self):
        a, b = _constants(2)
        replica = _Replica()
        buf = replica.packed([Atom(E, (a, b))])
        with pytest.raises(ChaseError):
            replica.store.ingest_packed(buf[:-1])


class TestMatcherParity:
    """The matcher-facing API slice agrees with Instance, order included."""

    def _pair(self, seed=3, n=60):
        atoms = _random_atoms(random.Random(seed), n)
        return _Replica(atoms).store, Instance(atoms, add_top=False)

    def test_counts_and_membership(self):
        store, reference = self._pair()
        for pred in (E, F, TAG, MARK):
            assert store.count(pred) == reference.count(pred)
        for atom in reference:
            assert atom in store
        assert len(store) == len(reference)
        assert store.count(Predicate("Absent", 1)) == 0

    def test_sorted_with_predicate_matches(self):
        store, reference = self._pair()
        for pred in (E, F, TAG, MARK):
            assert store.sorted_with_predicate(
                pred
            ) == reference.sorted_with_predicate(pred)
        assert store.sorted_with_predicate(Predicate("Absent", 1)) == ()

    def test_positional_index_matches(self):
        store, reference = self._pair()
        terms = _constants(6) + [Null(f"_n{i}") for i in range(3)]
        for pred in (E, F, TAG):
            for position in range(pred.arity):
                for term in terms:
                    assert store.position_count(
                        pred, position, term
                    ) == reference.position_count(pred, position, term)
                    assert store.matching_position(
                        pred, position, term
                    ) == reference.matching_position(pred, position, term)

    def test_sorted_atoms_signature_iteration(self):
        store, reference = self._pair()
        assert store.sorted_atoms() == reference.sorted_atoms()
        assert set(store.signature()) == set(reference.signature())
        assert sorted(store) == sorted(reference)

    def test_caches_invalidate_on_append(self):
        a, b, c = _constants(3)
        replica = _Replica([Atom(E, (b, c))])
        store = replica.store
        first = store.sorted_with_predicate(E)
        assert first == (Atom(E, (b, c)),)
        replica.feed([Atom(E, (a, b))])
        assert store.sorted_with_predicate(E) == (
            Atom(E, (a, b)),
            Atom(E, (b, c)),
        )
        assert store.matching_position(E, 1, b) == (Atom(E, (a, b)),)

    def test_delta_homomorphisms_agree_with_object_instances(self):
        """The shared delta core runs unchanged on columnar stores."""
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        rule = list(rules)[0]
        atoms = [
            Atom(E, (Constant(f"c{i}"), Constant(f"c{i + 1}")))
            for i in range(5)
        ]
        pivots = atoms[2:4]
        replica = _Replica(atoms)
        store = replica.store
        view = ColumnarInstance(store.vocabulary)
        view.ingest_packed(replica.packed(pivots))
        reference = list(
            delta_homomorphisms(
                rule, Instance(atoms, add_top=False),
                Instance(pivots, add_top=False),
            )
        )
        columnar = list(delta_homomorphisms(rule, store, view))
        assert columnar == reference
        assert reference  # the workload actually matched something


class TestDeltaSinceFastPath:
    """`Instance.delta_since` skips the seen-set filter until a discard."""

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

    def test_discard_switches_to_filtering(self):
        a, b, c = _constants(3)
        inst = Instance(add_top=False)
        inst.add(Atom(E, (a, b)))
        inst.add(Atom(E, (b, c)))
        inst.discard(Atom(E, (a, b)))
        # The discarded atom must not reappear in any delta.
        assert inst.delta_since(0) == [Atom(E, (b, c))]
        # Re-adding after a discard logs a second occurrence; the delta
        # stays a set, keeping the first surviving log position.
        inst.add(Atom(E, (a, b)))
        assert inst.delta_since(0) == [Atom(E, (a, b)), Atom(E, (b, c))]

    def test_failed_discard_keeps_fast_path_semantics(self):
        a, b = _constants(2)
        inst = Instance(add_top=False)
        inst.add(Atom(E, (a, b)))
        revision = inst.revision
        assert not inst.discard(Atom(F, (a, b)))
        # A no-op discard bumps nothing and the delta stays exact.
        assert inst.revision == revision
        assert inst.delta_since(0) == [Atom(E, (a, b))]

    def test_copy_preserves_filtering_state(self):
        a, b = _constants(2)
        inst = Instance(add_top=False)
        inst.add(Atom(E, (a, b)))
        inst.discard(Atom(E, (a, b)))
        inst.add(Atom(E, (a, b)))
        clone = inst.copy()
        # The clone rebuilds from live atoms only — its log is clean, so
        # either path must produce the same delta.
        assert clone.delta_since(0) == inst.delta_since(0)
