"""Unit tests for instances: indexing, paper operations, invariants."""

import pickle

from repro.logic.atoms import TOP_ATOM, atom, edge
from repro.logic.instances import Instance, constants_to_nulls, instance_of
from repro.logic.predicates import EDGE, Predicate
from repro.logic.terms import Constant, FreshSupply, Variable


class TestContainer:
    def test_top_added_by_default(self):
        assert TOP_ATOM in Instance()

    def test_top_suppressed(self):
        assert TOP_ATOM not in Instance(add_top=False)

    def test_add_is_idempotent(self):
        inst = Instance()
        assert inst.add(edge("a", "b"))
        assert not inst.add(edge("a", "b"))
        assert len(inst) == 2  # top + edge

    def test_update_counts_new(self):
        inst = Instance()
        added = inst.update([edge("a", "b"), edge("a", "b"), edge("b", "c")])
        assert added == 2

    def test_equality_is_by_atom_set(self):
        assert instance_of(edge("a", "b")) == instance_of(edge("a", "b"))

    def test_sorted_atoms_deterministic(self):
        inst = instance_of(edge("b", "c"), edge("a", "b"))
        assert inst.sorted_atoms() == sorted(inst.sorted_atoms())


class TestIndexes:
    def test_with_predicate(self):
        inst = instance_of(edge("a", "b"), atom("P", "a"))
        assert inst.with_predicate(EDGE) == {edge("a", "b")}

    def test_signature_and_adom(self):
        inst = instance_of(edge("a", "b"), atom("P", "c"))
        assert Predicate("P", 1) in inst.signature()
        assert Variable("c") in inst.active_domain()


class TestPaperOperations:
    def test_restrict_to_keeps_top(self):
        inst = instance_of(edge("a", "b"), atom("P", "a"))
        restricted = inst.restrict_to([EDGE])
        assert edge("a", "b") in restricted
        assert atom("P", "a") not in restricted
        assert TOP_ATOM in restricted

    def test_restrict_to_adds_no_top(self):
        inst = instance_of(edge("a", "b"), atom("P", "a"), add_top=False)
        restricted = inst.restrict_to([EDGE])
        assert restricted == instance_of(edge("a", "b"), add_top=False)
        assert TOP_ATOM not in restricted

    def test_disjoint_union_adds_no_top(self):
        left = instance_of(edge("a", "b"), add_top=False)
        right = instance_of(edge("c", "d"), add_top=False)
        union = left.disjoint_union(right)
        assert TOP_ATOM not in union
        assert len(union) == 2

    def test_disjoint_union_keeps_top_of_either_operand(self):
        plain = instance_of(edge("a", "b"), add_top=False)
        topped = instance_of(edge("c", "d"))
        assert TOP_ATOM in topped
        assert TOP_ATOM in plain.disjoint_union(topped)
        assert TOP_ATOM in topped.disjoint_union(plain)

    def test_disjoint_union_renames_second(self):
        left = instance_of(edge("x", "y").apply({}), add_top=True)
        right = Instance([edge(Variable("x"), Variable("y"))])
        union = left.disjoint_union(right, supply=FreshSupply("_du"))
        # Original atom present; renamed copy added with fresh variables.
        assert edge("x", "y") in union
        assert len(union.with_predicate(EDGE)) == 2

    def test_disjoint_union_shares_constants(self):
        left = instance_of(edge(Constant("a"), Constant("b")))
        right = instance_of(edge(Constant("a"), Constant("c")))
        union = left.disjoint_union(right)
        # Constants are rigid: both atoms keep constant 'a'.
        sources = {e.args[0] for e in union.with_predicate(EDGE)}
        assert sources == {Constant("a")}

    def test_is_binary(self):
        assert instance_of(edge("a", "b")).is_binary()
        assert not instance_of(atom("T", "a", "b", "c")).is_binary()

    def test_constants_to_nulls(self):
        inst = instance_of(edge("a", "b"))
        freed = constants_to_nulls(inst)
        assert not any(
            t.is_constant for t in freed.active_domain()
        )
        assert len(freed.with_predicate(EDGE)) == 1

    def test_copy_is_independent(self):
        inst = instance_of(edge("a", "b"))
        clone = inst.copy()
        clone.add(edge("b", "c"))
        assert edge("b", "c") not in inst


def _assert_log(inst, added):
    """The add-log contract: the revision is the number of atoms, and
    ``delta_since(r)`` is what was added after the first ``r`` atoms."""
    assert inst.revision == len(inst) == len(added)
    for r in range(len(added) + 1):
        assert inst.delta_since(r) == added[r:]


class TestAddLog:
    """Instances only grow: every atom enters the add log once."""

    AB, BC, CD, DE = (
        edge("a", "b"), edge("b", "c"), edge("c", "d"), edge("d", "e")
    )

    def _built(self):
        inst = Instance([self.AB, self.BC, self.AB, self.BC])
        assert inst.update([self.BC, self.CD, self.CD, self.AB]) == 1
        return inst, [self.AB, self.BC, TOP_ATOM, self.CD]

    def test_repeats_in_the_constructor_and_update(self):
        inst, added = self._built()
        _assert_log(inst, added)
        assert not inst.add(self.AB)
        _assert_log(inst, added)

    def test_a_copy_holds_the_same_atoms_and_grows_after_them(self):
        inst, added = self._built()
        clone = inst.copy()
        base = clone.delta_since(0)
        assert sorted(base) == sorted(added)
        _assert_log(clone, base)
        assert clone.revision == inst.revision
        clone.update([self.AB, self.DE, self.DE])
        _assert_log(clone, base + [self.DE])
        assert clone.delta_since(inst.revision) == [self.DE]

    def test_a_pickle_round_trip_keeps_the_log(self):
        inst, added = self._built()
        restored = pickle.loads(pickle.dumps(inst))
        _assert_log(restored, added)
        restored.add(self.DE)
        _assert_log(restored, added + [self.DE])
