"""Unit tests for homomorphism search, equivalence, isomorphism, cores."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.atoms import Atom, edge
from repro.logic.homomorphisms import (
    _order_atoms,
    core,
    find_homomorphism,
    find_isomorphism,
    has_homomorphism,
    homomorphically_equivalent,
    homomorphisms,
    is_isomorphic,
    rank_pattern,
)
from repro.logic.instances import Instance, instance_of
from repro.logic.predicates import Predicate
from repro.logic.terms import Constant, Variable


V, C = Variable, Constant


def path(*names):
    return [edge(names[i], names[i + 1]) for i in range(len(names) - 1)]


class TestBasicSearch:
    def test_identity_embedding(self):
        target = instance_of(edge("a", "b"))
        assert has_homomorphism([edge("a", "b")], target)

    def test_constants_are_rigid(self):
        assert not has_homomorphism(
            [edge(C("a"), C("b"))], instance_of(edge("c", "d"))
        )

    def test_variables_map_freely(self):
        assert has_homomorphism(
            [edge(V("x"), V("y"))], instance_of(edge("a", "b"))
        )

    def test_join_variable_consistency(self):
        source = [edge(V("x"), V("y")), edge(V("y"), V("z"))]
        assert has_homomorphism(source, instance_of(*path("a", "b", "c")))
        assert not has_homomorphism(
            source, instance_of(edge("a", "b"), edge("c", "d"))
        )

    def test_variables_may_merge(self):
        source = [edge(V("x"), V("y"))]
        assert has_homomorphism(source, instance_of(edge("a", "a")))

    def test_all_homomorphisms_enumerated(self):
        source = [edge(V("x"), V("y"))]
        target = instance_of(edge("a", "b"), edge("b", "c"))
        assert len(list(homomorphisms(source, target))) == 2

    def test_seed_pins_variables(self):
        # Lowercase names become variables: the target is variable-based,
        # matching the paper's variable-only instances.
        source = [edge(V("x"), V("y"))]
        target = instance_of(edge("a", "b"), edge("b", "c"))
        pinned = list(
            homomorphisms(source, target, seed={V("x"): V("b")})
        )
        assert len(pinned) == 1
        assert pinned[0].apply_term(V("y")) == V("c")

    def test_inconsistent_seed_no_results(self):
        source = [edge(V("x"), V("x"))]
        target = instance_of(edge("a", "b"))
        assert not list(homomorphisms(source, target, seed={V("x"): V("a")}))


class TestInjective:
    def test_injective_blocks_merging(self):
        source = [edge(V("x"), V("y"))]
        target = instance_of(edge("a", "a"))
        assert has_homomorphism(source, target)
        assert not has_homomorphism(source, target, injective=True)

    def test_injective_finds_distinct_images(self):
        source = [edge(V("x"), V("y")), edge(V("y"), V("z"))]
        target = instance_of(*path("a", "b", "c"))
        hom = find_homomorphism(source, target, injective=True)
        assert hom is not None and hom.is_injective()

    def test_non_injective_seed_rejected(self):
        source = [edge(V("x"), V("y"))]
        target = instance_of(edge("a", "b"))
        results = list(
            homomorphisms(
                source,
                target,
                seed={V("x"): C("a"), V("y"): C("a")},
                injective=True,
            )
        )
        assert results == []


class TestEquivalenceAndIsomorphism:
    def test_hom_equivalent_paths_of_different_length_not(self):
        assert not homomorphically_equivalent(
            instance_of(*path("a", "b", "c"), add_top=False),
            instance_of(edge("a", "b"), add_top=False),
        )

    def test_hom_equivalent_variable_renamings(self):
        left = Instance([edge(V("x"), V("y"))], add_top=False)
        right = Instance([edge(V("u"), V("v"))], add_top=False)
        assert homomorphically_equivalent(left, right)

    def test_loop_dominates_everything(self):
        loop = Instance([edge(V("l"), V("l"))], add_top=False)
        long_path = Instance(
            [edge(V("a"), V("b")), edge(V("b"), V("c"))], add_top=False
        )
        assert has_homomorphism(long_path, loop)
        assert not has_homomorphism(loop, long_path)

    def test_isomorphism_requires_same_size(self):
        left = Instance([edge(V("x"), V("y"))], add_top=False)
        right = Instance(
            [edge(V("u"), V("v")), edge(V("v"), V("w"))], add_top=False
        )
        assert find_isomorphism(left, right) is None

    def test_isomorphic_renaming(self):
        left = Instance([edge(V("x"), V("y"))], add_top=False)
        right = Instance([edge(V("u"), V("v"))], add_top=False)
        assert is_isomorphic(left, right)

    def test_not_isomorphic_different_shape(self):
        fork = Instance(
            [edge(V("x"), V("y")), edge(V("x"), V("z"))], add_top=False
        )
        chain = Instance(
            [edge(V("x"), V("y")), edge(V("y"), V("z"))], add_top=False
        )
        assert not is_isomorphic(fork, chain)


class TestCore:
    def test_core_of_redundant_edges(self):
        # Two parallel variable edges retract to one.
        inst = Instance(
            [edge(V("x"), V("y")), edge(V("u"), V("v"))], add_top=False
        )
        reduced = core(inst)
        assert len(reduced.with_predicate(edge("x", "y").predicate)) == 1

    def test_core_of_core_is_itself(self):
        inst = Instance([edge(V("x"), V("y"))], add_top=False)
        once = core(inst)
        assert core(once) == once

    def test_constants_block_retraction(self):
        inst = instance_of(
            edge(C("a"), C("b")), edge(C("c"), C("d")), add_top=False
        )
        assert core(inst) == inst


class _Counts:
    """A stub target: ``count`` reads a predicate -> row count dict (all
    that :func:`_order_atoms` reads of a target)."""

    def __init__(self, counts):
        self.counts = counts

    def count(self, predicate):
        return self.counts.get(predicate, 0)


_PREDICATES = [Predicate("E", 2), Predicate("F", 2), Predicate("P", 1)]
_VARIABLES = [V(name) for name in ("x", "y", "z", "u", "v")]
_terms = st.one_of(
    st.sampled_from(_VARIABLES), st.sampled_from([C("a"), C("b")])
)
_atoms = st.builds(
    lambda predicate, args: Atom(predicate, args[: predicate.arity]),
    st.sampled_from(_PREDICATES),
    st.lists(_terms, min_size=2, max_size=2),
)


class TestAtomOrder:
    def test_a_seeded_path_goal_joins_the_pivot_before_its_seed(self):
        # The 6-atom disjunct of transitivity's rewriting of E(x,y), as a
        # decision goal seeds it, pivoted on E(_rw10,_rw7) in its middle.
        # E(_rw13,_rw10) and E(_rw1,y) have one anchored term each; the
        # first joins the pivot, the second only the seed, so the chain
        # is walked outward from the pivot before the seed is checked.
        chain = ["x", "_rw13", "_rw10", "_rw7", "_rw4", "_rw1", "y"]
        atoms = path(*[V(name) for name in chain])
        pivot = edge(V("_rw10"), V("_rw7"))
        rest = [atom for atom in atoms if atom != pivot]
        ordered = _order_atoms(
            rest,
            instance_of(*path(*[C(f"c{i}") for i in range(17)])),
            seeded={V("x"), V("y")},
            bound={V("_rw10"), V("_rw7")},
        )
        assert ordered == [
            edge(V("_rw13"), V("_rw10")),
            edge(V("x"), V("_rw13")),
            edge(V("_rw7"), V("_rw4")),
            edge(V("_rw4"), V("_rw1")),
            edge(V("_rw1"), V("y")),
        ]

    def test_anchored_terms_still_rank_first(self):
        # A seeded atom with two anchored terms beats a linked atom with
        # one: linking only breaks ties of anchored terms.
        seeded_edge = edge(V("x"), V("y"))
        linked = edge(V("z"), V("u"))
        ordered = _order_atoms(
            [linked, seeded_edge],
            _Counts({}),
            seeded={V("x"), V("y")},
            bound={V("z")},
        )
        assert ordered == [seeded_edge, linked]

    def test_rank_pattern_is_the_dense_rank_of_each_count(self):
        assert rank_pattern([7]) == (0,)
        assert rank_pattern([5, 0, 5, 3]) == (2, 0, 2, 1)
        assert rank_pattern([]) == ()

    @settings(max_examples=300, deadline=None)
    @given(
        atoms=st.lists(_atoms, min_size=1, max_size=6, unique=True),
        counts=st.lists(
            st.integers(0, 4), min_size=len(_PREDICATES),
            max_size=len(_PREDICATES),
        ),
        steps=st.lists(st.integers(1, 40), min_size=5, max_size=5),
        seeded=st.sets(st.sampled_from(_VARIABLES), max_size=3),
        bound=st.sets(st.sampled_from(_VARIABLES), max_size=3),
    )
    def test_order_reads_counts_only_through_their_ranks(
        self, atoms, counts, steps, seeded, bound
    ):
        # A strictly increasing remapping of the counts (ties stay ties)
        # keeps the order, and so does the rank pattern itself: a plan
        # cache keyed on the pattern is never stale.
        remap = [sum(steps[: count + 1]) for count in range(5)]
        original = dict(zip(_PREDICATES, counts))
        remapped = {p: remap[c] for p, c in original.items()}
        ranked = dict(zip(_PREDICATES, rank_pattern(counts)))
        assert rank_pattern(list(remapped.values())) == rank_pattern(counts)
        expected = _order_atoms(atoms, _Counts(original), seeded, bound)
        for target in (remapped, ranked):
            assert _order_atoms(atoms, _Counts(target), seeded, bound) == (
                expected
            )
