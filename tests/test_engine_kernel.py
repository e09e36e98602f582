"""The id-native join kernel of the delta core.

:func:`~repro.engine.core.rule_delta_images`,
:func:`~repro.engine.core.rule_unsatisfied_images` and
:func:`~repro.engine.core.derive_delta_atoms` join rules on integer
rows, and :func:`~repro.engine.core.rule_delta_match` stops at the
first match.  Here they are checked against an oracle built from
:func:`~repro.engine.core.delta_homomorphisms` and
:func:`~repro.logic.homomorphisms.homomorphisms_with_pivot` (the object
matcher): the same images (each once, with the trigger mapping derived
from an image equal to the one a trigger restricts from the oracle's
homomorphism), the same survivors (the ``Term``-smallest image per
missing ground head), derived atoms (the head instantiations the store
lacks) and match verdicts, and the same ``MATCHER_STATS`` and
``INSTANTIATION_STATS`` counts, round after round, on three stores — a
plain :class:`Instance`, a worker-style :class:`ColumnarInstance`
replica, and an :class:`Instance` grown in two ``update`` calls per
round, with repeated atoms and its id view synced in between.  The
cases include draws of
:func:`~repro.corpus.generators.random_chase_ruleset` (existential
rules, rule constants, repeated variables, multi-atom heads).  The
remaining tests pin the id view's lifecycle (synced per revision,
never pickled), that delta rounds never reach the object matcher, the
per-round counts of transitivity over ``path_instance(12)``, and the
kernel-backed closures — inline and on the worker pool — against
``naive``.
"""

from __future__ import annotations

import importlib
import pickle

import pytest

from repro.chase import oblivious_chase, restricted_chase, semi_oblivious_chase
from repro.chase.restricted import RestrictedPolicy
from repro.chase.trigger import Trigger
from repro.corpus.generators import (
    FUZZ_SIGNATURE,
    path_instance,
    random_chase_ruleset,
    random_digraph_instance,
    random_instance,
    random_nonrecursive_ruleset,
)
from repro.engine import ChaseRunner, EngineConfig, wire
from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.engine.core import (
    as_delta_instance,
    delta_homomorphisms,
    derive_delta_atoms,
    id_view,
    rule_delta_images,
    rule_delta_match,
    rule_unsatisfied_images,
)
from repro.logic import MATCHER_STATS
from repro.logic.atoms import TOP_ATOM, Atom
from repro.logic.homomorphisms import homomorphisms_with_pivot
from repro.logic.instances import Instance
from repro.logic.terms import Constant
from repro.rewriting.datalog import semi_naive_closure
from repro.rules.parser import parse_instance, parse_query, parse_rules
from repro.rules.rule import INSTANTIATION_STATS, Rule

# ----------------------------------------------------------------------
# The object-matcher oracle
# ----------------------------------------------------------------------


def _oracle_images(rule, instance, delta):
    """Every match, deduplicated by image: the first one found kept."""
    order = rule.body_variable_order()
    images = {}
    for hom in delta_homomorphisms(rule, instance, delta):
        images.setdefault(tuple(hom.apply_term(v) for v in order), hom)
    return images


def _oracle_unsatisfied(rule, instance, delta):
    """The smallest image per ground head not wholly in ``instance``
    (existential rules: every image, unpruned)."""
    if rule.existential_order():
        return _oracle_images(rule, instance, delta)
    order = rule.body_variable_order()
    kept = {}
    for hom in delta_homomorphisms(rule, instance, delta):
        INSTANTIATION_STATS.heads += 1
        head = frozenset(hom.apply_atoms(rule.head))
        if all(a in instance for a in head):
            continue
        image = tuple(hom.apply_term(v) for v in order)
        if head not in kept or image < kept[head][0]:
            kept[head] = (image, hom)
    return dict(kept.values())


def _oracle_derive(rule, instance, delta):
    """Every head instantiation ``instance`` lacks."""
    return {
        atom
        for hom in delta_homomorphisms(rule, instance, delta)
        for atom in hom.apply_atoms(rule.head)
        if atom not in instance
    }


def _oracle_match(rule, instance, delta, seed=None):
    """The goal probe's object-matcher loop: each body atom in
    ``sorted_body()`` order pivots on the delta's atoms over its
    predicate, until one search finds a match.  Returns whether one did
    and how many searches ran."""
    atoms = rule.sorted_body()
    searches = 0
    for pivot in atoms:
        candidates = delta.sorted_with_predicate(pivot.predicate)
        if not candidates:
            continue
        searches += 1
        match = homomorphisms_with_pivot(
            atoms, instance, pivot, candidates, seed=seed
        )
        if next(match, None) is not None:
            return True, searches
    return False, searches


def _counted(run):
    MATCHER_STATS.reset()
    INSTANTIATION_STATS.reset()
    value = run()
    return value, (
        MATCHER_STATS.searches,
        MATCHER_STATS.candidates,
        INSTANTIATION_STATS.heads,
    )


# ----------------------------------------------------------------------
# Stores: each replays the same rounds and hands out (instance, delta)
# ----------------------------------------------------------------------


class PlainStore:
    """An object instance; the delta is an object instance too."""

    def __init__(self):
        self.instance = Instance(add_top=False)

    def advance(self, atoms):
        self.instance.update(atoms)
        return self.instance, as_delta_instance(atoms)


class GrownStore(PlainStore):
    """An object instance fed each round in two ``update`` calls that
    repeat atoms it already holds, with its id view synced in between:
    the view grows from ``delta_since`` at a mid-round revision, and the
    repeats never reach the add log, so the rows keep the plain store's
    order."""

    def advance(self, atoms):
        held = self.instance.sorted_atoms()
        half = len(atoms) // 2
        self.instance.update(held + atoms[:half] + atoms[:half])
        assert len(id_view(self.instance)) == self.instance.revision
        self.instance.update(atoms[half:] + held + atoms)
        return self.instance, as_delta_instance(atoms)


class ReplicaStore:
    """A worker-style replica: a columnar store over a vocabulary grown
    by table segments, fed packed buffers, with the delta in the same
    vocabulary.  Its tables hold the rules' head symbols from the start,
    as a pool's seed interns them."""

    def __init__(self, rules=()):
        self.tables = Vocabulary()
        wire.intern_rules(self.tables, rules)
        self.vocabulary = Vocabulary()
        self.instance = ColumnarInstance(self.vocabulary)
        self._marks = (0, 0)

    def _packed(self, atoms):
        buf = wire.encode_atoms(self.tables, atoms)
        self.vocabulary.apply_segment(self.tables.segment(*self._marks))
        self._marks = self.tables.marks()
        return buf

    def advance(self, atoms):
        buf = self._packed(atoms)
        self.instance.ingest_packed(buf)
        delta = ColumnarInstance(self.instance.vocabulary)
        delta.ingest_packed(buf)
        return self.instance, delta


STORES = ["plain", "replica", "grown"]


def _store(kind, rules):
    if kind == "plain":
        return PlainStore()
    if kind == "replica":
        return ReplicaStore(rules)
    return GrownStore()


# ----------------------------------------------------------------------
# Cases: rules plus the atoms each round adds
# ----------------------------------------------------------------------


def _atoms(text):
    """The atoms of ``text`` (``top`` only where the text names it)."""
    return sorted(
        a for a in parse_instance(text) if a != TOP_ATOM or "top" in text
    )


def _case(name, rules, *rounds):
    return (name, parse_rules(rules, name=name), [_atoms(r) for r in rounds])


def _random_case(seed):
    rules = random_nonrecursive_ruleset(
        n_strata=3, rules_per_stratum=3, existential_probability=0.4, seed=seed
    )
    signature = sorted(
        {a.predicate for rule in rules for a in rule.body | rule.head},
        key=lambda p: p.name,
    )
    atoms = sorted(random_instance(signature, 4, 16, seed=seed))
    return (f"random_{seed}", rules, [atoms[:6], atoms[6:11], atoms[11:]])


def _fuzz_case(seed):
    """A :func:`random_chase_ruleset` draw (rule constants on odd seeds)
    over the differential fuzz's instances."""
    rules = random_chase_ruleset(
        constant_probability=0.25 if seed % 2 else 0.0, seed=seed
    )
    atoms = sorted(random_instance(FUZZ_SIGNATURE, 4, 16, seed=seed))
    return (f"fuzz_{seed}", rules, [atoms[:6], atoms[6:11], atoms[11:]])


CASES = [
    _case(
        "constants_body_and_head",
        "E(x,A), F(A,y) -> G(x,y,B)\nE(x,y), G(x,y,B) -> H(B,x)",
        "E(a,A), F(A,b), E(c,A), E(a,b)",
        "F(A,d), G(c,b,B), E(c,d)",
    ),
    _case(
        "repeated_variable",
        "E(x,x) -> L(x)\nE(x,y), E(y,y) -> L(x)",
        "E(a,a), E(a,b), L(b)",
        "E(b,b), E(c,a), E(c,c)",
    ),
    _case(
        "nullary_top",
        "top, E(x,y) -> R(y,x)\ntop -> Flag(A)",
        "top, E(a,b), R(b,a)",
        "E(b,c), E(c,a)",
    ),
    _case(
        "arity_three",
        "T(x,y,z), E(z,w) -> T(x,y,w)\nT(x,y,y) -> E(x,y)",
        "T(a,b,c), E(c,d), T(a,a,a), E(d,e)",
        "T(b,c,d), E(e,f), T(c,d,d)",
    ),
    _case(
        "multi_atom_heads",
        "E(x,y), E(y,z) -> E(x,z), F(z,x)\nF(x,y) -> G(x), G(y)",
        "E(a,b), E(b,c), E(c,d), F(d,b)",
        "E(d,e), E(a,c), G(d), G(b)",
    ),
    _case(
        "late_rule_constants",
        "E(x,C) -> L(x)\nE(x,y), M(y) -> F(x,D)\nF(x,D) -> G(x)",
        "E(a,b), M(b), E(b,c)",
        "E(a,C), M(c)",
        "F(b,D), E(c,C)",
    ),
    _case(
        "interning_disagrees_with_term_order",
        "E(x,y), E(y,z) -> P(x,z)",
        "E(a,m2), E(m2,b), E(a,m1), E(m1,b)",
        "E(b,m0), E(m0,c), E(m2,c)",
    ),
] + [_random_case(seed) for seed in range(5)] + [
    _fuzz_case(seed) for seed in range(6)
]
CASE_IDS = [case[0] for case in CASES]


def _assert_same_images(rule, got, want, context):
    """The kernel's image list against the oracle's ``{image: hom}``:
    no image twice, the same image set, for every image the mapping a
    trigger derives from it equal to the one ``Trigger`` restricts from
    the oracle's homomorphism, and the same counts."""
    (images, counts), (reference, want_counts) = got, want
    assert len(set(images)) == len(images), context
    assert set(images) == set(reference), context
    for image in images:
        derived = Trigger.from_image(rule, image).mapping
        assert derived == Trigger(rule, reference[image]).mapping, context
    assert counts == want_counts, context


#: A constant no case's atoms mention: a seed pinned to it matches nothing.
MISSING = Constant("Missing")


def _seeds(rule, atoms):
    """The seeds a round's match calls try: none, the first body variable
    pinned to the round's first term, and pinned to :data:`MISSING`."""
    order = rule.body_variable_order()
    terms = [t for atom in atoms for t in atom.args]
    if not order or not terms:
        return [None]
    return [None, {order[0]: terms[0]}, {order[0]: MISSING}]


def _oracle_rounds(rules, rounds, oracle):
    """The oracle's per-rule, per-round results on plain instances."""
    store = PlainStore()
    expected = []
    for atoms in rounds:
        instance, delta = store.advance(atoms)
        expected.append(
            [_counted(lambda: oracle(r, instance, delta)) for r in rules]
        )
    return expected


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("name,rules,rounds", CASES, ids=CASE_IDS)
class TestKernelMatchesObjectMatcher:
    def test_delta_images(self, name, rules, rounds, kind):
        # Pivoted on each round's delta, then unpivoted on the whole
        # instance: one search per rule, over every match.
        expected = _oracle_rounds(rules, rounds, _oracle_images)
        store = _store(kind, rules)
        for atoms, per_rule in zip(rounds, expected):
            instance, delta = store.advance(atoms)
            for rule, want in zip(rules, per_rule):
                got = _counted(lambda: rule_delta_images(rule, instance, delta))
                _assert_same_images(rule, got, want, (name, str(rule)))
        reference = Instance([a for r in rounds for a in r], add_top=False)
        for rule in rules:
            want = _counted(lambda: _oracle_images(rule, reference, reference))
            got = _counted(lambda: rule_delta_images(rule, instance, instance))
            _assert_same_images(rule, got, want, (name, str(rule)))

    def test_unsatisfied_images(self, name, rules, rounds, kind):
        expected = _oracle_rounds(rules, rounds, _oracle_unsatisfied)
        store = _store(kind, rules)
        for atoms, per_rule in zip(rounds, expected):
            instance, delta = store.advance(atoms)
            for rule, want in zip(rules, per_rule):
                got = _counted(
                    lambda: rule_unsatisfied_images(rule, instance, delta)
                )
                _assert_same_images(rule, got, want, (name, str(rule)))

    def test_derived_atoms(self, name, rules, rounds, kind):
        datalog = [rule for rule in rules if rule.is_datalog]
        expected = _oracle_rounds(datalog, rounds, _oracle_derive)
        store = _store(kind, datalog)
        for atoms, per_rule in zip(rounds, expected):
            instance, delta = store.advance(atoms)
            for rule, want in zip(datalog, per_rule):
                got = _counted(lambda: derive_delta_atoms(rule, instance, delta))
                assert got == want, (name, str(rule))

    def test_delta_match(self, name, rules, rounds, kind):
        # Existence mode against the goal probe's object-matcher loop:
        # the same verdict and searches on every call, and the same
        # candidates on every call that finds no match (a witnessing
        # search stops at the first match it reaches, in row order).
        reference = PlainStore()
        store = _store(kind, rules)
        for atoms in rounds:
            oracle_instance, oracle_delta = reference.advance(atoms)
            instance, delta = store.advance(atoms)
            for rule in rules:
                for seed in _seeds(rule, atoms):
                    want = _counted(lambda: _oracle_match(
                        rule, oracle_instance, oracle_delta, seed
                    ))
                    got = _counted(
                        lambda: rule_delta_match(rule, instance, delta, seed)
                    )
                    context = (name, str(rule), seed)
                    assert got[0] == want[0], context
                    assert got[1][0] == want[1][0], context
                    if not want[0][0]:
                        assert got[1] == want[1], context

    def test_whole_instance_as_delta(self, name, rules, rounds, kind):
        # The unpivoted search: one per rule, over every match.
        store = _store(kind, rules)
        for atoms in rounds:
            instance, _ = store.advance(atoms)
        reference = Instance([a for r in rounds for a in r], add_top=False)
        for rule in rules:
            want = _counted(
                lambda: _oracle_unsatisfied(rule, reference, reference)
            )
            got = _counted(
                lambda: rule_unsatisfied_images(rule, instance, instance)
            )
            _assert_same_images(rule, got, want, (name, str(rule)))


def test_term_smallest_image_survives_against_interning_order():
    # m2 is interned before m1, but m1 < m2 as terms: the survivor of
    # the head P(a,b) must be the image through m1 on every store.
    name, rules, rounds = CASES[CASE_IDS.index(
        "interning_disagrees_with_term_order"
    )]
    (rule,) = rules
    for kind in STORES:
        instance, delta = _store(kind, rules).advance(rounds[0])
        found = rule_unsatisfied_images(rule, instance, delta)
        assert [[t.name for t in image] for image in found] == [
            ["a", "m1", "b"]
        ]


class TestIdView:
    TC = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")

    def test_created_on_first_join_and_synced_per_revision(self):
        instance = path_instance(5)
        assert instance._id_view is None
        view = id_view(instance)
        assert id_view(instance) is view
        assert len(view) == len(instance)
        instance.add(Atom(instance.sorted_atoms()[0].predicate,
                          (Constant("Z1"), Constant("Z2"))))
        assert id_view(instance) is view  # brought up to date in place
        assert len(view) == len(instance)

    def test_add_never_builds_a_view(self):
        instance = path_instance(5)
        instance.update(path_instance(7))
        assert instance._id_view is None

    def test_columnar_store_is_its_own_view(self):
        store = ReplicaStore()
        instance, _ = store.advance(sorted(path_instance(3)))
        assert id_view(instance) is instance

    def test_pickle_is_unchanged_by_the_kernel(self):
        instance = path_instance(12)
        before = pickle.dumps(instance)
        rule = next(iter(self.TC))
        rule_unsatisfied_images(rule, instance, as_delta_instance(instance))
        assert instance._id_view is not None
        after = pickle.dumps(instance)
        assert len(after) == len(before)
        assert after == before
        restored = pickle.loads(after)
        assert restored == instance and restored._id_view is None

    def test_copies_start_without_a_view(self):
        instance = path_instance(4)
        id_view(instance)
        assert instance.copy()._id_view is None


def test_existential_free_joins_never_reach_the_object_matcher(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the object matcher ran")

    rules = parse_rules(
        "E(x,y), E(y,z) -> E(x,z), F(z,x)\nF(x,y) -> G(x)", name="datalog"
    )
    instance = path_instance(6)
    delta = as_delta_instance(instance.sorted_atoms()[2:])
    matcher = importlib.import_module("repro.logic.homomorphisms")
    monkeypatch.setattr(matcher, "_search", forbidden)
    for rule in rules:
        rule_unsatisfied_images(rule, instance, delta)
        rule_unsatisfied_images(rule, instance, instance)
        derive_delta_atoms(rule, instance, delta)
    restricted_chase(path_instance(6), rules)
    semi_naive_closure(path_instance(6), rules, engine="delta")


@pytest.mark.parametrize(
    "engine",
    [
        pytest.param("delta", id="delta"),
        pytest.param(EngineConfig("persistent", workers=2), id="persistent_w2"),
    ],
)
def test_delta_rounds_never_reach_the_object_matcher(monkeypatch, engine):
    # Existential rules and every oblivious and semi-oblivious round
    # enumerate on the kernel too, inline and on the pool.
    def forbidden(*args, **kwargs):
        raise AssertionError("the object matcher ran")

    rules = parse_rules(
        "E(x,y) -> exists z. E(y,z), F(z,x)\nE(x,y), F(y,x) -> G(x)",
        name="existential",
    )
    matcher = importlib.import_module("repro.logic.homomorphisms")
    monkeypatch.setattr(matcher, "_search", forbidden)
    for chase in (oblivious_chase, semi_oblivious_chase):
        result = chase(path_instance(4), rules, max_levels=3, engine=engine)
        assert result.records()


# ----------------------------------------------------------------------
# Counts pinned to the object matcher's
# ----------------------------------------------------------------------

TC = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")

#: Per round of the restricted chase of transitivity over
#: ``path_instance(12)``: (matcher searches, candidates, head
#: instantiations).  The object matcher measured these before the kernel
#: existed; the kernel runs the same join.
RESTRICTED_ROUNDS = [(2, 46, 33), (2, 60, 57), (2, 150, 138), (2, 200, 158),
                     (2, 40, 20)]

#: Per round of the semi-naive closure of the same input: (searches,
#: candidates, distinct derived atoms, new atoms).  A derive round
#: returns only the heads the instance lacks, so the last two agree.
DERIVE_ROUNDS = [(2, 46, 11, 11), (2, 60, 19, 19), (2, 150, 26, 26),
                 (2, 200, 10, 10), (2, 40, 0, 0)]


def _snapshot():
    return (
        MATCHER_STATS.searches,
        MATCHER_STATS.candidates,
        INSTANTIATION_STATS.heads,
    )


class CountingPolicy(RestrictedPolicy):
    def __init__(self):
        super().__init__()
        self.snapshots = []

    def round_complete(self, result):
        self.snapshots.append(_snapshot())
        return False


def test_restricted_round_counts_are_pinned():
    MATCHER_STATS.reset()
    INSTANTIATION_STATS.reset()
    policy = CountingPolicy()
    runner = ChaseRunner(policy, "delta", max_steps=50, max_atoms=10_000)
    runner.run(path_instance(12), TC)
    totals = policy.snapshots + [_snapshot()]
    rounds = [
        tuple(now - before for now, before in zip(after, previous))
        for previous, after in zip([(0, 0, 0)] + totals, totals)
    ]
    assert rounds == RESTRICTED_ROUNDS


def test_derive_round_counts_are_pinned():
    total = path_instance(12)
    revision = 0
    rounds = []
    (rule,) = TC
    while True:
        delta = total.delta_since(revision)
        revision = total.revision
        MATCHER_STATS.reset()
        derived = derive_delta_atoms(rule, total, as_delta_instance(delta))
        new = {a for a in derived if a not in total}
        rounds.append((MATCHER_STATS.searches, MATCHER_STATS.candidates,
                       len(derived), len(new)))
        if not new:
            break
        total.update(new)
    assert rounds == DERIVE_ROUNDS


def test_a_stopped_join_counts_only_the_candidates_it_tested():
    # The pivot E(a,b) binds y=b; the first row of the bucket E(b,_)
    # completes the goal, and the two rows after it are never tested.
    atoms = _atoms("E(a,b), E(b,c), E(b,d), E(b,e)")
    instance = Instance(add_top=False)
    for atom in atoms:
        instance.add(atom)
    delta = as_delta_instance(atoms[:1])
    goal = Rule(parse_query("E(x,y), E(y,z)").atoms, (TOP_ATOM,))
    want = _counted(lambda: _oracle_match(goal, instance, delta))
    got = _counted(lambda: rule_delta_match(goal, instance, delta))
    assert want == ((True, 1), (1, 2, 0))
    assert got == want


# ----------------------------------------------------------------------
# Kernel-backed closures against the naive reference
# ----------------------------------------------------------------------

CLOSURE_CASES = [
    ("path_tc", lambda: path_instance(14), TC),
    (
        "digraph_multi_head",
        lambda: random_digraph_instance(6, 0.3, seed=4),
        parse_rules(
            "E(x,y), E(y,z) -> E(x,z), F(z,x)\nF(x,y), E(y,y) -> G(x,y,A)",
            name="multi",
        ),
    ),
]

CLOSURE_ENGINES = [
    pytest.param("delta", id="delta"),
    pytest.param(EngineConfig("persistent", workers=2), id="persistent_w2"),
]


@pytest.mark.parametrize("engine", CLOSURE_ENGINES)
@pytest.mark.parametrize(
    "make,rules", [c[1:] for c in CLOSURE_CASES], ids=[c[0] for c in CLOSURE_CASES]
)
def test_closure_matches_naive(make, rules, engine):
    assert semi_naive_closure(make(), rules, engine=engine) == (
        semi_naive_closure(make(), rules, engine="naive")
    )
