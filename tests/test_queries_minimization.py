"""Unit tests for subsumption, CQ cores and UCQ minimization."""

import random

from repro.logic import MATCHER_STATS, Instance, find_homomorphism
from repro.logic.atoms import Atom
from repro.logic.predicates import Predicate
from repro.logic.substitutions import Substitution
from repro.logic.terms import Constant, Variable
from repro.queries import minimization
from repro.queries.cq import ConjunctiveQuery
from repro.queries.minimization import (
    cq_core,
    equivalent,
    is_subsumed_by_any,
    minimize_ucq,
    subsumes,
)
from repro.queries.ucq import UCQ
from repro.rules.parser import parse_query


class TestSubsumption:
    def test_more_general_subsumes(self):
        general = parse_query("E(x,y)")
        specific = parse_query("E(x,y), E(y,z)")
        assert subsumes(general, specific)
        assert not subsumes(specific, general)

    def test_answers_preserved(self):
        general = parse_query("E(x,y)", answers=("x",))
        specific = parse_query("E(x,y), E(y,z)", answers=("y",))
        # hom must send general's answer x to specific's answer y: E(y,?) ok.
        assert subsumes(general, specific)

    def test_different_arity_never_subsumes(self):
        assert not subsumes(
            parse_query("E(x,y)", answers=("x",)),
            parse_query("E(x,y)", answers=("x", "y")),
        )

    def test_equivalence(self):
        left = parse_query("E(x,y)")
        right = parse_query("E(u,v)")
        assert equivalent(left, right)


class TestCore:
    def test_redundant_atom_removed(self):
        q = parse_query("E(x,y), E(u,v)")
        reduced = cq_core(q)
        assert len(reduced.atoms) == 1

    def test_path_is_its_own_core(self):
        q = parse_query("E(x,y), E(y,z)")
        assert cq_core(q) == q

    def test_one_search_per_atom_tried(self):
        # Each sub-query the identity maps back into the query: only the
        # query into the sub-query is searched.  The path keeps both
        # atoms after two searches; the fork drops one on the first.
        for text, searches, size in (
            ("E(x,y), E(y,z)", 2, 2),
            ("E(x,y), E(x,z)", 1, 1),
        ):
            MATCHER_STATS.reset()
            assert len(cq_core(parse_query(text)).atoms) == size
            assert MATCHER_STATS.searches == searches, text

    def test_answers_protected(self):
        q = parse_query("E(x,y), E(u,v)", answers=("x", "u"))
        reduced = cq_core(q)
        # Both atoms carry answer variables: nothing can be dropped.
        assert len(reduced.atoms) == 2


class TestMinimizeUCQ:
    def test_subsumed_disjunct_dropped(self):
        general = parse_query("E(x,y)")
        specific = parse_query("E(x,y), E(y,z)")
        minimized = minimize_ucq(UCQ([general, specific]))
        assert len(minimized) == 1

    def test_equivalent_disjuncts_keep_one(self):
        left = parse_query("E(x,y)")
        right = parse_query("E(u,v)")
        minimized = minimize_ucq(UCQ([left, right]))
        assert len(minimized) == 1

    def test_incomparable_disjuncts_kept(self):
        a = parse_query("P(x)")
        b = parse_query("Q(x)")
        assert len(minimize_ucq(UCQ([a, b]))) == 2

    def test_is_subsumed_by_any(self):
        general = parse_query("E(x,y)")
        specific = parse_query("E(x,y), E(y,z)")
        assert is_subsumed_by_any(specific, [general])
        assert not is_subsumed_by_any(general, [specific])


# ----------------------------------------------------------------------
# The compiled search against the object matcher
# ----------------------------------------------------------------------

PREDICATES = [
    Predicate("U", 1),
    Predicate("E", 2),
    Predicate("F", 2),
    Predicate("T", 3),
    Predicate("Z", 0),
]
GENERAL_VARIABLES = [Variable(f"x{i}") for i in range(4)]
SPECIFIC_VARIABLES = [Variable(f"y{i}") for i in range(5)]
SHARED = [Constant("a"), Constant("b")]
#: A constant only general CQs mention.
LACKED = Constant("c")


def reference_subsumes(general, specific):
    """``subsumes`` on the object matcher: the answer-seeded search into
    the specific's body as an instance."""
    if len(general.answers) != len(specific.answers):
        return False
    seed = {}
    for g_var, s_var in zip(general.answers, specific.answers):
        if seed.setdefault(g_var, s_var) != s_var:
            return False
    target = Instance(specific.atoms, add_top=False)
    return find_homomorphism(general.atoms, target, seed=seed) is not None


def _random_atom(rng, predicates, pool, constants):
    predicate = rng.choice(predicates)
    args = []
    for _ in range(predicate.arity):
        draw = rng.random()
        if draw < 0.1:
            args.append(rng.choice(constants))
        elif args and draw < 0.2:
            args.append(args[-1])  # a term repeated inside the atom
        else:
            args.append(rng.choice(pool))
    return Atom(predicate, args)


def _random_general(rng):
    predicates = rng.sample(PREDICATES, rng.randint(1, 3))
    pool = GENERAL_VARIABLES[: rng.randint(1, 4)]
    atoms = [
        _random_atom(rng, predicates, pool, SHARED + [LACKED])
        for _ in range(rng.randint(1, 4))
    ]
    variables = sorted({t for a in atoms for t in a.args if t.is_variable})
    answers = []
    if variables:
        # Two draws may repeat an answer variable.
        answers = [
            rng.choice(variables) for _ in range(rng.choice((0, 1, 1, 2, 2)))
        ]
    return ConjunctiveQuery(atoms, answers)


def _random_specific(rng, general):
    pool = SPECIFIC_VARIABLES
    if rng.random() < 0.35:
        # A homomorphic image of the general, answers onto answers, with
        # an atom dropped now and then and a few atoms added.
        image = {}
        for variable in sorted(general.variables()):
            if variable not in general.answers and rng.random() < 0.1:
                image[variable] = rng.choice(SHARED)
            else:
                image[variable] = rng.choice(pool[:3])
        atoms = [a.apply(image) for a in sorted(general.atoms)]
        if len(atoms) > 1 and rng.random() < 0.3:
            atoms.pop(rng.randrange(len(atoms)))
        atoms += [
            _random_atom(rng, PREDICATES, pool, SHARED)
            for _ in range(rng.randint(0, 2))
        ]
        answers = [image[v] for v in general.answers]
    else:
        predicates = rng.sample(PREDICATES, rng.randint(1, 3))
        atoms = [
            _random_atom(rng, predicates, pool[:4], SHARED)
            for _ in range(rng.randint(1, 5))
        ]
        answers = [rng.choice(pool) for _ in general.answers]
    variables = sorted({t for a in atoms for t in a.args if t.is_variable})
    if rng.random() < 0.05:
        answers.append(rng.choice(pool))  # an unequal answer arity
    answers = [v for v in answers if v in variables]
    return ConjunctiveQuery(atoms, answers)


def _checked_subsumes(general, specific):
    """The compiled verdict, after asserting it and its matcher counts
    equal the reference's."""
    MATCHER_STATS.reset()
    expected = reference_subsumes(general, specific)
    reference_counts = MATCHER_STATS.snapshot()
    MATCHER_STATS.reset()
    verdict = subsumes(general, specific)
    assert verdict == expected, (general, specific)
    assert MATCHER_STATS.snapshot() == reference_counts, (general, specific)
    return verdict


class TestCompiledSubsumption:
    def test_a_one_predicate_general_keeps_one_plan(self):
        # The atom order reads the specific's row counts only through
        # their rank pattern, and one count has one pattern: E(x,y)
        # compiles once against the transitivity disjuncts of 2 to 7
        # atoms (one plan per row count would be six).
        from repro.rewriting.rewriter import rewrite
        from repro.rules.parser import parse_rules

        edge_query = parse_query("E(x,y)", answers=("x", "y"))
        rewriting = rewrite(
            edge_query,
            parse_rules("E(x,y), E(y,z) -> E(x,z)"),
            max_depth=6,
        )
        longer = [q for q in rewriting.ucq if len(q) > 1]
        assert sorted(len(q) for q in longer) == [2, 3, 4, 5, 6, 7]
        general = parse_query("E(x,y)", answers=("x", "y"))
        for specific in longer:
            assert not _checked_subsumes(general, specific)
        assert len(general._plans.plans) == 1

    def test_verdicts_and_counts_equal_the_object_matcher(self):
        rng = random.Random(20251018)
        seen = dict.fromkeys(
            (
                "true", "ternary", "nullary", "lacked constant",
                "repeat in atom", "repeated answers", "unequal arity",
                "lacked predicate",
            ),
            0,
        )
        recent: list[ConjunctiveQuery] = []
        pairs = 3000
        for _ in range(pairs):
            # Reused generals meet specifics of new rank patterns.
            if recent and rng.random() < 0.3:
                general = rng.choice(recent)
            else:
                general = _random_general(rng)
                recent = (recent + [general])[-20:]
            specific = _random_specific(rng, general)
            seen["true"] += _checked_subsumes(general, specific)
            # The other direction compiles each CQ in its other role.
            _checked_subsumes(specific, general)
            seen["ternary"] += any(a.predicate.arity == 3 for a in general.atoms)
            # As ``top`` rides along in rewritings through ``top``-bodied
            # rules: nullary atoms on both sides.
            seen["nullary"] += all(
                any(a.predicate.arity == 0 for a in cq.atoms)
                for cq in (general, specific)
            )
            seen["lacked constant"] += LACKED in general.terms()
            seen["repeat in atom"] += any(
                len(set(a.args)) < len(a.args) for a in general.atoms
            )
            seen["repeated answers"] += (
                len(set(general.answers)) < len(general.answers)
            )
            seen["unequal arity"] += (
                len(general.answers) != len(specific.answers)
            )
            seen["lacked predicate"] += not (
                {a.predicate for a in general.atoms}
                <= {a.predicate for a in specific.atoms}
            )
        assert all(seen.values()), seen
        assert 0.25 <= seen["true"] / pairs <= 0.4, seen

    def test_minimization_equals_a_reference_run(self, monkeypatch):
        rng = random.Random(7)
        answer = GENERAL_VARIABLES[0]
        for round_ in range(60):
            disjuncts = []
            for _ in range(rng.randint(2, 5)):
                general = _random_general(rng)
                atoms = set(general.atoms)
                answers = ()
                if round_ % 2:
                    atoms.add(Atom(PREDICATES[0], [answer]))
                    answers = (answer,)
                disjuncts.append(ConjunctiveQuery(atoms, answers))
                specific = _random_specific(rng, disjuncts[-1])
                if len(specific.answers) != len(answers):
                    continue
                if answers:
                    specific = specific.apply(
                        Substitution({specific.answers[0]: answer})
                    )
                disjuncts.append(specific)
            ucq = UCQ(disjuncts, disjuncts[0].answers)
            runs = []
            for compiled in (False, True):
                with monkeypatch.context() as patched:
                    if not compiled:
                        patched.setattr(
                            minimization, "subsumes", reference_subsumes
                        )
                    MATCHER_STATS.reset()
                    cores = [cq_core(q) for q in ucq]
                    minimized = minimize_ucq(ucq, compute_cores=True)
                    plain = minimize_ucq(ucq, compute_cores=False)
                    runs.append(
                        (cores, minimized, plain, MATCHER_STATS.snapshot())
                    )
            assert runs[0] == runs[1]
