"""Unit tests for piece-unifiers: soundness of each validity rule, and
the enumeration checked against a per-leaf reference."""

import importlib
import random
from collections import Counter

import pytest

from repro.corpus.examples import bdd_corpus
from repro.corpus.generators import FUZZ_SIGNATURE, random_chase_ruleset
from repro.datastructures.unionfind import UnionFind
from repro.logic.atoms import Atom
from repro.logic.homomorphisms import MATCHER_STATS, find_homomorphism
from repro.logic.predicates import Predicate
from repro.logic.substitutions import Substitution
from repro.logic.terms import Constant, FreshSupply, Null, Variable
from repro.queries.cq import ConjunctiveQuery
from repro.rewriting.piece_unifier import (
    PieceUnifier,
    one_step_rewritings,
    piece_unifiers,
)
from repro.rewriting.rewriter import rewrite
from repro.rules.parser import parse_query, parse_rule, parse_rules

V = Variable


class TestBasicUnification:
    def test_single_atom_unifies_with_head(self):
        rule = parse_rule("P(x,y) -> exists z. E(y,z)")
        q = parse_query("E(u,v)")
        results = list(piece_unifiers(q, rule))
        assert len(results) == 1
        rewritten = results[0].rewritten
        assert {a.predicate.name for a in rewritten.atoms} == {"P"}

    def test_no_shared_predicate_no_unifier(self):
        rule = parse_rule("P(x,y) -> Q(x,y)")
        q = parse_query("E(u,v)")
        assert list(piece_unifiers(q, rule)) == []

    def test_remainder_atoms_kept(self):
        rule = parse_rule("P(x,y) -> exists z. E(y,z)")
        q = parse_query("E(u,v), F(u)")
        results = list(piece_unifiers(q, rule))
        assert len(results) == 1
        names = {a.predicate.name for a in results[0].rewritten.atoms}
        assert names == {"P", "F"}


class TestExistentialValidity:
    def test_existential_cannot_meet_shared_variable(self):
        # v occurs in another atom, so it cannot be unified with z.
        rule = parse_rule("P(x,y) -> exists z. E(y,z)")
        q = parse_query("E(u,v), F(v)")
        results = list(piece_unifiers(q, rule))
        assert results == []

    def test_existential_cannot_meet_answer_variable(self):
        rule = parse_rule("P(x,y) -> exists z. E(y,z)")
        q = parse_query("E(u,v)", answers=("v",))
        assert list(piece_unifiers(q, rule)) == []

    def test_frontier_position_unifies_freely(self):
        rule = parse_rule("P(x,y) -> exists z. E(y,z)")
        q = parse_query("E(u,v)", answers=("u",))
        results = list(piece_unifiers(q, rule))
        assert len(results) == 1
        assert results[0].rewritten.answers == (V("u"),)

    def test_loop_atom_cannot_unify_with_forward_head(self):
        # E(u,u) forces frontier y = existential z: invalid.
        rule = parse_rule("P(x,y) -> exists z. E(y,z)")
        q = parse_query("E(u,u)")
        assert list(piece_unifiers(q, rule)) == []

    def test_two_atom_piece_with_same_existential(self):
        # Both query atoms share w, which maps to the existential z: the
        # piece {E(u,w), F(v,w)} must be unified as a whole.
        rule = parse_rule("P(x,y) -> exists z. E(y,z), F(y,z)")
        q = parse_query("E(u,w), F(v,w)")
        results = list(piece_unifiers(q, rule))
        pieces = {len(r.unified_query_atoms) for r in results}
        assert 2 in pieces
        # The one-atom sub-pieces are invalid (w leaks outside).
        assert 1 not in pieces


class TestDatalogSteps:
    def test_datalog_rule_step(self):
        rule = parse_rule("E(x,y), E(y,z) -> E(x,z)")
        q = parse_query("E(u,v)")
        results = list(piece_unifiers(q, rule))
        assert len(results) == 1
        assert len(results[0].rewritten.atoms) == 2

    def test_one_step_rewritings_across_rules(self):
        from repro.rules.parser import parse_rules

        rules = parse_rules(
            """
            P(x,y) -> E(x,y)
            Q(x,y) -> E(x,y)
            """
        )
        q = parse_query("E(u,v)")
        results = one_step_rewritings(q, rules)
        names = {
            frozenset(a.predicate.name for a in r.atoms) for r in results
        }
        assert names == {frozenset({"P"}), frozenset({"Q"})}


class TestAnswerHandling:
    def test_answer_merge_produces_specialization(self):
        # Unifying both atoms with the same head atom merges u and v.
        rule = parse_rule("P(x) -> E(x,x)")
        q = parse_query("E(u,v)", answers=("u", "v"))
        results = list(piece_unifiers(q, rule))
        assert any(
            r.rewritten.answers[0] == r.rewritten.answers[1]
            for r in results
        )


# ----------------------------------------------------------------------
# The reference enumeration: a fresh partition per assignment leaf
# ----------------------------------------------------------------------
#
# ``piece_unifiers`` walks the assignment tree on one undoable partition
# and checks each leaf in one class pass.  The enumeration it replaced
# builds every leaf's partition anew on a union-find, then checks
# validity and picks representatives in two separate sorted passes.  It
# is kept here, verbatim in behaviour, as the oracle: both must yield the
# same PieceUnifier sequence, in order, on every input below.  To sweep
# more random draws than tier-1 runs, call ``_check_random_draw(seed)``
# over a wider range of seeds.


def _reference_classes(assignment):
    partition = UnionFind()
    for query_atom, head_atom in assignment:
        for left, right in zip(query_atom.args, head_atom.args):
            partition.union(left, right)
    return sorted(
        partition.groups(), key=lambda g: min((t._rank, t.name) for t in g)
    )


def _reference_is_valid(classes, query, rule, unified_atoms):
    existential = rule.existential_variables()
    rule_vars = rule.variables()
    answer_set = set(query.answers)
    outside_vars = {
        v
        for atom in (query.atoms - unified_atoms)
        for v in atom.variables()
    }
    for group in classes:
        constants = [t for t in group if t.is_constant]
        if len(constants) > 1:
            return False
        existential_members = [
            t for t in group if isinstance(t, Variable) and t in existential
        ]
        if not existential_members:
            if constants and any(t in answer_set for t in group):
                return False
            continue
        if len(existential_members) > 1 or constants:
            return False
        for term in group:
            if term in existential_members:
                continue
            if isinstance(term, Variable) and term in rule_vars:
                return False
            if term in answer_set:
                return False
            if term in outside_vars:
                return False
            if not isinstance(term, Variable):
                return False
    return True


def _reference_representatives(classes, query):
    answer_set = set(query.answers)
    query_vars = query.variables()
    mapping = {}
    for group in classes:
        constants = sorted(t for t in group if t.is_constant)
        answer_members = sorted(
            (t for t in group if t in answer_set), key=lambda t: t.name
        )
        query_members = sorted(
            (t for t in group if isinstance(t, Variable) and t in query_vars),
            key=lambda t: t.name,
        )
        if constants:
            representative = constants[0]
        elif answer_members:
            representative = answer_members[0]
        elif query_members:
            representative = query_members[0]
        else:
            representative = min(group)
        for term in group:
            if term != representative:
                mapping[term] = representative
    return Substitution(mapping)


def reference_piece_unifiers(query, rule, supply=None):
    """The per-leaf enumeration ``piece_unifiers`` must reproduce."""
    supply = supply or FreshSupply(prefix="_pu")
    renamed, _ = rule.rename_fresh(supply)
    head_atoms = sorted(renamed.head)
    head_predicates = {a.predicate for a in head_atoms}
    candidates = sorted(
        a for a in query.atoms if a.predicate in head_predicates
    )
    if not candidates:
        return
    compatible = {
        atom: [h for h in head_atoms if h.predicate == atom.predicate]
        for atom in candidates
    }

    def assignments(index, current):
        if index == len(candidates):
            if current:
                yield list(current)
            return
        atom = candidates[index]
        yield from assignments(index + 1, current)
        for head_atom in compatible[atom]:
            current.append((atom, head_atom))
            yield from assignments(index + 1, current)
            current.pop()

    seen = set()
    for assignment in assignments(0, []):
        unified_atoms = {query_atom for query_atom, _ in assignment}
        classes = _reference_classes(assignment)
        if not _reference_is_valid(classes, query, renamed, unified_atoms):
            continue
        unifier = _reference_representatives(
            _reference_classes(assignment), query
        )
        result_atoms = unifier.apply_atoms(
            set(renamed.body) | (query.atoms - unified_atoms)
        )
        new_answers = tuple(unifier.apply_term(v) for v in query.answers)
        if any(not isinstance(v, Variable) for v in new_answers):
            continue
        rewritten = ConjunctiveQuery(result_atoms, new_answers)
        key = (rewritten.atoms, rewritten.answers, frozenset(unified_atoms))
        if key in seen:
            continue
        seen.add(key)
        yield PieceUnifier(
            rule=rule,
            unified_query_atoms=frozenset(unified_atoms),
            rewritten=rewritten,
        )


def _assert_same_enumeration(query, rules):
    """Both enumerations agree, in order, for every rule of ``rules``."""
    produced = 0
    for rule in rules:
        walked = list(piece_unifiers(query, rule, FreshSupply("_eq")))
        reference = list(
            reference_piece_unifiers(query, rule, FreshSupply("_eq"))
        )
        assert walked == reference, (str(query), str(rule))
        produced += len(walked)
    return produced


TRANSITIVITY = parse_rules("E(x,y), E(y,z) -> E(x,z)")
EDGE_PREDICATE = Predicate("E", 2)


def _path_query(length, answers):
    atoms = [
        Atom(EDGE_PREDICATE, (V(f"x{i}"), V(f"x{i + 1}")))
        for i in range(length)
    ]
    return ConjunctiveQuery(atoms, answers)


def _corpus_queries(entry, rng):
    """CQs over the entry's head predicates: every single atom with
    distinct or repeated variables, and random joins of up to three
    atoms with random answer tuples."""
    predicates = sorted(
        {a.predicate for rule in entry.rules for a in rule.head}
    )
    pool = [V(name) for name in ("a", "b", "c", "d")]
    queries = []
    for predicate in predicates:
        distinct = Atom(predicate, tuple(pool[: predicate.arity]))
        queries.append(ConjunctiveQuery([distinct]))
        queries.append(ConjunctiveQuery([distinct], distinct.args))
        if predicate.arity:
            looped = Atom(predicate, (pool[0],) * predicate.arity)
            queries.append(ConjunctiveQuery([looped], (pool[0],)))
    for _ in range(12):
        atoms = [
            Atom(predicate, tuple(rng.choice(pool) for _ in range(predicate.arity)))
            for predicate in (
                rng.choice(predicates) for _ in range(rng.randint(1, 3))
            )
        ]
        body_vars = sorted({v for a in atoms for v in a.variables()})
        answers = tuple(
            rng.choice(body_vars)
            for _ in range(rng.randint(0, min(2, len(body_vars))))
        )
        queries.append(ConjunctiveQuery(atoms, answers))
    return queries


FUZZ_QUERY_CONSTANTS = [Constant(f"C{i}") for i in range(3)]
FUZZ_QUERY_NULL = Null("_fz_n0")


def _random_cq(rng):
    """One to four atoms over the fuzz signature: variables repeat, a
    fifth of the arguments are constants the rules may carry, and a few
    are a null, as in a materialized query."""
    pool = [V(name) for name in ("q0", "q1", "q2", "q3")]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        predicate = rng.choice(FUZZ_SIGNATURE)
        args = []
        for _ in range(predicate.arity):
            roll = rng.random()
            if roll < 0.2:
                args.append(rng.choice(FUZZ_QUERY_CONSTANTS))
            elif roll < 0.25:
                args.append(FUZZ_QUERY_NULL)
            else:
                args.append(rng.choice(pool))
        atoms.append(Atom(predicate, tuple(args)))
    body_vars = sorted({v for a in atoms for v in a.variables()})
    answers = tuple(
        rng.choice(body_vars) for _ in range(rng.randint(0, len(body_vars)))
    )
    return ConjunctiveQuery(atoms, answers)


def _random_draw(seed):
    rng = random.Random(seed)
    rules = random_chase_ruleset(
        n_rules=rng.randint(2, 5),
        existential_probability=0.5,
        constant_probability=0.25 if seed % 2 else 0.0,
        seed=rng.randrange(2**31),
    )
    return rules, [_random_cq(rng) for _ in range(6)]


def _check_random_draw(seed):
    rules, queries = _random_draw(seed)
    return sum(_assert_same_enumeration(q, rules) for q in queries)


class TestReferenceEnumeration:
    def test_bdd_corpus_head_queries(self):
        rng = random.Random(0)
        produced = 0
        for entry in bdd_corpus():
            for query in _corpus_queries(entry, rng):
                produced += _assert_same_enumeration(query, entry.rules)
        assert produced > 100

    @pytest.mark.parametrize("length", range(1, 8))
    def test_transitivity_paths(self, length):
        ends = (V("x0"), V(f"x{length}"))
        for answers in ((), ends, (V("x0"),)):
            produced = _assert_same_enumeration(
                _path_query(length, answers), TRANSITIVITY
            )
            assert produced >= length

    def test_transitivity_two_hop(self):
        two_hop = parse_query("E(x,y), E(y,z)", answers=("x", "z"))
        assert _assert_same_enumeration(two_hop, TRANSITIVITY) == 3
        assert _assert_same_enumeration(two_hop.boolean(), TRANSITIVITY) == 3

    @pytest.mark.parametrize("seed", range(40))
    def test_random_chase_rulesets(self, seed):
        _check_random_draw(seed)

    def test_random_draws_reach_the_validity_rules(self):
        # The draws must exercise what the walk re-implements: steps
        # through existential rules, query-rule pairs whose every leaf is
        # rejected, and rewritings that carry constants and nulls.
        counts = Counter()
        for seed in range(40):
            rules, queries = _random_draw(seed)
            for query in queries:
                for rule in rules:
                    heads = rule.head_predicates()
                    if not any(a.predicate in heads for a in query.atoms):
                        continue
                    found = list(piece_unifiers(query, rule))
                    counts["rejected"] += not found
                    counts["existential"] += bool(found) and not rule.is_datalog
                    terms = {t for u in found for t in u.rewritten.terms()}
                    counts["constant"] += any(t.is_constant for t in terms)
                    counts["null"] += any(t.is_null for t in terms)
        assert min(counts.values()) >= 10, counts


def _rewriting_cases():
    cases = [
        (parse_query("E(x,y)", answers=("x", "y")), TRANSITIVITY, 4),
        (parse_query("E(x,y), E(y,z)"), TRANSITIVITY, 3),
    ]
    rng = random.Random(1)
    for entry in bdd_corpus():
        for query in _corpus_queries(entry, rng)[:4]:
            cases.append((query, entry.rules, 3))
    for seed in range(8):
        rules, queries = _random_draw(seed)
        cases.extend((q, rules, 2) for q in queries[:2])
    return cases


def _reference_subsumes(general, specific):
    """Subsumption with a fresh target index per call."""
    if len(general.answers) != len(specific.answers):
        return False
    seed = {}
    for g_var, s_var in zip(general.answers, specific.answers):
        if g_var in seed and seed[g_var] != s_var:
            return False
        seed[g_var] = s_var
    return (
        find_homomorphism(general.atoms, specific.atoms, seed=seed)
        is not None
    )


def _rewrite_all(cases):
    outcomes = []
    MATCHER_STATS.reset()
    for query, rules, depth in cases:
        result = rewrite(
            query, rules, max_depth=depth, max_disjuncts=40, max_cq_size=6
        )
        outcomes.append((
            [str(d) for d in result.ucq],
            result.complete,
            result.depth,
            result.generated,
        ))
    return outcomes, MATCHER_STATS.snapshot()


def test_rewrite_matches_the_reference_enumeration(monkeypatch):
    cases = _rewriting_cases()
    walked = _rewrite_all(cases)
    unifier_module = importlib.import_module("repro.rewriting.piece_unifier")
    minimization = importlib.import_module("repro.queries.minimization")
    rewriter = importlib.import_module("repro.rewriting.rewriter")
    monkeypatch.setattr(
        unifier_module, "piece_unifiers", reference_piece_unifiers
    )
    monkeypatch.setattr(minimization, "subsumes", _reference_subsumes)
    monkeypatch.setattr(rewriter, "subsumes", _reference_subsumes)
    reference = _rewrite_all(cases)
    assert walked == reference
    assert sum(outcome[3] for outcome in walked[0]) > 100
