"""Seeded differential fuzzing of the engines against ``naive``.

:func:`repro.corpus.generators.random_chase_ruleset` draws recursive
rule sets with existential variables, repeated variables, multi-atom
heads and — on every other seed — rule constants.  Each chase variant
runs on every engine at a tight atom budget, which stops about half the
runs mid-round, and at a loose one that few runs reach; every result
must equal the ``naive`` engine's bit for bit and leave the fresh-null
supply at the same position.  Existential-free draws check the Datalog
closure the same way.

``answer()`` is fuzzed on the same generator: every strategy (``chase``,
``rewrite``, ``hybrid``, ``auto``) against saturate-then-probe — the
oblivious chase at the same level and atom budgets, then one
entailment probe — with the assertions of
``tests/test_serving_answer.py::TestDifferentialMatrix``.  Only draws
whose reference chase terminated are compared, so the reference is the
ground truth; queries carry rule-set constants often enough that at
least a quarter of them are not entailed.  Decision mode is fuzzed with
answer variables bound too — to instance constants, to a constant the
instance lacks, to nulls of the reference chase, and inconsistently (a
repeated answer variable bound to two values) — so the goal probe's
seeded joins run.  At a tight atom budget, which stops most runs
mid-round, the ``chase`` strategy's verdict must equal one probe of the
prefix it materialized.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.chase import oblivious_chase, restricted_chase, semi_oblivious_chase
from repro.corpus.generators import (
    FUZZ_SIGNATURE,
    random_chase_ruleset,
    random_instance,
)
from repro.engine import EngineConfig
from repro.logic.atoms import Atom
from repro.logic.homomorphisms import homomorphisms
from repro.logic.terms import Constant, FreshSupply, Variable
from repro.queries.cq import ConjunctiveQuery
from repro.queries.entailment import entails_cq
from repro.rewriting.datalog import semi_naive_closure
from repro.serving import answer

SEEDS = range(16)
CLOSURE_SEEDS = range(8)

ENGINES = [
    ("delta", "delta"),
    ("parallel_w1", EngineConfig("parallel", workers=1)),
    ("persistent_w2", EngineConfig("persistent", workers=2)),
]

VARIANTS = [
    ("oblivious", oblivious_chase, "max_levels"),
    ("semi_oblivious", semi_oblivious_chase, "max_levels"),
    ("restricted", restricted_chase, "max_rounds"),
]


def _case(seed: int, existential_probability: float = 0.5):
    rules = random_chase_ruleset(
        existential_probability=existential_probability,
        constant_probability=0.25 if seed % 2 else 0.0,
        seed=seed,
    )
    return rules, lambda: random_instance(FUZZ_SIGNATURE, 4, 16, seed=seed)


def _snapshot(result, supply):
    return (
        result.instance.atoms(),
        result.records(),
        result.levels_completed,
        result.terminated,
        {a: result.atom_level(a) for a in result.instance},
        supply.position,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_chase_engines_match_naive(seed):
    rules, make = _case(seed)
    for budget in (len(make()) + 8, 300):
        for vname, chase, steps in VARIANTS:
            runs = {}
            for ename, engine in [("naive", "naive")] + ENGINES:
                supply = FreshSupply()
                result = chase(
                    make(), rules, max_atoms=budget, supply=supply,
                    engine=engine, **{steps: 5},
                )
                runs[ename] = _snapshot(result, supply)
            for ename, _ in ENGINES:
                assert runs[ename] == runs["naive"], (vname, budget, ename)


@pytest.mark.parametrize("seed", CLOSURE_SEEDS)
def test_closure_engines_match_naive(seed):
    rules, make = _case(seed, existential_probability=0.0)
    reference = semi_naive_closure(make(), rules, engine="naive")
    for ename, engine in ENGINES:
        assert semi_naive_closure(make(), rules, engine=engine) == reference


# ----------------------------------------------------------------------
# answer() against saturate-then-probe
# ----------------------------------------------------------------------

ANSWER_SEEDS = range(40)
STRATEGIES = ("chase", "rewrite", "hybrid", "auto")
ANSWER_LEVELS = 4
ANSWER_ATOMS = 200
#: Small rewriting budgets keep the subsumption checks cheap; a budget
#: stop downgrades a verdict to "sound", which the assertions allow.
REWRITE_BUDGETS = dict(max_rewrite_depth=3, max_disjuncts=16, max_cq_size=6)
QUERY_VARIABLES = [Variable(name) for name in ("q0", "q1", "q2")]
QUERY_CONSTANTS = [Constant(f"C{i}") for i in range(4)]


def _query(rng: random.Random) -> ConjunctiveQuery:
    """One to three atoms over three variables; each argument is one of
    the instance's constants with probability 0.3."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        predicate = rng.choice(FUZZ_SIGNATURE)
        atoms.append(Atom(predicate, tuple(
            rng.choice(QUERY_CONSTANTS)
            if rng.random() < 0.3
            else rng.choice(QUERY_VARIABLES)
            for _ in range(predicate.arity)
        )))
    return ConjunctiveQuery(atoms)


def _draw(seed: int, rng: random.Random):
    """One ``(rules, instance, query)`` draw of ``seed``'s stream."""
    draw = rng.randrange(2**31)
    rules = random_chase_ruleset(
        existential_probability=0.3,
        constant_probability=0.25 if seed % 2 else 0.0,
        seed=draw,
    )
    instance = random_instance(FUZZ_SIGNATURE, 4, 10, seed=draw)
    return rules, instance, _query(rng)


def _reference(instance, rules):
    return oblivious_chase(
        instance, rules, max_levels=ANSWER_LEVELS, max_atoms=ANSWER_ATOMS
    )


@lru_cache(maxsize=None)
def _answer_case(seed: int):
    """The first draw of ``seed``'s stream whose reference chase
    terminates: ``(rules, instance, query, expected)``."""
    rng = random.Random(seed)
    while True:
        rules, instance, query = _draw(seed, rng)
        reference = _reference(instance, rules)
        if reference.terminated:
            return rules, instance, query, entails_cq(reference.instance, query)


def _check_answer(result, expected, label, *, depth_equal: bool):
    # A positive is always certain, whatever the strategy.
    if result.entailed:
        assert expected and result.verdict == "exact", label
    # An exact verdict is conclusive: it equals the ground truth.
    if result.verdict == "exact":
        assert result.entailed == expected, label
    # Only a budget stop excuses a False on an entailed query.
    if expected and not result.entailed:
        assert result.verdict == "sound", label
    # The goal-directed chase is depth-equal to the reference.
    if depth_equal:
        assert result.entailed == expected, label


@pytest.mark.parametrize("seed", ANSWER_SEEDS)
def test_answer_strategies_match_saturate_then_probe(seed):
    rules, instance, query, expected = _answer_case(seed)
    for strategy in STRATEGIES:
        result = answer(
            instance, rules, query, strategy=strategy,
            max_levels=ANSWER_LEVELS, max_atoms=ANSWER_ATOMS,
            **REWRITE_BUDGETS,
        )
        _check_answer(
            result, expected, (strategy, str(query)),
            depth_equal=strategy == "chase",
        )


def test_answer_queries_are_often_not_entailed():
    verdicts = [_answer_case(seed)[3] for seed in ANSWER_SEEDS]
    assert 4 * verdicts.count(False) >= len(verdicts)
    assert verdicts.count(True) >= len(verdicts) // 4


# ----------------------------------------------------------------------
# answer() in seeded decision mode
# ----------------------------------------------------------------------

SEEDED_SEEDS = range(24)
BINDING_KINDS = ("constant", "missing", "null", "inconsistent")
INSTANCE_CONSTANTS = [Constant(f"C{i}") for i in range(4)]
MISSING = Constant("Missing")


def _bindings(kind, answers, query, reference, rng):
    """Values for ``answers``: half the time the image of a match in the
    reference chase (so some requests are entailed), else random."""
    if kind == "inconsistent":
        first, second = rng.sample(INSTANCE_CONSTANTS, 2)
        return (first, second)
    nulls = sorted(t for t in reference.active_domain() if t.is_null)
    pool = nulls if kind == "null" else INSTANCE_CONSTANTS
    images = [
        tuple(hom.apply_term(v) for v in answers)
        for hom in homomorphisms(query.atoms, reference)
    ]
    if kind == "null":
        images = [i for i in images if any(t.is_null for t in i)]
    else:
        images = [i for i in images if all(t.is_constant for t in i)]
    if images and rng.random() < 0.5:
        values = list(rng.choice(sorted(images)))
    else:
        values = [rng.choice(pool) for _ in answers]
        if kind == "null" and not any(t.is_null for t in values):
            values[0] = rng.choice(nulls)
    if kind == "missing":
        values[rng.randrange(len(values))] = MISSING
    return tuple(values)


@lru_cache(maxsize=None)
def _seeded_case(seed: int):
    """The first draw of ``seed``'s stream with a query variable and a
    terminating reference chase (with nulls, for the ``null`` kind),
    its query given answer variables and bindings of ``seed``'s kind:
    ``(rules, instance, query, bindings, kind, expected)``."""
    kind = BINDING_KINDS[seed % len(BINDING_KINDS)]
    rng = random.Random(1_000_003 * (seed + 1))
    while True:
        rules, instance, query = _draw(seed, rng)
        variables = sorted({v for a in query.atoms for v in a.variables()})
        if not variables:
            continue
        reference = _reference(instance, rules)
        if not reference.terminated:
            continue
        if kind == "null" and not any(
            t.is_null for t in reference.instance.active_domain()
        ):
            continue
        if kind == "inconsistent":
            answers = (rng.choice(variables),) * 2
        else:
            answers = tuple(
                rng.sample(variables, rng.randint(1, min(2, len(variables))))
            )
        query = ConjunctiveQuery(query.atoms, answers)
        bindings = _bindings(kind, answers, query, reference.instance, rng)
        expected = entails_cq(reference.instance, query, bindings)
        return rules, instance, query, bindings, kind, expected


@pytest.mark.parametrize("seed", SEEDED_SEEDS)
def test_seeded_answers_match_saturate_then_probe(seed):
    rules, instance, query, bindings, kind, expected = _seeded_case(seed)
    # A null is named alike in the reference chase and in an unpruned
    # goal-directed chase (same firing order); relevance pruning and the
    # rewriting, which reads the base instance, name no nulls.
    runs = [("chase", False)] if kind == "null" else [
        (strategy, True) for strategy in STRATEGIES
    ]
    for strategy, prune in runs:
        result = answer(
            instance, rules, query, bindings, strategy=strategy,
            prune=prune, max_levels=ANSWER_LEVELS, max_atoms=ANSWER_ATOMS,
            **REWRITE_BUDGETS,
        )
        label = (strategy, kind, str(query), bindings)
        _check_answer(
            result, expected, label, depth_equal=strategy == "chase"
        )
        if kind == "inconsistent" and strategy == "chase":
            assert result.evidence["kind"] == "inconsistent_binding", label


def test_seeded_draws_cover_each_binding_kind():
    cases = [_seeded_case(seed) for seed in SEEDED_SEEDS]
    for kind in ("constant", "null"):
        verdicts = [case[5] for case in cases if case[4] == kind]
        assert True in verdicts and False in verdicts, kind
    assert not any(case[5] for case in cases if case[4] == "missing")
    assert any(
        len(case[3]) > 1 for case in cases if case[4] in ("constant", "null")
    )


# ----------------------------------------------------------------------
# answer() stopped by a tight atom budget
# ----------------------------------------------------------------------

TIGHT_SEEDS = range(40)
#: Atoms over the instance's size: most runs stop mid-round.
TIGHT_MARGIN = 4


@pytest.mark.parametrize("seed", TIGHT_SEEDS)
def test_budget_stopped_chase_decides_its_prefix(seed):
    # Boolean draws of any seed's stream (terminating or not), then the
    # seeded draw of the same seed.
    rules, instance, query = _draw(seed, random.Random(seed))
    seeded_rules, seeded_instance, seeded_query, bindings, _, _ = (
        _seeded_case(seed % len(SEEDED_SEEDS))
    )
    for rules, instance, query, bindings in (
        (rules, instance, query, ()),
        (seeded_rules, seeded_instance, seeded_query, bindings),
    ):
        result = answer(
            instance, rules, query, bindings, strategy="chase",
            max_levels=ANSWER_LEVELS, max_atoms=len(instance) + TIGHT_MARGIN,
        )
        prefix = instance if result.chase is None else result.chase.instance
        assert result.entailed == entails_cq(prefix, query, bindings), (
            str(query), bindings, result.evidence,
        )
