"""The goal probe's delta checks on the join kernel.

:meth:`GoalProbe.check_delta <repro.serving.goal.GoalProbe.check_delta>`
joins each goal on the instance's id view
(:func:`~repro.engine.core.rule_delta_match`).  Its reference is the
object-matcher loop it replaced: every goal atom in turn is the pivot of
:func:`~repro.logic.homomorphisms.homomorphisms_with_pivot`, with the
delta's same-predicate atoms as its only candidates, until a goal
matches.  Both probes watch one instance, replayed slice by slice from
an oblivious chase of a bdd corpus entry or a
:func:`~repro.corpus.generators.random_chase_ruleset` draw, with Boolean
and seeded goals.  On every call they must agree on the verdict,
``SERVING_STATS.delta_probes`` and ``MATCHER_STATS.searches``, and on
every call that finds no witness, on ``MATCHER_STATS.candidates``.  A
witnessing search stops at its first match: the kernel reaches it
walking rows in id-view order, the object matcher walking atoms in
sorted order, so the candidates each tested may differ.
"""

from __future__ import annotations

import importlib
from functools import lru_cache

import pytest

from repro.chase import oblivious_chase
from repro.corpus.examples import bdd_corpus
from repro.corpus.generators import (
    FUZZ_SIGNATURE,
    random_chase_ruleset,
    random_instance,
)
from repro.logic import MATCHER_STATS
from repro.logic.homomorphisms import homomorphisms_with_pivot
from repro.logic.instances import Instance
from repro.logic.terms import Constant
from repro.rules.parser import parse_instance, parse_query, parse_rules
from repro.serving import SERVING_STATS, GoalProbe, answer

LEVELS = 3
MAX_ATOMS = 400
MISSING = Constant("Missing")


class ObjectMatcherProbe(GoalProbe):
    """``check_delta`` on the object matcher: the reference."""

    def check_delta(self, instance: Instance) -> bool:
        if self.witnessed:
            return True
        delta = instance.delta_since(self._watermark)
        self._watermark = instance.revision
        if not delta:
            return False
        by_predicate: dict = {}
        for atom in delta:
            by_predicate.setdefault(atom.predicate, []).append(atom)
        for goal, seed in self._goals:
            atoms = goal.sorted_body()
            for pivot in atoms:
                candidates = by_predicate.get(pivot.predicate)
                if not candidates:
                    continue
                SERVING_STATS.delta_probes += 1
                match = next(
                    homomorphisms_with_pivot(
                        atoms, instance, pivot, candidates, seed=seed
                    ),
                    None,
                )
                if match is not None:
                    self.witnessed = True
                    return True
        return False


# ----------------------------------------------------------------------
# Cases: rules, a base instance, and the chase slices replayed on it
# ----------------------------------------------------------------------


def _slices(instance, rules):
    """The base atoms, then each chase level's atoms in two halves."""
    chased = oblivious_chase(
        instance, rules, max_levels=LEVELS, max_atoms=MAX_ATOMS
    )
    by_level: dict[int, list] = {}
    for atom in chased.instance:
        by_level.setdefault(chased.atom_level(atom), []).append(atom)
    slices = []
    for level in sorted(by_level):
        atoms = sorted(by_level[level])
        half = (len(atoms) + 1) // 2
        slices += [atoms[:half], atoms[half:]]
    return chased.instance, [s for s in slices if s]


def _goal_sets(rules, final: Instance):
    """Probes to run, each a list of ``(atoms, seed)`` goals.

    Every rule body is a goal: Boolean, with its first variable pinned
    to a term of the last level (a null when the rules have
    existentials), to a base constant, to a constant no atom has, and
    with two variables pinned at once.  The last probe holds every goal,
    as a hybrid request's disjuncts do.
    """
    terms = sorted({t for atom in final for t in atom.args})
    constants = [t for t in terms if t.is_constant] or [MISSING]
    nulls = [t for t in terms if t.is_null] or constants
    probes = []
    for rule in rules:
        atoms = sorted(rule.body)
        variables = sorted({v for a in atoms for v in a.variables()})
        goals = [(atoms, {})]
        if variables:
            first = variables[0]
            goals += [
                (atoms, {first: nulls[-1]}),
                (atoms, {first: constants[0]}),
                (atoms, {first: MISSING}),
            ]
        if len(variables) > 1:
            goals.append(
                (atoms, {variables[0]: constants[-1], variables[-1]: nulls[0]})
            )
        probes += [[goal] for goal in goals]
    probes.append([goal for probe in probes for goal in probe])
    return probes


def _bdd_case(entry):
    return entry.name, entry.rules, entry.instance


def _fuzz_case(seed):
    rules = random_chase_ruleset(
        existential_probability=0.4,
        constant_probability=0.25 if seed % 2 else 0.0,
        seed=seed,
    )
    instance = random_instance(FUZZ_SIGNATURE, 4, 10, seed=seed)
    return f"fuzz_{seed}", rules, instance


CASES = [_bdd_case(entry) for entry in bdd_corpus()] + [
    _fuzz_case(seed) for seed in range(12)
]
CASE_IDS = [case[0] for case in CASES]


def _call(probe, instance):
    """One ``check_delta`` with what it counted."""
    MATCHER_STATS.reset()
    SERVING_STATS.reset()
    found = probe.check_delta(instance)
    return (
        found,
        SERVING_STATS.delta_probes,
        MATCHER_STATS.searches,
        MATCHER_STATS.candidates,
    )


def _replay(goals, slices):
    """Both probes' calls, slice by slice, on one growing instance."""
    instance = Instance(add_top=False)
    kernel, reference = GoalProbe(goals), ObjectMatcherProbe(goals)
    calls = []
    for atoms in slices:
        instance.update(atoms)
        calls.append((_call(kernel, instance), _call(reference, instance)))
    return calls


@lru_cache(maxsize=None)
def _case_replays(index):
    """``(goals, calls)`` for every probe of ``CASES[index]``."""
    _, rules, instance = CASES[index]
    final, slices = _slices(instance, rules)
    return [
        (goals, _replay(goals, slices)) for goals in _goal_sets(rules, final)
    ]


@pytest.mark.parametrize("index", range(len(CASES)), ids=CASE_IDS)
def test_check_delta_matches_the_object_matcher(index):
    witnessed = searched = 0
    for goals, calls in _case_replays(index):
        label = (CASE_IDS[index], [(str(a), s) for a, s in goals])
        for got, want in calls:
            assert got[:3] == want[:3], label
            if not want[0]:
                assert got[3] == want[3], label
            witnessed += want[0] and want[1] > 0
            searched += want[1]
    assert searched > 0
    assert witnessed > 0


def test_seeded_goals_are_witnessed_after_the_base():
    # Pinned slots meet rows the chase added, not only base rows.
    late = sum(
        any(want[0] and want[1] for _, want in calls[2:])
        for index in range(len(CASES))
        for goals, calls in _case_replays(index)
        if any(seed for _, seed in goals)
    )
    assert late >= 10


def test_check_delta_never_reaches_the_object_matcher(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the object matcher ran")

    rules = parse_rules("E(x,y) -> exists z. E(y,z)")
    final, slices = _slices(parse_instance("E(a,b)"), rules)
    matcher = importlib.import_module("repro.logic.homomorphisms")
    monkeypatch.setattr(matcher, "_search", forbidden)
    witnessed = 0
    for goals in _goal_sets(rules, final):
        instance = Instance(add_top=False)
        probe = GoalProbe(goals)
        for atoms in slices:
            instance.update(atoms)
            probe.check_delta(instance)
        witnessed += probe.witnessed
    assert witnessed >= 3


def test_the_callers_instance_gets_no_id_view():
    # The round-0 probe reads the caller's instance on the object
    # matcher; only the chase's own copy is joined through an id view.
    instance = parse_instance("E(a,b), E(b,c)")
    result = answer(
        instance,
        parse_rules("E(x,y), E(y,z) -> E(x,z)"),
        parse_query("E(x,y), E(y,z), E(z,w)"),
        strategy="chase",
    )
    assert result.evidence["kind"] == "chase_fixpoint"
    assert SERVING_STATS.delta_probes > 0
    assert instance._id_view is None
    assert result.chase.instance._id_view is not None


def test_a_request_compiles_each_goal_and_rule_pivot_once(monkeypatch):
    # The kernel keeps each compiled plan on its rule, keyed by the
    # seeded variables, the pivot and the rank pattern of the body
    # predicates' counts.  The hybrid decision E(c14,c14) probes the 7
    # disjuncts of transitivity's rewriting (1 to 7 atoms, one predicate)
    # after every chase round: each goal pivot compiles once for the
    # request, and so does each pivot of the chase rule.
    core = importlib.import_module("repro.engine.core")
    compile_plan = core.compile_plan
    compiled = []

    def counting(ordered, slot_of, pinned, predicates):
        compiled.append((frozenset(ordered), ordered[0], frozenset(pinned)))
        return compile_plan(ordered, slot_of, pinned, predicates)

    monkeypatch.setattr(core, "compile_plan", counting)
    rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
    path = parse_instance(", ".join(f"E(c{i},c{i + 1})" for i in range(16)))
    result = answer(
        path,
        rules,
        parse_query("E(x,y)", answers=("x", "y")),
        (Constant("c14"), Constant("c14")),
        max_rewrite_depth=6,
    )
    assert result.strategy == "hybrid" and not result.entailed
    assert result.chase.levels_completed > 2
    goal_pivots = sum(len(goal) for goal in result.rewriting.ucq)
    rule_pivots = sum(len(rule.body) for rule in rules)
    assert goal_pivots == 28
    assert len(compiled) == len(set(compiled))
    assert len(compiled) <= goal_pivots + rule_pivots


def test_check_delta_converts_the_delta_once_for_every_goal(monkeypatch):
    # Three goals, none witnessed on the first call, share one grouped
    # id-row form of the delta per call; no Instance is constructed.
    goal_module = importlib.import_module("repro.serving.goal")
    delta_rows = goal_module.delta_rows
    converted = []

    def converting(instance, delta):
        converted.append(len(delta))
        return delta_rows(instance, delta)

    instance = parse_instance("E(a,b), E(b,c)")
    edges = sorted(parse_instance("E(c,d), E(d,e)").atoms())[:2]
    goals = [
        (parse_query(text).atoms, {})
        for text in ("E(x,x)", "E(x,y), E(y,x)", "E(x,y), E(y,z), E(z,w), E(w,v)")
    ]
    probe = GoalProbe(goals)
    assert not probe.check_full(instance)
    made = []
    init = Instance.__init__

    def constructing(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(goal_module, "delta_rows", converting)
    monkeypatch.setattr(Instance, "__init__", constructing)
    SERVING_STATS.reset()
    instance.add(edges[0])
    assert not probe.check_delta(instance)
    assert SERVING_STATS.delta_probes == 1 + 2 + 4  # every goal pivot
    instance.add(edges[1])
    assert probe.check_delta(instance)  # the 4-edge path a-b-c-d-e
    assert converted == [1, 1]
    assert made == []
