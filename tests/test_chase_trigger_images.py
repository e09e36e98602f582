"""Triggers built from images, and the round's shared ground heads.

Delta rounds build each trigger from its rule and its image
(:meth:`Trigger.from_image`) and derive the mapping on first read; the
object-matcher paths build ``Trigger(rule, hom)``.  Here the two are
checked for parity — equality, hash, mapping, ``repr`` and pickling
across hash seeds — on every match of a set of rule sets, including an
instance holding a variable equal to a rule variable.  The rest pins
:func:`~repro.chase.trigger.round_triggers`' shared heads: one frozenset
per distinct head in a round, counted in ``INSTANTIATION_STATS`` when a
trigger's :meth:`~Trigger.output` hands it out.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from repro.chase.trigger import (
    Trigger,
    new_triggers_of,
    round_triggers,
    triggers_of,
)
from repro.corpus.generators import (
    FUZZ_SIGNATURE,
    random_chase_ruleset,
    random_instance,
    tournament_instance,
)
from repro.engine.core import round_matches
from repro.logic.atoms import TOP_ATOM, Atom
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.terms import Constant, FreshSupply, Variable
from repro.rules.parser import parse_instance, parse_rules
from repro.rules.rule import INSTANTIATION_STATS

REPO = pathlib.Path(__file__).resolve().parents[1]


def _variable_instance():
    """``E(x, B), E(B, x)`` with ``x`` the rule's own variable: the
    image maps ``x`` to itself, and the mapping drops the pair."""
    x, b = Variable("x"), Constant("B")
    edge = Predicate("E", 2)
    return Instance([Atom(edge, (x, b)), Atom(edge, (b, x))])


CASES = [
    (
        "transitivity",
        parse_rules("E(x,y), E(y,z) -> E(x,z)"),
        lambda: tournament_instance(5, seed=1),
    ),
    (
        "succ_overlay",
        parse_rules("E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)"),
        lambda: tournament_instance(4, seed=2),
    ),
    (
        "constants_and_repeats",
        parse_rules("E(x,A), E(y,y) -> F(x,y,B)\nE(x,x) -> G(x)"),
        lambda: parse_instance("E(a,A), E(b,A), E(b,b), E(c,c), E(A,A)"),
    ),
    (
        "variable_in_instance",
        parse_rules("E(x,y) -> F(x,y)\nE(x,y), E(y,x) -> G(y)"),
        _variable_instance,
    ),
] + [
    (
        f"fuzz_{seed}",
        random_chase_ruleset(
            constant_probability=0.25 if seed % 2 else 0.0, seed=seed
        ),
        lambda seed=seed: random_instance(FUZZ_SIGNATURE, 4, 12, seed=seed),
    )
    for seed in range(4)
]
CASE_IDS = [case[0] for case in CASES]


def _pairs(rules, instance):
    """``(image-built, hom-built)`` per match: the kernel's triggers
    against the object matcher's."""
    built = {t: t for t in new_triggers_of(instance, rules, instance)}
    pairs = [(built[ref], ref) for ref in triggers_of(instance, rules)]
    assert len(built) == len({ref for _, ref in pairs})
    return pairs


@pytest.mark.parametrize("name,rules,make", CASES, ids=CASE_IDS)
def test_image_built_triggers_match_hom_built(name, rules, make):
    pairs = _pairs(rules, make())
    assert pairs
    for made, ref in pairs:
        assert made._mapping is None  # not derived until read
        assert made == ref and ref == made
        assert hash(made) == hash(ref)
        assert made.image() == ref.image()
        assert made.mapping == ref.mapping
        assert made._mapping is made.mapping  # derived once, then kept
        assert repr(made) == repr(ref)
        assert made.frontier_image() == ref.frontier_image()


def test_identity_pair_is_dropped():
    rules = parse_rules("E(x,y) -> F(x,y)")
    (rule,) = rules
    x = Variable("x")
    made = {
        t.image(): t for t in new_triggers_of(
            _variable_instance(), rules, _variable_instance()
        )
    }
    trigger = made[(x, Constant("B"))]
    assert trigger.mapping.as_dict() == {Variable("y"): Constant("B")}
    assert x not in trigger.mapping
    assert trigger == Trigger(rule, trigger.mapping)


def test_pickled_triggers_survive_another_hash_seed():
    # Pickled under PYTHONHASHSEED=1, loaded under 2: image-built and
    # hom-built triggers of the same matches stay equal to (and hash
    # like) the reader's own, with the same mapping and repr.
    make = (
        "from repro.chase.trigger import new_triggers_of, triggers_of\n"
        "from repro.corpus.generators import tournament_instance\n"
        "from repro.rules.parser import parse_rules\n"
        "rules = parse_rules('E(x,y) -> exists z. E(y,z)\\n"
        "E(x,y), E(y,z) -> F(x,z)')\n"
        "inst = tournament_instance(4, seed=2)\n"
        "made = sorted(new_triggers_of(inst, rules, inst), key=repr)\n"
        "refs = sorted(triggers_of(inst, rules), key=repr)\n"
    )
    writer = make + (
        "import pickle, sys\n"
        "made[1].mapping  # one image-built trigger pickles its mapping\n"
        "pickle.dump((made, refs), open(sys.argv[1], 'wb'))\n"
    )
    reader = make + (
        "import pickle, sys\n"
        "loaded_made, loaded_refs = pickle.load(open(sys.argv[1], 'rb'))\n"
        "assert len(loaded_made) == len(made) > 2\n"
        "for loaded in (loaded_made, loaded_refs):\n"
        "    for old, new in zip(loaded, made):\n"
        "        assert old == new and hash(old) == hash(new)\n"
        "        assert old.mapping == new.mapping\n"
        "        assert repr(old) == repr(new)\n"
        "    assert set(loaded) == set(made) == set(refs)\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        blob = pathlib.Path(tmp) / "triggers.pickle"
        for seed, script in (("1", writer), ("2", reader)):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=str(REPO / "src"),
            )
            subprocess.run(
                [sys.executable, "-c", script, str(blob)],
                check=True,
                env=env,
                cwd=REPO,
                timeout=60,
            )


# ----------------------------------------------------------------------
# Shared ground heads
# ----------------------------------------------------------------------


def _atoms(text):
    return frozenset(parse_instance(text).atoms()) - {TOP_ATOM}


def _round(rules, instance):
    """The triggers of one ``enumerate`` round over the whole instance."""
    rules = list(rules)
    triggers, _ = round_triggers(
        rules, round_matches("enumerate", rules, instance, None)
    )
    return triggers


def test_triggers_grounding_one_head_share_one_frozenset():
    # Two 2-paths reach F(a,d), and both rules ground G(a) alike.
    rules = parse_rules(
        "E(x,y), E(y,z) -> F(x,z), G(x)\nE(x,y), H(y) -> G(x)"
    )
    instance = parse_instance("E(a,b), E(b,d), E(a,c), E(c,d), H(b)")
    triggers = _round(rules, instance)
    supply = FreshSupply()
    heads = {}
    for trigger in triggers:
        head, created = trigger.output(supply)
        assert created == {}
        assert head == frozenset(
            trigger.rule.instantiate_head(trigger.mapping)
        )
        heads.setdefault(head, []).append(head)
    paths = heads[_atoms("F(a,d), G(a)")]
    assert len(paths) == 2 and paths[0] is paths[1]
    # G(a) from the second rule: one Atom object for the whole round.
    (g_head,) = heads[_atoms("G(a)")]
    (g_atom,) = g_head
    assert any(g_atom is atom for atom in paths[0])
    assert supply.position == 0


def test_shared_heads_count_when_handed_out():
    rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
    instance = tournament_instance(5, seed=3)
    INSTANTIATION_STATS.reset()
    triggers = _round(rules, instance)
    assert len(triggers) > 3
    assert INSTANTIATION_STATS.heads == 0
    for count, trigger in enumerate(triggers[:3], start=1):
        trigger.output(FreshSupply())
        assert INSTANTIATION_STATS.heads == count
    # A head a claim parked on _ground_output wins and is not counted
    # again.
    parked = triggers[3]
    parked._ground_output = parked.rule.instantiate_head(parked.mapping)
    assert INSTANTIATION_STATS.heads == 4
    assert parked.output(FreshSupply())[0] is parked._ground_output
    assert INSTANTIATION_STATS.heads == 4


def test_pruned_round_counts_one_head_per_image():
    # The restricted chase's round counts one instantiation per image,
    # as the kernel returned them, and parks the survivors' heads.
    rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
    instance = parse_instance(
        "E(a,b), E(b,c), E(c,d), E(a,c), E(a,e), E(e,d)"
    )
    (images,) = round_matches(
        "enumerate_unsatisfied", list(rules), instance, None
    )
    INSTANTIATION_STATS.reset()
    triggers, _ = round_triggers(
        list(rules), [images + images[:1]], "enumerate_unsatisfied"
    )
    assert INSTANTIATION_STATS.heads == len(images) + 1
    assert len(triggers) == len(images)
    for trigger in triggers:
        assert trigger._ground_output == frozenset(
            trigger.rule.instantiate_head(trigger.mapping)
        )
        assert trigger.output(FreshSupply())[0] is trigger._ground_output
    assert INSTANTIATION_STATS.heads == 2 * len(images) + 1
