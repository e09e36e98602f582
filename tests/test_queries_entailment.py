"""Unit tests for entailment, injective entailment and certain answers."""

from repro.logic.terms import Constant
from repro.queries.entailment import answers, entails_cq, entails_ucq
from repro.queries.ucq import UCQ
from repro.rules.parser import parse_instance, parse_query, parse_rules
from repro.serving import answer

C = Constant


class TestEntailsCQ:
    def test_boolean_match(self):
        inst = parse_instance("E(a,b), E(b,c)")
        assert entails_cq(inst, parse_query("E(x,y), E(y,z)"))

    def test_boolean_no_match(self):
        inst = parse_instance("E(a,b), E(c,d)")
        assert not entails_cq(inst, parse_query("E(x,y), E(y,z)"))

    def test_bindings_pin_answers(self):
        inst = parse_instance("E(a,b)")
        q = parse_query("E(x,y)", answers=("x", "y"))
        assert entails_cq(inst, q, (C("a"), C("b")))
        assert not entails_cq(inst, q, (C("b"), C("a")))

    def test_loop_query(self):
        assert entails_cq(parse_instance("E(a,a)"), parse_query("E(x,x)"))
        assert not entails_cq(
            parse_instance("E(a,b)"), parse_query("E(x,x)")
        )

    def test_injective_entailment(self):
        loop = parse_instance("E(a,a)")
        two_step = parse_query("E(x,y), E(y,z)")
        assert entails_cq(loop, two_step)
        assert not entails_cq(loop, two_step, injective=True)

    def test_incompatible_bindings_fail_gracefully(self):
        inst = parse_instance("E(a,b)")
        q = parse_query("E(x,x)", answers=("x", "x"))
        assert not entails_cq(inst, q, (C("a"), C("b")))


class TestEntailsUCQ:
    def test_any_disjunct_suffices(self):
        inst = parse_instance("E(a,b)")
        q_match = parse_query("E(x,y)")
        q_miss = parse_query("P(x)")
        assert entails_ucq(inst, UCQ([q_miss, q_match], answers=()))

    def test_no_disjunct_matches(self):
        inst = parse_instance("Q(a)")
        assert not entails_ucq(
            inst, UCQ([parse_query("P(x)")], answers=())
        )


class TestAnswers:
    def test_enumerates_tuples(self):
        inst = parse_instance("E(a,b), E(b,c)")
        q = parse_query("E(x,y)", answers=("x",))
        assert answers(inst, q) == {(C("a"),), (C("b"),)}


class TestCertainAnswer:
    def test_chase_derived_fact(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        inst = parse_instance("E(a,b)")
        # b has an outgoing edge only after the chase.
        q = parse_query("E(x,y), E(y,z)")
        assert answer(
            inst, rules, q, strategy="chase", max_levels=2
        ).entailed

    def test_non_entailed_fact(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        inst = parse_instance("E(a,b)")
        assert not answer(
            inst, rules, parse_query("E(x,x)"), strategy="chase", max_levels=3
        ).entailed

    def test_example1_loop_not_entailed(self):
        # Example 1: the chase never produces a loop.
        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y), E(y,z) -> E(x,z)
            """
        )
        assert not answer(
            parse_instance("E(a,b)"),
            rules,
            parse_query("E(x,x)"),
            strategy="chase",
            max_levels=4,
        ).entailed

    def test_bdd_variant_loop_entailed(self):
        # The bdd-ified Example 1 entails the loop (Property p in action).
        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,xp), E(y,yp) -> E(x,yp)
            """
        )
        assert answer(
            parse_instance("E(a,b)"),
            rules,
            parse_query("E(x,x)"),
            strategy="chase",
            max_levels=3,
        ).entailed
