"""Unit tests for the restricted chase and chase bounds helpers."""

import pytest

from repro.chase.bounds import growth_curve, suggested_level_budget
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.engine import EngineConfig
from repro.logic.atoms import atom
from repro.logic.terms import Constant, Null, Variable
from repro.rules.parser import parse_instance, parse_rules
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


class TestNullsInRules:
    def test_null_in_head_is_rejected_before_engines_can_disagree(self):
        # E(x, n0) -> F(x, n0) on {E(a,b)} once gave F(a, b) under the
        # kernel engines (which bind a body null like a variable, also
        # in the head) and F(a, n0) under ``naive``; such a rule is no
        # longer constructible.
        n0, x = Null("n0"), Variable("x")
        with pytest.raises(ValueError, match="labelled null"):
            Rule([atom("E", x, n0)], [atom("F", x, n0)])

    @pytest.mark.parametrize("chase", [
        oblivious_chase, semi_oblivious_chase, restricted_chase
    ])
    def test_body_null_matches_like_a_variable_on_every_engine(self, chase):
        n0, x = Null("n0"), Variable("x")
        rules = RuleSet([Rule([atom("E", x, n0)], [atom("F", x)])])
        results = [
            chase(parse_instance("E(a,b)"), rules, 3, engine=engine).instance
            for engine in (
                "naive", "delta", EngineConfig("persistent", workers=2)
            )
        ]
        assert results[0] == results[1] == results[2]
        assert atom("F", Constant("a")) in results[0]


class TestRestrictedChase:
    def test_satisfied_trigger_not_fired(self):
        # E(a,b) with existing successor: restricted chase adds nothing.
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        inst = parse_instance("E(a,b), E(b,a)")
        result = restricted_chase(inst, rules, max_rounds=5)
        assert result.terminated
        assert len(result.instance) == len(inst)

    def test_unsatisfied_trigger_fires(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        inst = parse_instance("E(a,b)")
        result = restricted_chase(inst, rules, max_rounds=2)
        assert len(result.instance) > len(inst)

    def test_restricted_smaller_than_oblivious(self):
        # Terminating case: P(a,b) with Q present vs absent.
        rules = parse_rules("P(x,y) -> exists z. Q(y,z)")
        inst = parse_instance("P(a,b), Q(b,c)")
        restricted = restricted_chase(inst, rules, max_rounds=5)
        oblivious = oblivious_chase(inst, rules, max_levels=5)
        assert len(restricted.instance) <= len(oblivious.instance)
        assert restricted.terminated

    def test_datalog_restricted_equals_oblivious_closure(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        inst = parse_instance("E(a,b), E(b,c), E(c,d)")
        restricted = restricted_chase(inst, rules, max_rounds=10)
        oblivious = oblivious_chase(inst, rules, max_levels=10)
        assert restricted.instance == oblivious.instance


class TestBounds:
    def test_non_recursive_budget_is_strata_count(self):
        rules = parse_rules(
            """
            P(x,y) -> exists z. Q(y,z)
            Q(x,y) -> exists z. R(y,z)
            """
        )
        assert suggested_level_budget(rules) == 4  # 3 strata + 1

    def test_datalog_budget_scales_with_rules(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        assert suggested_level_budget(rules) >= 3

    def test_default_for_unclassified(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        assert suggested_level_budget(rules, default=7) == 7

    def test_growth_curve_monotone(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        curve = growth_curve(parse_instance("E(a,b)"), rules, max_levels=4)
        atoms = [point.atoms for point in curve]
        assert atoms == sorted(atoms)
        assert curve[0].level == 0
