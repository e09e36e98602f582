"""Unit tests for the streamlining surgery ▽ (§4.3)."""

import pytest

from repro.logic.atoms import edge
from repro.logic.instances import Instance
from repro.logic.terms import Constant
from repro.rules.classes import (
    is_forward_existential,
    is_predicate_unique,
)
from repro.rules.parser import parse_instance, parse_rules
from repro.surgery.streamline import (
    streamline,
    streamline_chase_equivalent,
    streamline_rule,
    streamline_triples,
)


class TestStreamlineRule:
    def _triple(self):
        rule = parse_rules("E(x,y) -> exists z. E(y,z)").rules()[0]
        return streamline_rule(rule, tag="t")

    def test_triple_shapes(self):
        triple = self._triple()
        assert not triple.init.is_datalog
        assert not triple.existential.is_datalog
        assert triple.datalog.is_datalog

    def test_init_head_is_stage_one(self):
        triple = self._triple()
        names = {a.predicate.name for a in triple.init.head}
        assert names == {"A_t_0", "A_t_y"}

    def test_existential_body_matches_init_head(self):
        triple = self._triple()
        assert triple.existential.body == triple.init.head

    def test_datalog_body_matches_existential_head(self):
        triple = self._triple()
        assert triple.datalog.body == triple.existential.head

    def test_datalog_head_is_original_head(self):
        triple = self._triple()
        assert triple.datalog.head == triple.source.head

    def test_datalog_rule_rejected(self):
        rule = parse_rules("E(x,y), E(y,z) -> E(x,z)").rules()[0]
        with pytest.raises(ValueError):
            streamline_rule(rule, tag="t")

    def test_w_variable_fresh(self):
        rule = parse_rules("E(w,y) -> exists z. E(y,z)").rules()[0]
        triple = streamline_rule(rule, tag="t")
        # The fresh anchor must avoid the rule's own 'w'.
        init_vars = {v.name for v in triple.init.existential_variables()}
        assert init_vars == {"w_0"}


class TestStreamlineRuleset:
    def test_lemma25_structural_properties(self):
        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,xp), E(y,yp) -> E(x,yp)
            """
        )
        streamlined = streamline(rules)
        assert is_forward_existential(streamlined)
        assert is_predicate_unique(streamlined)

    def test_datalog_rules_kept_verbatim(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        assert streamline(rules) == rules

    def test_rule_count(self):
        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y), E(y,z) -> E(x,z)
            """
        )
        # 1 existential rule -> 3, plus 1 Datalog kept.
        assert len(streamline(rules)) == 4

    def test_triples_only_for_existential_rules(self):
        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y), E(y,z) -> E(x,z)
            """
        )
        assert len(streamline_triples(rules)) == 1

    def test_lemma24_chase_preserved_linear(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        assert streamline_chase_equivalent(
            rules, parse_instance("E(a,b)"), max_levels=2
        )

    def test_lemma24_chase_preserved_without_top(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        instance = Instance(
            [edge(Constant("a"), Constant("b"))], add_top=False
        )
        assert streamline_chase_equivalent(rules, instance)

    def test_lemma24_chase_preserved_terminating(self):
        rules = parse_rules("P(x,y) -> exists z. Q(y,z)")
        assert streamline_chase_equivalent(
            rules, parse_instance("P(a,b)"), max_levels=3
        )

    def test_lemma24_with_datalog_interplay(self):
        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y), E(y,z) -> F(x,z)
            """
        )
        assert streamline_chase_equivalent(
            rules, parse_instance("E(a,b)"), max_levels=2
        )

    def test_multi_frontier_rule(self):
        rules = parse_rules("E(x,y), E(y,u) -> exists z. F(y,z), G(u,z)")
        streamlined = streamline(rules)
        assert is_forward_existential(streamlined)
        assert is_predicate_unique(streamlined)
        assert streamline_chase_equivalent(
            rules, parse_instance("E(a,b), E(b,c)"), max_levels=2
        )
