"""Unit tests for the corpus, generators, text rendering and serialization."""

import pytest

from repro.corpus.examples import bdd_corpus, full_corpus
from repro.corpus.generators import (
    cycle_instance,
    path_instance,
    random_digraph_instance,
    random_instance,
    random_nonrecursive_ruleset,
    tournament_instance,
)
from repro.io.serialization import (
    cq_from_dict,
    cq_to_dict,
    instance_from_dict,
    instance_to_dict,
    rule_from_dict,
    rule_to_dict,
    ruleset_from_dict,
    ruleset_to_dict,
    ucq_from_dict,
    ucq_to_dict,
)
from repro.io.text import format_instance, format_ruleset, format_table
from repro.logic.predicates import EDGE, Predicate
from repro.queries.ucq import UCQ
from repro.rules.acyclicity import is_non_recursive
from repro.rules.parser import parse_instance, parse_query, parse_rules


class TestCorpus:
    def test_all_entries_have_distinct_names(self):
        names = [entry.name for entry in full_corpus()]
        assert len(names) == len(set(names))

    def test_bdd_subset(self):
        assert all(entry.is_bdd for entry in bdd_corpus())
        assert len(bdd_corpus()) < len(full_corpus())

    def test_entries_chase_safely(self):
        from repro.chase.oblivious import oblivious_chase

        for entry in full_corpus():
            result = oblivious_chase(
                entry.instance, entry.rules, max_levels=2, max_atoms=5_000
            )
            assert len(result.instance) >= 1


class TestGenerators:
    def test_path_shape(self):
        inst = path_instance(4)
        assert len(inst.with_predicate(EDGE)) == 4

    def test_cycle_shape(self):
        inst = cycle_instance(4)
        assert len(inst.with_predicate(EDGE)) == 4

    def test_tournament_covers_all_pairs(self):
        inst = tournament_instance(5, seed=0)
        assert len(inst.with_predicate(EDGE)) == 10

    def test_tournament_deterministic_by_seed(self):
        assert tournament_instance(5, seed=3) == tournament_instance(5, seed=3)
        assert tournament_instance(5, seed=3) != tournament_instance(5, seed=4)

    def test_random_digraph_probability_extremes(self):
        empty = random_digraph_instance(4, 0.0, seed=0)
        full = random_digraph_instance(4, 1.0, seed=0)
        assert len(empty.with_predicate(EDGE)) == 0
        assert len(full.with_predicate(EDGE)) == 12  # no loops

    def test_random_instance_respects_signature(self):
        sig = [Predicate("P", 1), Predicate("Q", 2)]
        inst = random_instance(sig, n_terms=3, n_atoms=10, seed=1)
        assert inst.signature() <= set(sig) | {Predicate("top", 0)}

    def test_nonrecursive_generator_is_bdd_certified(self):
        for seed in range(3):
            rules = random_nonrecursive_ruleset(seed=seed)
            assert is_non_recursive(rules)

    def test_nonrecursive_generator_deterministic(self):
        assert random_nonrecursive_ruleset(seed=5) == random_nonrecursive_ruleset(seed=5)


class TestTextRendering:
    def test_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["longer", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]

    def test_instance_truncation(self):
        inst = path_instance(100)
        rendered = format_instance(inst, limit=5)
        assert "more atoms" in rendered

    def test_ruleset_rendering_numbered(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)", name="r")
        rendered = format_ruleset(rules)
        assert rendered.startswith("# r")
        assert "[0]" in rendered


class TestSerialization:
    def test_instance_roundtrip(self):
        inst = parse_instance("E(a,b), P(c)")
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_rule_roundtrip(self):
        rule = parse_rules("E(x,y) -> exists z. E(y,z)").rules()[0]
        assert rule_from_dict(rule_to_dict(rule)) == rule

    def test_rule_with_null_in_head_is_rejected(self):
        data = {
            "body": [{"predicate": "E", "args": [
                {"kind": "variable", "name": "x"},
                {"kind": "null", "name": "n0"},
            ]}],
            "head": [{"predicate": "F", "args": [
                {"kind": "variable", "name": "x"},
                {"kind": "null", "name": "n0"},
            ]}],
            "label": "",
        }
        with pytest.raises(ValueError, match="labelled null"):
            rule_from_dict(data)
        # The same null in the body alone is a rule.
        data["head"][0]["args"].pop()
        assert len(rule_from_dict(data).body) == 1

    def test_ruleset_roundtrip(self):
        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y), E(y,z) -> E(x,z)
            """,
            name="pair",
        )
        restored = ruleset_from_dict(ruleset_to_dict(rules))
        assert restored == rules and restored.name == "pair"

    def test_cq_roundtrip(self):
        q = parse_query("E(x,y), E(y,z)", answers=("x", "z"))
        assert cq_from_dict(cq_to_dict(q)) == q

    def test_ucq_roundtrip(self):
        query = UCQ(
            [parse_query("E(x,y)"), parse_query("E(x,y), E(y,z)")],
            answers=(),
        )
        assert ucq_from_dict(ucq_to_dict(query)) == query

    def test_json_compatible(self):
        import json

        inst = parse_instance("E(a,b)")
        assert json.loads(json.dumps(instance_to_dict(inst))) == instance_to_dict(inst)
