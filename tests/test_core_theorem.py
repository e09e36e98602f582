"""Unit tests for the Property (p) verifier and timestamp structure."""

import pytest

from repro.chase.oblivious import oblivious_chase
from repro.core.egraph import egraph
from repro.core.theorem import PropertyPReport, check_property_p
from repro.core.tournament import entails_loop, max_tournament_size
from repro.core.timestamps import (
    datalog_factorization_equivalent,
    existential_chase,
    existential_chase_is_dag,
    timestamps_increase_along_edges,
)
from repro.corpus import bdd_corpus
from repro.corpus.examples import (
    example_1,
    example_1_bdd,
    infinite_path,
    tournament_builder,
)
from repro.corpus.generators import (
    growing_tournament_ruleset,
    random_instance,
    random_nonrecursive_ruleset,
)
from repro.logic.instances import Instance
from repro.logic.predicates import EDGE
from repro.rules.acyclicity import stratification
from repro.rules.parser import parse_instance, parse_rules
from repro.surgery.streamline import streamline


class TestPropertyP:
    def test_example1_refutation_pattern_without_bdd(self):
        """Example 1 grows tournaments with no loop — allowed because it is
        NOT bdd; the report flags the pattern."""
        entry = example_1()
        report = check_property_p(entry.rules, entry.instance, max_levels=5)
        assert report.tournaments_growing
        assert not report.loop_entailed
        assert not report.consistent_with_property_p

    def test_example1_bdd_is_consistent(self):
        entry = example_1_bdd()
        report = check_property_p(entry.rules, entry.instance, max_levels=4)
        assert report.loop_entailed
        assert report.consistent_with_property_p

    def test_tournament_builder_loop_level(self):
        entry = tournament_builder()
        report = check_property_p(entry.rules, max_levels=4)
        assert report.loop_entailed
        assert report.max_tournament >= 3

    def test_infinite_path_caps_at_two(self):
        entry = infinite_path()
        report = check_property_p(entry.rules, entry.instance, max_levels=5)
        assert report.max_tournament == 2
        assert not report.loop_entailed
        assert report.consistent_with_property_p

    def test_terminating_chase_always_consistent(self):
        rules = parse_rules("P(x,y) -> exists z. Q(y,z)")
        report = check_property_p(rules, max_levels=5)
        assert report.terminated
        assert report.consistent_with_property_p

    def test_summary_row_shape(self):
        entry = infinite_path()
        report = check_property_p(entry.rules, entry.instance, max_levels=4)
        row = report.summary_row()
        assert len(row) == 4


def _per_prefix_report(rules, instance, max_levels, max_atoms, predicate):
    """Property (p) measured on every prefix ``Ch_k`` rebuilt on its own:
    ``result.prefix(k)``, its ``egraph`` and ``max_tournament_size``, and
    ``entails_loop`` on the prefix."""
    start = instance if instance is not None else Instance()
    result = oblivious_chase(
        start, rules, max_levels=max_levels, max_atoms=max_atoms
    )
    report = PropertyPReport(
        levels=result.levels_completed, terminated=result.terminated
    )
    for level in range(result.levels_completed + 1):
        prefix = result.prefix(level)
        report.tournament_sizes.append(
            max_tournament_size(egraph(prefix, predicate))
        )
        if report.loop_level is None and entails_loop(prefix, predicate):
            report.loop_level = level
    return report


def _random_rows():
    """Seeded random non-recursive rule sets on a random database of
    their bottom stratum, read on ``E`` (which they never mention) and on
    a predicate of their top stratum."""
    rows = []
    for seed in range(8):
        rules = random_nonrecursive_ruleset(seed=seed)
        strata = stratification(rules)
        bottom = sorted(strata[0], key=str)
        database = random_instance(bottom, n_terms=4, n_atoms=6, seed=seed)
        top = sorted(strata[-1], key=str)[0]
        for predicate in (EDGE, top):
            rows.append((
                f"random_{seed}_{predicate.name}", rules, database, 4,
                100_000, predicate,
            ))
    return rows


#: ``(id, rules, instance, max_levels, max_atoms, predicate)`` per case.
PROPERTY_P_ROWS = [
    (entry.name, entry.rules, entry.instance, 5, 100_000, EDGE)
    for entry in bdd_corpus()
] + _random_rows() + [
    (f"growing_tournament_{k}", growing_tournament_ruleset(k), None, 6,
     100_000, EDGE)
    for k in (1, 2, 3)
] + [
    ("example_1", example_1().rules, example_1().instance, 6, 100_000, EDGE),
    (
        "loop_at_level_2",
        parse_rules("E(x,y) -> G(y,x)\nE(x,y), G(y,x) -> E(x,x)"),
        parse_instance("E(a,b)"),
        4,
        100_000,
        EDGE,
    ),
    (
        "example1_bdd_budget",
        example_1_bdd().rules, example_1_bdd().instance, 5, 5, EDGE,
    ),
    ("example_1_budget", example_1().rules, example_1().instance, 10, 200,
     EDGE),
]


class TestPropertyPMatchesThePerPrefixReference:
    @pytest.mark.parametrize(
        "rules,instance,max_levels,max_atoms,predicate",
        [row[1:] for row in PROPERTY_P_ROWS],
        ids=[row[0] for row in PROPERTY_P_ROWS],
    )
    def test_report(self, rules, instance, max_levels, max_atoms, predicate):
        report = check_property_p(
            rules, instance, max_levels=max_levels, max_atoms=max_atoms,
            predicate=predicate,
        )
        reference = _per_prefix_report(
            rules, instance, max_levels, max_atoms, predicate
        )
        assert report.levels == reference.levels
        assert report.terminated == reference.terminated
        assert report.tournament_sizes == reference.tournament_sizes
        assert report.loop_level == reference.loop_level

    def test_the_cases_cover_loops_budget_stops_and_tournaments(self):
        reports = {
            name: check_property_p(
                rules, instance, max_levels=levels, max_atoms=atoms,
                predicate=predicate,
            )
            for name, rules, instance, levels, atoms, predicate
            in PROPERTY_P_ROWS
        }
        assert reports["loop_at_level_2"].loop_level == 2
        # The budget stops end part-way through a level.  Example 1's bdd
        # variant stops inside level 2, which adds a loop and a
        # 3-tournament: neither belongs to a completed prefix.
        stopped = reports["example1_bdd_budget"]
        assert (stopped.levels, stopped.terminated) == (1, False)
        assert stopped.tournament_sizes == [2, 2]
        assert stopped.loop_level is None
        assert not reports["example_1_budget"].terminated
        assert reports["example_1_budget"].levels == 6
        assert reports["example_1"].tournaments_growing
        assert any(
            report.max_tournament > 0
            for name, report in reports.items()
            if name.startswith("random_") and not name.endswith("_E")
        )


class TestTimestampStructure:
    def test_observation35_on_streamlined_builder(self):
        rules = streamline(tournament_builder().rules)
        result = existential_chase(rules, max_levels=4)
        assert existential_chase_is_dag(result)
        assert timestamps_increase_along_edges(result)

    def test_observation35_on_forward_existential_rules(self):
        rules = parse_rules(
            """
            top -> exists x. A(x)
            A(x) -> exists y. E(x,y)
            E(x,y) -> exists z. E(y,z)
            """
        )
        result = existential_chase(rules, max_levels=4)
        assert existential_chase_is_dag(result)
        assert timestamps_increase_along_edges(result)

    def test_non_forward_rules_can_cycle(self):
        # A backward head breaks the DAG property — the checker sees it.
        rules = parse_rules(
            """
            top -> exists x, y. E(x,y)
            E(x,y) -> exists z. E(z,x), E(x,z)
            """
        )
        result = existential_chase(rules, max_levels=3)
        assert not timestamps_increase_along_edges(result)

    def test_lemma33_on_builder(self):
        entry = tournament_builder()
        assert datalog_factorization_equivalent(
            entry.rules, max_levels=3, datalog_levels=6
        )

    def test_lemma33_needs_quickness(self):
        """Streamlining alone is not quick, and Lemma 33 can fail on its
        chase prefixes — the reason Section 4.4 adds body rewriting."""
        rules = streamline(tournament_builder().rules)
        assert not datalog_factorization_equivalent(
            rules, max_levels=4, datalog_levels=8
        )

    def test_lemma33_on_regal_builder(self, builder_regal):
        """On the regal (quick) rule set the factorization holds."""
        assert datalog_factorization_equivalent(
            builder_regal, max_levels=3, datalog_levels=8
        )
