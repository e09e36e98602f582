"""Unit tests for the breadth-first rewriter and bdd certificates."""

import pytest

from repro.errors import RewritingBudgetExceeded
from repro.obs.trace import RunTrace
from repro.queries.entailment import entails_ucq
from repro.rewriting.bdd import (
    cross_validate_rewriting,
    empirical_bdd_constant,
    ucq_rewritability_certificate,
)
from repro.rewriting.rewriter import rewrite, rewrite_ucq
from repro.queries.ucq import UCQ
from repro.rules.parser import parse_instance, parse_query, parse_rules


class TestFixpoints:
    def test_linear_rule_fixpoint(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        result = rewrite(parse_query("E(x,y), E(y,z)"), rules, max_depth=8)
        assert result.complete

    def test_loop_query_unrewritable_by_forward_rule(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        result = rewrite(parse_query("E(x,x)"), rules, max_depth=8)
        assert result.complete
        assert len(result.ucq) == 1  # only the query itself

    def test_transitivity_never_reaches_fixpoint(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        result = rewrite(
            parse_query("E(x,y)", answers=("x", "y")), rules, max_depth=4
        )
        assert not result.complete

    def test_strict_budget_raises(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        with pytest.raises(RewritingBudgetExceeded):
            rewrite(
                parse_query("E(x,y)", answers=("x", "y")),
                rules,
                max_depth=3,
                strict=True,
            )

    def test_size_drop_is_not_a_fixpoint(self):
        # With max_cq_size=3 the depth-2 candidates of four atoms are
        # dropped, so level 3 adds nothing; transitivity is not bdd, and
        # that empty level must not read as a fixpoint.
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        query = parse_query("E(x,y)", answers=("x", "y"))
        result = rewrite(query, rules, max_cq_size=3)
        assert not result.complete
        # The breadth loop still runs to its empty level: the paths of
        # one to three atoms are kept, the 4-atom candidates dropped.
        assert result.depth == 2
        assert result.generated == 11
        assert sorted(len(d) for d in result.ucq) == [1, 2, 3]
        with pytest.raises(RewritingBudgetExceeded):
            rewrite(query, rules, max_cq_size=3, strict=True)

    def test_size_budget_that_drops_nothing_keeps_completeness(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        query = parse_query("E(x,y), E(y,z)")
        assert rewrite(query, rules, max_depth=8, max_cq_size=2).complete

    def test_datalog_projection_rewritten(self):
        rules = parse_rules("P(x,y) -> E(x,y)")
        result = rewrite(parse_query("E(u,v)"), rules, max_depth=4)
        assert result.complete
        assert len(result.ucq) == 2

    def test_bdd_variant_loop_rewriting(self):
        # Paper Section 1: with the bdd variant, the loop rewrites to
        # "some edge exists".
        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,xp), E(y,yp) -> E(x,yp)
            """
        )
        result = rewrite(parse_query("E(x,x)"), rules, max_depth=8)
        assert result.complete
        rewriting = result.ucq
        assert entails_ucq(parse_instance("E(a,b)"), rewriting)
        assert not entails_ucq(parse_instance("P(a)"), rewriting)

    def test_rewrite_ucq_merges(self):
        rules = parse_rules("P(x,y) -> E(x,y)")
        query = UCQ(
            [parse_query("E(u,v)"), parse_query("P(u,v)")], answers=()
        )
        result = rewrite_ucq(query, rules, max_depth=4)
        assert result.complete


def _levels(*added):
    """The round records of levels whose frontier is one disjunct, level
    ``k`` adding ``added[k - 1]`` disjuncts: (round, plan, delta_atoms,
    triggers, applied, new_atoms)."""
    return [(k, "expand", 1, 1, n, n) for k, n in enumerate(added, 1)]


def _rounds(trace):
    return [
        (
            r["round"],
            r["plan"],
            r["delta_atoms"],
            r["triggers"],
            r["applied"],
            r["new_atoms"],
        )
        for r in trace.rounds
    ]


class TestStopPaths:
    """Every way the breadth loop stops, on transitivity ``E(x,y)`` (level
    ``k`` adds the one ``(k+1)``-atom path), with and without ``strict``:
    the result or the error, and the round records of the levels that
    ran."""

    TC = "E(x,y), E(y,z) -> E(x,z)"

    #: budgets -> ((complete, depth, disjuncts, generated), rounds,
    #: (strict message, depth, partial disjuncts), strict rounds)
    CASES = {
        "depth_0": (
            dict(max_depth=0),
            (False, 0, 1, 0),
            [],
            ("rewriting did not reach a fixpoint within depth 0", 0, 1),
            [],
        ),
        "depth_3": (
            dict(max_depth=3),
            (False, 3, 4, 11),
            _levels(1, 1, 1),
            ("rewriting did not reach a fixpoint within depth 3", 3, 4),
            _levels(1, 1, 1),
        ),
        "disjuncts_3": (
            dict(max_disjuncts=3),
            (False, 3, 4, 5),
            _levels(1, 1, 1),
            ("rewriting exceeded 3 disjuncts", 3, 4),
            _levels(1, 1, 0),
        ),
        "cq_size_3": (
            dict(max_cq_size=3),
            (False, 2, 3, 11),
            _levels(1, 1, 0),
            ("rewriting produced a CQ of size 4 > 3", 3, 3),
            _levels(1, 1, 0),
        ),
    }

    def _query(self):
        return parse_query("E(x,y)", answers=("x", "y"))

    @pytest.mark.parametrize("case", list(CASES))
    def test_budget_stop(self, case):
        budgets, outcome, rounds, _, _ = self.CASES[case]
        trace = RunTrace()
        result = rewrite(
            self._query(), parse_rules(self.TC), trace=trace, **budgets
        )
        assert (
            result.complete,
            result.depth,
            len(result.ucq),
            result.generated,
        ) == outcome
        assert _rounds(trace) == rounds

    @pytest.mark.parametrize("case", list(CASES))
    def test_strict_budget_stop(self, case):
        budgets, _, _, error, rounds = self.CASES[case]
        trace = RunTrace()
        with pytest.raises(RewritingBudgetExceeded) as excinfo:
            rewrite(
                self._query(),
                parse_rules(self.TC),
                strict=True,
                trace=trace,
                **budgets,
            )
        exc = excinfo.value
        assert (str(exc), exc.depth, len(exc.partial_rewriting)) == error
        assert _rounds(trace) == rounds

    @pytest.mark.parametrize("strict", [False, True])
    def test_fixpoint(self, strict):
        # Level 1 adds one disjunct, which subsumes the query (E(y,z)
        # rewritten away); level 2 adds nothing.
        trace = RunTrace()
        result = rewrite(
            parse_query("E(x,y), E(y,z)"),
            parse_rules("E(x,y) -> exists z. E(y,z)"),
            strict=strict,
            trace=trace,
        )
        assert (result.complete, result.depth, len(result.ucq)) == (
            True,
            1,
            1,
        )
        assert _rounds(trace) == _levels(1, 0)


class TestBddCertificates:
    def test_certificate_for_linear(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        cert = ucq_rewritability_certificate(
            parse_query("E(x,y), E(y,z)"), rules
        )
        assert cert is not None
        assert cert.fixpoint_depth >= 1

    def test_no_certificate_for_transitivity(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        cert = ucq_rewritability_certificate(
            parse_query("E(x,y)", answers=("x", "y")),
            rules,
            max_depth=4,
        )
        assert cert is None

    def test_no_certificate_for_a_size_truncated_rewriting(self):
        # Reachability is not bdd: level k adds the one (k+1)-atom path
        # disjunct.  At level 24 the 25-atom candidate exceeds the
        # default max_cq_size and is dropped; the empty level after it
        # is no fixpoint, so no certificate.
        rules = parse_rules("A(x), E(x,y) -> A(y)")
        query = parse_query("A(u)", answers=("u",))
        assert ucq_rewritability_certificate(query, rules, max_depth=30) is None
        result = rewrite(query, rules, max_depth=30)
        assert not result.complete
        assert max(len(d) for d in result.ucq) == 24

    def test_rewrite_ucq_inherits_the_size_drop(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        query = UCQ([parse_query("E(x,y)", answers=("x", "y"))])
        assert not rewrite_ucq(query, rules, max_cq_size=3).complete

    def test_cross_validation_agrees(self):
        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,xp), E(y,yp) -> E(x,yp)
            """
        )
        query = parse_query("E(x,x)")
        cert = ucq_rewritability_certificate(query, rules)
        corpus = [
            parse_instance("E(a,b)"),
            parse_instance("E(a,a)"),
            parse_instance("P(a)"),
            parse_instance("E(a,b), E(c,d)"),
            parse_instance(""),
        ]
        mismatches = cross_validate_rewriting(
            query, cert.rewriting, rules, corpus, max_levels=4
        )
        assert mismatches == []

    def test_empirical_bdd_constant(self):
        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,xp), E(y,yp) -> E(x,yp)
            """
        )
        constant = empirical_bdd_constant(
            parse_query("E(x,x)"),
            rules,
            [parse_instance("E(a,b)")],
            max_levels=4,
        )
        # The loop appears at chase level 2 from a single edge.
        assert constant == 2


class TestSoundness:
    def test_every_disjunct_entails_original(self):
        """Soundness: each rewriting disjunct, materialized as an instance,
        makes the chase entail the original query."""
        from repro.chase.oblivious import oblivious_chase
        from repro.logic.instances import Instance
        from repro.logic.terms import Null
        from repro.queries.entailment import entails_cq

        rules = parse_rules(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,xp), E(y,yp) -> E(x,yp)
            """
        )
        query = parse_query("E(x,x)")
        result = rewrite(query, rules, max_depth=6)
        for disjunct in result.ucq:
            # Freeze the disjunct's variables into nulls.
            freeze = {
                v: Null(f"_f_{v.name}") for v in disjunct.variables()
            }
            inst = Instance(
                (a.apply(freeze) for a in disjunct.atoms), add_top=True
            )
            chased = oblivious_chase(inst, rules, max_levels=4)
            assert entails_cq(chased.instance, query), (
                f"unsound disjunct {disjunct}"
            )
