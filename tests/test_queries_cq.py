"""Unit tests for CQs and UCQs: views, graph structure, value semantics."""

import os
import pathlib
import pickle
import subprocess
import sys
import tempfile

import pytest

from repro.logic.atoms import Atom, edge
from repro.logic.substitutions import Substitution
from repro.logic.terms import FreshSupply, Variable
from repro.queries.cq import ConjunctiveQuery
from repro.queries.minimization import subsumes
from repro.queries.ucq import UCQ
from repro.rewriting.datalog import semi_naive_closure
from repro.rules.parser import parse_instance, parse_query, parse_rule

V = Variable


class TestConstruction:
    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([], ())

    def test_answer_must_occur_in_body(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([edge("x", "y")], (V("z"),))

    def test_boolean_query(self):
        assert parse_query("E(x,x)").is_boolean

    def test_repeated_answers_allowed(self):
        q = ConjunctiveQuery([edge("x", "y")], (V("x"), V("x")))
        assert q.answers == (V("x"), V("x"))


class TestVariableViews:
    def test_existential_variables(self):
        q = parse_query("E(x,y), E(y,z)", answers=("x",))
        assert q.existential_variables() == {V("y"), V("z")}

    def test_variables(self):
        q = parse_query("E(x,y)")
        assert q.variables() == {V("x"), V("y")}


class TestGraphViews:
    def test_dag_detection(self):
        assert parse_query("E(x,y), E(y,z)").is_dag()
        assert not parse_query("E(x,y), E(y,x)").is_dag()

    def test_loop_is_cycle(self):
        assert not parse_query("E(x,x)").is_dag()

    def test_reachability_order(self):
        q = parse_query("E(x,y), E(y,z)")
        order = q.reachability_order()
        assert order.maximal_elements() == {V("z")}

    def test_connectivity(self):
        assert parse_query("E(x,y), E(y,z)").is_connected()
        assert not parse_query("E(x,y), E(u,v)").is_connected()

    def test_unary_atoms_connect_via_shared_terms(self):
        q = parse_query("E(x,y), P(y)")
        assert q.is_connected()


class TestOperations:
    def test_apply_substitution(self):
        q = parse_query("E(x,y)", answers=("x", "y"))
        mapped = q.apply(Substitution({V("y"): V("x")}))
        assert mapped.atoms == frozenset([edge("x", "x")])
        assert mapped.answers == (V("x"), V("x"))

    def test_apply_rejects_constant_answers(self):
        from repro.logic.terms import Constant

        q = parse_query("E(x,y)", answers=("x",))
        with pytest.raises(ValueError):
            q.apply(Substitution({V("x"): Constant("a")}))

    def test_rename_fresh_disjoint(self):
        q = parse_query("E(x,y)", answers=("x",))
        renamed, _ = q.rename_fresh(FreshSupply("_q"))
        assert not (renamed.variables() & q.variables())

    def test_boolean_drops_answers(self):
        q = parse_query("E(x,y)", answers=("x",))
        assert q.boolean().is_boolean


class TestUCQ:
    def test_deduplication(self):
        q = parse_query("E(x,y)", answers=("x", "y"))
        assert len(UCQ([q, q])) == 1

    def test_answer_arity_enforced(self):
        binary = parse_query("E(x,y)", answers=("x", "y"))
        unary = parse_query("E(x,y)", answers=("x",))
        with pytest.raises(ValueError):
            UCQ([binary, unary])

    def test_disjunct_answers_must_specialize(self):
        main = parse_query("E(x,y)", answers=("x", "y"))
        merged = parse_query("E(x,x)", answers=("x", "x"))
        combined = UCQ([main, merged], answers=main.answers)
        assert len(combined) == 2

    def test_fresh_answer_tuple_rejected(self):
        main = parse_query("E(x,y)", answers=("x", "y"))
        alien = parse_query("E(u,v)", answers=("u", "v"))
        with pytest.raises(ValueError):
            UCQ([main, alien])

    def test_union(self):
        a = parse_query("E(x,y)", answers=("x", "y"))
        b = parse_query("E(x,y), E(y,y)", answers=("x", "y"))
        assert len(UCQ([a]).union(UCQ([b]))) == 2

    def test_max_disjunct_size(self):
        a = parse_query("E(x,y)", answers=())
        b = parse_query("E(x,y), E(y,z)", answers=())
        assert UCQ([a, b]).max_disjunct_size() == 2

    def test_empty_needs_answers(self):
        with pytest.raises(ValueError):
            UCQ([])
        empty = UCQ([], answers=())
        assert len(empty) == 0


class TestPickling:
    def test_pickles_rehash_across_hash_seeds(self):
        # CQ and UCQ cache their hash; a pickle that carried it verbatim
        # into an interpreter with another PYTHONHASHSEED would break set
        # membership (CQ) and equality (UCQ, which compares disjunct sets).
        writer = (
            "import pickle, sys\n"
            "from repro.queries.ucq import UCQ\n"
            "from repro.rules.parser import parse_query\n"
            "q = parse_query('E(x,y), E(y,z)', answers=('x',))\n"
            "r = parse_query('E(x,x)', answers=('x',))\n"
            "pickle.dump((q, UCQ([q, r])), open(sys.argv[1], 'wb'))\n"
        )
        reader = (
            "import pickle, sys\n"
            "from repro.queries.ucq import UCQ\n"
            "from repro.rules.parser import parse_query\n"
            "q, u = pickle.load(open(sys.argv[1], 'rb'))\n"
            "fresh = parse_query('E(x,y), E(y,z)', answers=('x',))\n"
            "other = parse_query('E(x,x)', answers=('x',))\n"
            "assert q == fresh and hash(q) == hash(fresh)\n"
            "assert q in {fresh}, 'CQ membership broke'\n"
            "local = UCQ([fresh, other])\n"
            "assert u == local and hash(u) == hash(local), 'UCQ broke'\n"
            "assert u.disjuncts == local.disjuncts\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            blob = pathlib.Path(tmp) / "payload.pickle"
            for seed, script in (("1", writer), ("2", reader)):
                env = dict(
                    os.environ,
                    PYTHONHASHSEED=seed,
                    PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""),
                )
                subprocess.run(
                    [sys.executable, "-c", script, str(blob)],
                    check=True,
                    env=env,
                    cwd=pathlib.Path(__file__).parent.parent,
                )

    def test_pickle_is_unchanged_by_the_compiled_forms(self):
        query = parse_query("E(x,y), E(y,z), E(z,x)", answers=("x",))
        edge_query = parse_query("E(u,v)", answers=("u",))
        before = pickle.dumps(query)
        assert subsumes(edge_query, query)
        assert not subsumes(query, edge_query)
        assert query._rows is not None and query._plans is not None
        after = pickle.dumps(query)
        assert after == before
        restored = pickle.loads(after)
        assert restored == query and hash(restored) == hash(query)
        assert restored._rows is None and restored._plans is None

    def test_pickled_rule_drops_its_plans(self):
        # The join kernel keeps a rule's compiled body plans on the rule,
        # as subsumption keeps a CQ's; neither reaches a pickle.
        rule = parse_rule("E(x,y), E(y,z) -> E(x,z)")
        before = pickle.dumps(rule)
        semi_naive_closure(parse_instance("E(a,b), E(b,c), E(c,d)"), [rule])
        assert rule._plans
        after = pickle.dumps(rule)
        assert after == before
        restored = pickle.loads(after)
        assert restored == rule and hash(restored) == hash(rule)
        assert restored._plans is None

    def test_compiled_forms_are_invisible_to_value_semantics(self):
        compiled = parse_query("E(x,y), E(y,z)", answers=("x",))
        plain = parse_query("E(x,y), E(y,z)", answers=("x",))
        other = parse_query("E(x,y)", answers=("x",))
        assert subsumes(other, compiled)
        assert not subsumes(compiled, other)
        assert compiled._rows is not None and compiled._plans is not None
        assert plain._rows is None and plain._plans is None
        assert compiled == plain and hash(compiled) == hash(plain)
        # Both forms hold exactly the body.
        terms = list(compiled._rows.ids)
        decoded = {
            Atom(predicate, [terms[i] for i in row])
            for predicate, (rows, _) in compiled._rows.tables.items()
            for row in rows
        }
        assert decoded == set(compiled.atoms)
        assert set(compiled._plans.atoms) == set(compiled.atoms)
