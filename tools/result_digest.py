#!/usr/bin/env python
"""Digest a checkout's chase and rewriting results: one sha256 per line.

Usage::

    PYTHONPATH=<checkout>/src python tools/result_digest.py [CASE ...]

Runs the oblivious, semi-oblivious and restricted chases on the default
engine over the cases of :func:`cases` and prints one
``<variant> <sha256>`` line per variant; then runs ``rewrite()`` (and
``rewrite_ucq()`` on a UCQ) over the cases of :func:`rewriting_cases`
and prints one ``rewriting <sha256>`` line; then runs
``semi_naive_closure`` on the ``delta`` engine and on the persistent
pool at two workers over the cases of :func:`closure_cases` and prints
one ``closure <sha256>`` line.  Named cases restrict every table, and a
table none of whose cases is named prints no line.  A chase digest
covers, per case and in case order:

* the sorted instance;
* every creation record in firing order: rule, image, sorted mapping,
  level, created nulls and sorted output atoms;
* every term's timestamp and every atom's level;
* ``levels_completed`` and ``terminated``;
* the run's matcher searches and candidates and its head
  instantiations.

The rewriting digest covers, per case and in case order, the disjuncts
as strings in the UCQ's order, ``complete``, ``depth``, ``generated``,
every trace round record without its phase timings, and the run's
matcher searches and candidates; it leaves out the trace header and
summary.  Its ``rewrite_minimize_`` cases hash the other subsumption
callers instead, over a finished rewriting: ``minimize_ucq`` (cores on)
and ``cq_core`` of each disjunct as strings, every ``subsumes`` verdict
between two disjuncts, and the matcher counts of each.

The closure digest covers, per case and engine, the sorted closure,
``terminated``, and every trace round's ``applied`` and ``new_atoms``
(not ``triggers``), plus the run's matcher searches and candidates on
``delta`` only: a pooled round runs one search per busy worker slice.

Every part is written in a canonical order, so the digests do not
depend on ``PYTHONHASHSEED``.  Two commits that print the same digests
produce the same chase results, provenance, rewritings, closures and
counts on these cases: run the tool once with each checkout's ``src`` on
``PYTHONPATH`` and compare the lines.  An unknown case name is an error
that lists the known ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from repro.chase import oblivious_chase, restricted_chase, semi_oblivious_chase
from repro.corpus import (
    bdd_corpus,
    example_1,
    growing_tournament_ruleset,
    path_instance,
)
from repro.engine import EngineConfig
from repro.logic import MATCHER_STATS
from repro.logic.instances import Instance
from repro.obs.trace import RunTrace
from repro.queries.minimization import cq_core, minimize_ucq, subsumes
from repro.queries.ucq import UCQ
from repro.rewriting.datalog import semi_naive_closure
from repro.rewriting.rewriter import rewrite, rewrite_ucq
from repro.rules.parser import parse_query, parse_rules
from repro.rules.rule import INSTANTIATION_STATS

#: variant name -> the chase, called as ``chase(instance, rules, steps,
#: max_atoms)`` (levels for the oblivious variants, rounds for the
#: restricted chase).
VARIANTS = {
    "oblivious": oblivious_chase,
    "semi_oblivious": semi_oblivious_chase,
    "restricted": restricted_chase,
}

#: engine name -> the engine every closure case runs on.
CLOSURE_ENGINES = {
    "delta": "delta",
    "persistent_w2": EngineConfig("persistent", workers=2),
}

#: The atom budget of every case but the budget-stop one
#: (``check_property_p``'s default).
MAX_ATOMS = 100_000

TC_RULE = "E(x,y), E(y,z) -> E(x,z)"

#: The bdd-corpus decision queries of the ``serve_mix`` benchmark, whose
#: rewriting leg decides each of them: (corpus entry, query).
REWRITE_DECISIONS = [
    ("example1_bdd", "E(u,v), E(v,u)"),
    ("example1_bdd", "Z(u)"),
    ("tournament_builder", "E(x,y)"),
    ("tournament_builder", "Z(u)"),
    ("infinite_path", "E(x1,x2), E(x2,x3), E(x3,x4)"),
    ("infinite_path", "E(x,x)"),
    ("two_relation_linear", "P(x,y), Q(y,z)"),
    ("two_relation_linear", "Q(x,x)"),
    ("dense_overlay", "F(x,y), F(y,z)"),
    ("dense_overlay", "F(x,x)"),
    ("wide_signature", "E(x,y), E(y,z)"),
    ("wide_signature", "E(x,x)"),
    ("datalog_chain_3", "P3(x,y)"),
    ("datalog_chain_3", "P3(x,x)"),
    ("sticky_pair", "T(y), R(y,w)"),
    ("sticky_pair", "S(x,x)"),
    ("bowtie_merge", "D(x,z), E(y,z)"),
    ("bowtie_merge", "D(x,x)"),
    ("guarded_triangle", "E(c,w)"),
    ("guarded_triangle", "E(x,y), E(y,z)"),
    ("backward_growth", "E(u,v), E(v,w)"),
    ("backward_growth", "E(x,x)"),
]


def cases() -> list[tuple[str, object, Instance, int, int]]:
    """``(name, rules, instance, steps, max_atoms)`` per case: the bdd
    corpus at 5 steps, the growing tournaments at 7, Example 1 at 10 and
    transitivity on the 80-edge path to its fixpoint — the chases of
    ``check_property_p`` and of the restricted transitive-closure
    benchmark — plus a mid-round atom-budget stop."""
    found = [
        (entry.name, entry.rules, entry.instance, 5, MAX_ATOMS)
        for entry in bdd_corpus()
    ]
    for merge_rules in (1, 2, 3):
        rules = growing_tournament_ruleset(merge_rules)
        found.append((rules.name, rules, Instance(), 7, MAX_ATOMS))
    tournament = growing_tournament_ruleset(3)
    found.append(
        (f"{tournament.name}_budget", tournament, Instance(), 7, 2_000)
    )
    entry = example_1()
    found.append((entry.name, entry.rules, entry.instance, 10, MAX_ATOMS))
    tc = parse_rules(TC_RULE, name="transitivity")
    found.append(("tc_path_80", tc, path_instance(80), 12, MAX_ATOMS))
    return found


def rewriting_cases() -> list[tuple[str, object, object, dict, bool]]:
    """``(name, rules, query, budgets, minimize)`` per rewriting case: the
    decision queries of :data:`REWRITE_DECISIONS` on the default budgets,
    as ``answer()`` rewrites them, and on transitivity the edge query at
    depths 2, 4 and 6, the two-hop query at depth 6, a ``max_cq_size``
    drop, a ``max_disjuncts`` stop and one ``rewrite_ucq`` over two
    disjuncts.  The three ``minimize`` cases digest the subsumption
    callers over the rewritings of transitivity at depth 6, the two-hop
    query and one bdd-corpus query (:func:`subsumption_lines`)."""
    corpus = {entry.name: entry for entry in bdd_corpus()}
    found = [
        (
            f"rewrite_{name}_{k}",
            corpus[name].rules,
            parse_query(text),
            {},
            False,
        )
        for k, (name, text) in enumerate(REWRITE_DECISIONS)
    ]
    tc = parse_rules(TC_RULE, name="transitivity")
    edge = parse_query("E(x,y)", answers=("x", "y"))
    found += [
        (f"rewrite_tc_depth_{depth}", tc, edge, {"max_depth": depth}, False)
        for depth in (2, 4, 6)
    ]
    two_hop = parse_query("E(x,y), E(y,z)", answers=("x", "z"))
    both = UCQ([parse_query("E(u,v)"), parse_query("E(u,u)")], ())
    found += [
        ("rewrite_tc_two_hop", tc, two_hop, {"max_depth": 6}, False),
        ("rewrite_tc_size_drop", tc, edge, {"max_cq_size": 3}, False),
        ("rewrite_tc_disjunct_budget", tc, edge, {"max_disjuncts": 3}, False),
        ("rewrite_ucq_tc", tc, both, {"max_depth": 3}, False),
    ]
    triangle = corpus["guarded_triangle"].rules
    found += [
        ("rewrite_minimize_tc_depth_6", tc, edge, {"max_depth": 6}, True),
        ("rewrite_minimize_tc_two_hop", tc, two_hop, {"max_depth": 6}, True),
        (
            "rewrite_minimize_guarded_triangle",
            triangle,
            parse_query("E(x,y), E(y,z)"),
            {},
            True,
        ),
    ]
    return found


def closure_cases() -> list[tuple[str, object, Instance]]:
    """``(name, rules, instance)`` per closure case: transitivity on the
    60-edge path (EXP-14's closure), a two-atom head feeding a second
    rule on the 12-edge path, and a rule with a head constant that no
    input atom mentions."""
    return [
        (
            "closure_tc_path_60",
            parse_rules(TC_RULE, name="transitivity"),
            path_instance(60),
        ),
        (
            "closure_two_heads_path_12",
            parse_rules(
                "E(x,y), E(y,z) -> E(x,z), F(z,x)\nF(x,y) -> G(x)",
                name="two_heads",
            ),
            path_instance(12),
        ),
        (
            "closure_head_constant_path_12",
            parse_rules(
                f"{TC_RULE}\nE(x,y) -> R(y,Hub)\nR(x,Hub), E(x,y) -> S(y)",
                name="head_constant",
            ),
            path_instance(12),
        ),
    ]


def _term(term) -> str:
    return f"{type(term).__name__}:{term.name}"


def _atom(atom) -> str:
    args = ",".join(_term(t) for t in atom.args)
    return f"{atom.predicate.name}/{atom.predicate.arity}({args})"


def _atoms(atoms) -> str:
    return " ".join(_atom(a) for a in sorted(atoms))


def result_lines(result, counts: tuple[int, int, int]):
    """The canonical text of one run, line by line."""
    instance = result.instance
    yield "instance " + _atoms(instance)
    for record in result.records():
        trigger = record.trigger
        yield " | ".join([
            "record " + str(trigger.rule),
            " ".join(_term(t) for t in trigger.image()),
            " ".join(
                f"{_term(v)}={_term(t)}" for v, t in trigger.mapping.items()
            ),
            str(record.level),
            " ".join(_term(n) for n in record.created_nulls),
            _atoms(record.output_atoms),
        ])
    for term in sorted(instance.active_domain()):
        yield f"timestamp {_term(term)} {result.timestamp(term)}"
    for atom in sorted(instance):
        yield f"level {_atom(atom)} {result.atom_level(atom)}"
    yield f"levels {result.levels_completed} terminated {result.terminated}"
    yield "counts {} {} {}".format(*counts)


def rewriting_lines(result, trace: RunTrace, counts: tuple[int, int]):
    """The canonical text of one rewriting, line by line."""
    for disjunct in result.ucq:
        yield f"disjunct {disjunct}"
    yield (
        f"complete {result.complete} depth {result.depth} "
        f"generated {result.generated}"
    )
    for record in trace.rounds:
        fields = dict(record)
        del fields["phases"]
        yield "round " + json.dumps(fields, sort_keys=True)
    yield "counts {} {}".format(*counts)


def subsumption_lines(ucq: UCQ):
    """The canonical text of the subsumption callers over one rewriting's
    disjuncts, line by line: ``minimize_ucq`` with cores, ``cq_core`` of
    each disjunct and ``subsumes`` between every two, each followed by
    its matcher counts."""
    disjuncts = list(ucq)
    MATCHER_STATS.reset()
    for disjunct in minimize_ucq(ucq, compute_cores=True):
        yield f"minimized {disjunct}"
    yield f"counts {MATCHER_STATS.searches} {MATCHER_STATS.candidates}"
    MATCHER_STATS.reset()
    for disjunct in disjuncts:
        yield f"core {disjunct} | {cq_core(disjunct)}"
    yield f"counts {MATCHER_STATS.searches} {MATCHER_STATS.candidates}"
    MATCHER_STATS.reset()
    verdicts = "".join(
        "1" if subsumes(general, specific) else "0"
        for general in disjuncts
        for specific in disjuncts
    )
    yield f"subsumes {verdicts}"
    yield f"counts {MATCHER_STATS.searches} {MATCHER_STATS.candidates}"


def closure_lines(closure, trace: RunTrace, counts: tuple[int, int] | None):
    """The canonical text of one closure, line by line; ``counts`` is
    ``None`` where the matcher counts are left out."""
    yield "closure " + _atoms(closure)
    yield f"terminated {trace.summary['terminated']}"
    for record in trace.rounds:
        yield (
            f"round {record['round']} applied {record['applied']} "
            f"new {record['new_atoms']}"
        )
    if counts is not None:
        yield "counts {} {}".format(*counts)


def digest(variant: str, selected) -> str:
    """The sha256 of ``variant``'s runs over ``selected`` cases."""
    chase = VARIANTS[variant]
    sha = hashlib.sha256()
    for name, rules, instance, steps, max_atoms in selected:
        MATCHER_STATS.reset()
        INSTANTIATION_STATS.reset()
        result = chase(instance, rules, steps, max_atoms)
        counts = (
            MATCHER_STATS.searches,
            MATCHER_STATS.candidates,
            INSTANTIATION_STATS.heads,
        )
        sha.update(f"case {name}\n".encode())
        for line in result_lines(result, counts):
            sha.update(line.encode() + b"\n")
    return sha.hexdigest()


def rewriting_digest(selected) -> str:
    """The sha256 of the rewritings of ``selected`` cases."""
    sha = hashlib.sha256()
    for name, rules, query, budgets, minimize in selected:
        MATCHER_STATS.reset()
        trace = RunTrace()
        run = rewrite_ucq if isinstance(query, UCQ) else rewrite
        result = run(query, rules, trace=trace, **budgets)
        counts = (MATCHER_STATS.searches, MATCHER_STATS.candidates)
        lines = (
            subsumption_lines(result.ucq)
            if minimize
            else rewriting_lines(result, trace, counts)
        )
        sha.update(f"case {name}\n".encode())
        for line in lines:
            sha.update(line.encode() + b"\n")
    return sha.hexdigest()


def closure_digest(selected) -> str:
    """The sha256 of the closures of ``selected`` cases on every engine
    of :data:`CLOSURE_ENGINES`."""
    sha = hashlib.sha256()
    for name, rules, instance in selected:
        for engine_name, engine in CLOSURE_ENGINES.items():
            MATCHER_STATS.reset()
            trace = RunTrace()
            closure = semi_naive_closure(
                instance, rules, engine=engine, trace=trace
            )
            counts = (
                (MATCHER_STATS.searches, MATCHER_STATS.candidates)
                if engine_name == "delta"
                else None
            )
            sha.update(f"case {name} {engine_name}\n".encode())
            for line in closure_lines(closure, trace, counts):
                sha.update(line.encode() + b"\n")
    return sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("cases", nargs="*", help="case names (default: all)")
    args = parser.parse_args(argv)
    chases, rewritings, closures = cases(), rewriting_cases(), closure_cases()
    known = [name for name, *_ in chases + rewritings + closures]
    unknown = [name for name in args.cases if name not in known]
    if unknown:
        parser.error(
            f"unknown case(s): {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )
    selected = [c for c in chases if not args.cases or c[0] in args.cases]
    rewrites = [c for c in rewritings if not args.cases or c[0] in args.cases]
    closing = [c for c in closures if not args.cases or c[0] in args.cases]
    if selected:
        for variant in VARIANTS:
            print(f"{variant} {digest(variant, selected)}")
    if rewrites:
        print(f"rewriting {rewriting_digest(rewrites)}")
    if closing:
        print(f"closure {closure_digest(closing)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
