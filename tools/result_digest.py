#!/usr/bin/env python
"""Digest a checkout's chase results: one sha256 per chase variant.

Usage::

    PYTHONPATH=<checkout>/src python tools/result_digest.py [CASE ...]

Runs the oblivious, semi-oblivious and restricted chases on the default
engine over the cases of :func:`cases` (or only the named ones) and
prints one ``<variant> <sha256>`` line per variant.  A digest covers,
per case and in case order:

* the sorted instance;
* every creation record in firing order: rule, image, sorted mapping,
  level, created nulls and sorted output atoms;
* every term's timestamp and every atom's level;
* ``levels_completed`` and ``terminated``;
* the run's matcher searches and candidates and its head
  instantiations.

Every part is written in a canonical order, so the digest does not
depend on ``PYTHONHASHSEED``.  Two commits that print the same digests
produce the same chase results, provenance and counts on these cases:
run the tool once with each checkout's ``src`` on ``PYTHONPATH`` and
compare the lines.  An unknown case name is an error that lists the
known ones.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from repro.chase import oblivious_chase, restricted_chase, semi_oblivious_chase
from repro.corpus import (
    bdd_corpus,
    example_1,
    growing_tournament_ruleset,
    path_instance,
)
from repro.logic import MATCHER_STATS
from repro.logic.instances import Instance
from repro.rules.parser import parse_rules
from repro.rules.rule import INSTANTIATION_STATS

#: variant name -> the chase, called as ``chase(instance, rules, steps,
#: max_atoms)`` (levels for the oblivious variants, rounds for the
#: restricted chase).
VARIANTS = {
    "oblivious": oblivious_chase,
    "semi_oblivious": semi_oblivious_chase,
    "restricted": restricted_chase,
}

#: The atom budget of every case but the budget-stop one
#: (``check_property_p``'s default).
MAX_ATOMS = 100_000


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
    tc = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="transitivity")
    found.append(("tc_path_80", tc, path_instance(80), 12, MAX_ATOMS))
    return found


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("cases", nargs="*", help="case names (default: all)")
    args = parser.parse_args(argv)
    table = cases()
    known = [name for name, *_ in table]
    unknown = [name for name in args.cases if name not in known]
    if unknown:
        parser.error(
            f"unknown case(s): {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )
    selected = [c for c in table if not args.cases or c[0] in args.cases]
    for variant in VARIANTS:
        print(f"{variant} {digest(variant, selected)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
