"""Parametric rule-set families for scaling experiments.

Each family is a function ``family(k) -> RuleSet`` (or ``CorpusEntry``)
with known ground truth for all parameters, letting the benches sweep a
dimension instead of sampling a fixed corpus.
"""

from __future__ import annotations

from repro.corpus.examples import CorpusEntry
from repro.logic.instances import Instance
from repro.rules.parser import parse_instance, parse_rules


def inclusion_chain(length: int) -> CorpusEntry:
    """``P_0 ⊑ ∃P_1 ⊑ ... ⊑ ∃P_n``: linear, bdd, loop-free.

    The rewriting depth of a ``P_n`` query grows linearly with ``length``
    — the family behind the rewriting-depth sweeps.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    lines = [
        f"P{i}(x,y) -> exists z. P{i + 1}(y,z)" for i in range(length)
    ]
    rules = parse_rules("\n".join(lines), name=f"inclusion_chain_{length}")
    return CorpusEntry(
        name=f"inclusion_chain_{length}",
        rules=rules,
        instance=parse_instance("P0(a,b)"),
        is_bdd=True,
        entails_loop=False,
        tournaments_grow=False,
        description=f"linear inclusion chain of length {length}",
    )


def branching_tree(fanout: int) -> CorpusEntry:
    """Each node spawns ``fanout`` successors: the chase is a tree.

    Loop-free; tournaments cap at 2 (trees have no triangles).  Not
    predicate-unique for ``fanout > 1`` — exercising the streamlining
    surgery on rules it actually has to fix.
    """
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    heads = ", ".join(f"E(y,z{i})" for i in range(fanout))
    names = ", ".join(f"z{i}" for i in range(fanout))
    rules = parse_rules(
        f"E(x,y) -> exists {names}. {heads}",
        name=f"branching_tree_{fanout}",
    )
    return CorpusEntry(
        name=f"branching_tree_{fanout}",
        rules=rules,
        instance=parse_instance("E(a,b)"),
        is_bdd=True,
        entails_loop=False,
        tournaments_grow=False,
        description=f"tree-growing rule with fanout {fanout}",
    )


def merge_ladder(width: int) -> CorpusEntry:
    """The tournament builder with ``width`` parallel successor rules.

    Still bdd; the merge rule densifies all branches into tournaments, so
    the loop appears — Property (p) at increasing densities.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    lines = ["top -> exists x, y. E(x,y)"]
    for i in range(width):
        lines.append(f"E(x,y) -> exists z{i}. E(y,z{i})")
    lines.append("E(x,xp), E(y,yp) -> E(x,yp)")
    rules = parse_rules("\n".join(lines), name=f"merge_ladder_{width}")
    return CorpusEntry(
        name=f"merge_ladder_{width}",
        rules=rules,
        instance=Instance(),
        is_bdd=True,
        entails_loop=True,
        tournaments_grow=True,
        description=f"tournament builder with {width} successor rules",
    )


def datalog_grid(size: int) -> CorpusEntry:
    """Pure Datalog: transitive closure over a ``size``-path instance.

    Terminating; the closure has exactly ``size(size+1)/2`` edges — an
    exact oracle for the Datalog engines.
    """
    from repro.corpus.generators import path_instance

    rules = parse_rules(
        "E(x,y), E(y,z) -> E(x,z)", name=f"datalog_grid_{size}"
    )
    return CorpusEntry(
        name=f"datalog_grid_{size}",
        rules=rules,
        instance=path_instance(size),
        is_bdd=False,  # transitivity is not bdd
        entails_loop=False,
        tournaments_grow=False,
        description=f"transitive closure of a {size}-path (Datalog)",
    )


def family_sweep(family, parameters) -> list[CorpusEntry]:
    """Materialize a family over a parameter list."""
    return [family(parameter) for parameter in parameters]
