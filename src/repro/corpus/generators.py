"""Seeded workload generators: instances, tournaments, random bdd rule sets.

All generators take explicit seeds so every experiment run is exactly
reproducible.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.predicates import EDGE, Predicate
from repro.logic.terms import Constant, Variable
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------

def path_instance(length: int, predicate: Predicate = EDGE) -> Instance:
    """A directed path ``c0 -> c1 -> ... -> c_length``."""
    atoms = [
        Atom(predicate, (Constant(f"C{i}"), Constant(f"C{i + 1}")))
        for i in range(length)
    ]
    return Instance(atoms)


def cycle_instance(length: int, predicate: Predicate = EDGE) -> Instance:
    """A directed cycle of ``length`` vertices (length 1 is a loop)."""
    if length < 1:
        raise ValueError("cycle length must be at least 1")
    atoms = [
        Atom(
            predicate,
            (Constant(f"C{i}"), Constant(f"C{(i + 1) % length}")),
        )
        for i in range(length)
    ]
    return Instance(atoms)


def tournament_instance(
    size: int, seed: int = 0, predicate: Predicate = EDGE
) -> Instance:
    """A complete tournament on ``size`` constants, random orientation."""
    rng = random.Random(seed)
    atoms = []
    for i in range(size):
        for j in range(i + 1, size):
            source, target = (i, j) if rng.random() < 0.5 else (j, i)
            atoms.append(
                Atom(
                    predicate,
                    (Constant(f"C{source}"), Constant(f"C{target}")),
                )
            )
    return Instance(atoms)


def random_digraph_instance(
    size: int,
    edge_probability: float,
    seed: int = 0,
    predicate: Predicate = EDGE,
    allow_loops: bool = False,
) -> Instance:
    """An Erdős–Rényi style random digraph over constants."""
    rng = random.Random(seed)
    atoms = []
    for i in range(size):
        for j in range(size):
            if i == j and not allow_loops:
                continue
            if rng.random() < edge_probability:
                atoms.append(
                    Atom(predicate, (Constant(f"C{i}"), Constant(f"C{j}")))
                )
    return Instance(atoms)


def random_instance(
    signature: Sequence[Predicate],
    n_terms: int,
    n_atoms: int,
    seed: int = 0,
) -> Instance:
    """Random atoms over the given signature and ``n_terms`` constants."""
    rng = random.Random(seed)
    terms = [Constant(f"C{i}") for i in range(n_terms)]
    predicates = [p for p in signature if p.arity > 0]
    if not predicates:
        raise ValueError("need at least one non-nullary predicate")
    atoms = []
    for _ in range(n_atoms):
        predicate = rng.choice(predicates)
        args = tuple(rng.choice(terms) for _ in range(predicate.arity))
        atoms.append(Atom(predicate, args))
    return Instance(atoms)


# ----------------------------------------------------------------------
# Rule sets
# ----------------------------------------------------------------------

def random_nonrecursive_ruleset(
    n_strata: int = 3,
    predicates_per_stratum: int = 2,
    rules_per_stratum: int = 2,
    existential_probability: float = 0.6,
    seed: int = 0,
) -> RuleSet:
    """A random *non-recursive* binary rule set — bdd by construction.

    Predicates are organized in strata; every rule's body predicates come
    from strictly lower strata than its head predicate, so the predicate
    dependency graph is acyclic and backward chaining terminates.
    """
    rng = random.Random(seed)
    strata: list[list[Predicate]] = [
        [
            Predicate(f"L{level}P{index}", 2)
            for index in range(predicates_per_stratum)
        ]
        for level in range(n_strata)
    ]
    rules: list[Rule] = []
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    for level in range(1, n_strata):
        lower = [p for stratum in strata[:level] for p in stratum]
        for _ in range(rules_per_stratum):
            head_predicate = rng.choice(strata[level])
            body_size = rng.choice([1, 2])
            body_predicates = [rng.choice(lower) for _ in range(body_size)]
            if body_size == 1:
                body = [Atom(body_predicates[0], (x, y))]
            else:
                body = [
                    Atom(body_predicates[0], (x, y)),
                    Atom(body_predicates[1], (y, z)),
                ]
            if rng.random() < existential_probability:
                w = Variable("w")
                head = [Atom(head_predicate, (y, w))]
            else:
                head = [Atom(head_predicate, (x, y))]
            rules.append(Rule(body, head))
    return RuleSet(rules, name=f"random_nr_{seed}")


#: The mixed-arity signature of :func:`random_chase_ruleset`.
FUZZ_SIGNATURE = (
    Predicate("A", 1),
    Predicate("E", 2),
    Predicate("F", 2),
    Predicate("R", 3),
)


def random_chase_ruleset(
    n_rules: int = 4,
    existential_probability: float = 0.5,
    constant_probability: float = 0.0,
    n_constants: int = 3,
    seed: int = 0,
) -> RuleSet:
    """A random rule set for differential testing of the chase engines.

    Every rule ranges over :data:`FUZZ_SIGNATURE`, heads included, so
    rule sets are typically recursive and their chases need budgets.
    Bodies have one to three atoms over the variables ``x, y, z, w``, so
    variables repeat inside and across atoms (``E(x,x)``).  Heads have
    one or two atoms over the body's variables; with
    ``existential_probability`` a rule also gets the existential
    variables ``u, v``, and its first head atom ends in ``u``.  With
    ``constant_probability`` any argument is instead one of the
    constants ``C0 .. C{n_constants - 1}``, the names
    :func:`random_instance` uses, so rule constants join with instance
    terms.
    """
    rng = random.Random(seed)
    constants = [Constant(f"C{i}") for i in range(n_constants)]
    pool = [Variable(name) for name in "xyzw"]
    existentials = [Variable("u"), Variable("v")]

    def atom_over(terms: list) -> Atom:
        predicate = rng.choice(FUZZ_SIGNATURE)
        args = [
            rng.choice(constants)
            if rng.random() < constant_probability
            else rng.choice(terms)
            for _ in range(predicate.arity)
        ]
        return Atom(predicate, tuple(args))

    rules: list[Rule] = []
    for _ in range(n_rules):
        body = [atom_over(pool) for _ in range(rng.randint(1, 3))]
        terms = list(
            dict.fromkeys(t for a in body for t in a.args if t in pool)
        ) or constants
        existential = rng.random() < existential_probability
        if existential:
            terms = terms + existentials
        head = [atom_over(terms) for _ in range(rng.randint(1, 2))]
        if existential:
            first = head[0]
            head[0] = Atom(first.predicate, first.args[:-1] + (existentials[0],))
        rules.append(Rule(body, head))
    return RuleSet(rules, name=f"random_chase_{seed}")


def growing_tournament_ruleset(merge_rules: int = 1) -> RuleSet:
    """Variants of the bdd tournament builder with extra merge rules.

    Each extra merge rule adds another "jump" Datalog rule preserving
    bdd-ness while densifying the tournament faster.
    """
    lines = [
        "top -> exists x, y. E(x,y)",
        "E(x,y) -> exists z. E(y,z)",
        "E(x,xp), E(y,yp) -> E(x,yp)",
    ]
    for index in range(1, merge_rules):
        lines.append(f"E(x,y), E(u{index},v{index}) -> E(x,v{index})")
    from repro.rules.parser import parse_rules

    return parse_rules(
        "\n".join(lines), name=f"growing_tournament_{merge_rules}"
    )


def edge_coloring(
    instance: Instance,
    n_colors: int,
    seed: int = 0,
    predicate: Predicate = EDGE,
):
    """A seeded ``k``-coloring of the instance's E-edges (Theorem 7 input).

    Returns a function ``(u, v) -> color`` on unordered pairs; both
    orientations of a pair get the same color.
    """
    rng = random.Random(seed)
    colors: dict[frozenset, int] = {}
    for atom in sorted(instance.with_predicate(predicate)):
        pair = frozenset(atom.args)
        if pair not in colors:
            colors[pair] = rng.randrange(n_colors)

    def coloring(u, v) -> int:
        return colors.get(frozenset((u, v)), 0)

    return coloring
