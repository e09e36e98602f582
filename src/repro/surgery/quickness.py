"""Quickness (Definition 26) — an empirical checker.

A rule set ``R'`` is quick iff for every instance ``I`` and every atom
``β`` of ``Ch(I, R')``, if all frontier terms of ``β`` appear in
``adom(I)`` then ``β ∈ Ch_1(I, R')``.

The universal quantification over instances is undecidable to check
directly; :func:`quickness_violations` verifies the property on a concrete
instance and chase depth, which is how the EXP-4 experiments certify the
output of the ``rew`` surgery (Lemma 32) on the corpus.  Frontier terms of
an atom are recovered from chase provenance: for an atom created by
trigger ``⟨ρ, h⟩`` they are ``h(fr(ρ))`` for non-Datalog ``ρ`` and all of
the atom's terms for Datalog ``ρ``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chase.oblivious import oblivious_chase
from repro.chase.result import ChaseResult
from repro.logic.atoms import Atom
from repro.logic.homomorphisms import find_homomorphism
from repro.logic.instances import Instance
from repro.logic.terms import Term
from repro.rules.ruleset import RuleSet


@dataclass(frozen=True)
class QuicknessViolation:
    """An atom contradicting Definition 26 on the checked instance."""

    atom: Atom
    frontier_terms: frozenset[Term]
    level: int


def _atom_creators(result: ChaseResult) -> dict[Atom, "object"]:
    """Map each atom above level 0 to the record that added it.

    Every record is a creating application, so the first record whose
    output holds such an atom is the one that added it.  A level-0 atom
    may map to a record that re-derived it; :func:`quickness_violations`
    reads only atoms above level 1.
    """
    creators: dict[Atom, object] = {}
    for record in result.records():
        for atom in record.output_atoms:
            creators.setdefault(atom, record)
    return creators


def quickness_violations(
    rules: RuleSet,
    instance: Instance,
    max_levels: int = 4,
) -> list[QuicknessViolation]:
    """Check Definition 26 on ``instance`` up to ``max_levels`` chase levels.

    For each atom whose frontier terms all lie in ``adom(I)``, require an
    atom of ``Ch_1(I, R')`` matching it with the frontier terms fixed (the
    non-frontier nulls may be renamed — the oblivious chase invents
    different null names at level one).
    """
    result = oblivious_chase(instance, rules, max_levels=max_levels)
    initial_domain = instance.active_domain()
    level_one = result.prefix(1)
    creators = _atom_creators(result)
    violations: list[QuicknessViolation] = []

    for atom in result.instance:
        level = result.atom_level(atom)
        if level <= 1:
            continue
        record = creators.get(atom)
        if record is None:
            continue
        rule = record.trigger.rule
        if rule.is_datalog:
            frontier_terms = set(atom.args)
        else:
            # Section 2.2: the frontier of a chase term created by ⟨ρ, h⟩
            # is h(fr(ρ)); an atom's frontier terms are its creator's.
            frontier_terms = record.frontier_terms()
        if not frontier_terms <= initial_domain:
            continue
        seed = {
            t: t
            for t in frontier_terms & set(atom.args)
            if not t.is_constant
        }
        witness = find_homomorphism([atom], level_one, seed=seed)
        if witness is None:
            violations.append(
                QuicknessViolation(
                    atom=atom,
                    frontier_terms=frozenset(frontier_terms),
                    level=level,
                )
            )
    return violations


def is_quick_on(
    rules: RuleSet, instance: Instance, max_levels: int = 4
) -> bool:
    """True when no quickness violation is found on ``instance``."""
    return not quickness_violations(rules, instance, max_levels=max_levels)
