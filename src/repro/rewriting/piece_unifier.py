"""Piece-unifiers: one backward-chaining step of UCQ rewriting.

Given a CQ ``q`` and a rule ``ρ = B → ∃z̄ H``, a piece-unifier unifies a
non-empty subset ``Q'`` of ``q``'s atoms with head atoms of ``ρ`` such that
the induced term partition is *valid*:

* no class contains two distinct constants;
* a class containing an existential variable of ``ρ`` contains no other
  rule variable, no constant, no answer variable of ``q``, and no query
  variable that also occurs in ``q \\ Q'`` (existential classes are
  "killed" by the step);
* a class containing an answer variable contains no constant (answer
  variables may merge with each other — producing a specialized disjunct —
  or with frontier variables).

The result of the step is ``u(B ∪ (q \\ Q'))`` where ``u`` maps each term
to its class representative.  This is the König-et-al. [22] rewriting
operator, enumerated exhaustively (every subset with every head-atom
assignment), which is sound and complete for UCQ rewriting.

The assignments form a tree, walked depth first on one undoable
:class:`~repro.logic.unification.TermPartition`: a step down unions the
terms of one query atom and its head atom, the step back undoes exactly
those unions, and no leaf builds a partition of its own.  Each leaf is
checked in one pass over the partition's classes, which applies the
rules above and picks the representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.logic.atoms import Atom
from repro.logic.substitutions import Substitution
from repro.logic.terms import FreshSupply, Term, Variable
from repro.logic.unification import TermPartition
from repro.queries.cq import ConjunctiveQuery
from repro.rules.rule import Rule


@dataclass(frozen=True)
class PieceUnifier:
    """A successful piece-unification and its rewriting step result."""

    rule: Rule
    unified_query_atoms: frozenset[Atom]
    rewritten: ConjunctiveQuery


def piece_unifiers(
    query: ConjunctiveQuery,
    rule: Rule,
    supply: FreshSupply | None = None,
) -> Iterator[PieceUnifier]:
    """Enumerate all piece-unifiers of ``query`` with ``rule``.

    The rule is freshly renamed so its variables never clash with the
    query's.  Enumeration is deterministic: the walk takes the query atoms
    whose predicate occurs in the head in sorted order, first leaves each
    one out of ``Q'``, then unifies it with each compatible head atom in
    sorted order; every leaf that unified at least one atom is a
    candidate.  A leaf's class pass picks as representative the class's
    constant, else its least answer variable, else its least query
    variable, else its least term, and collects the variables of
    ``q \\ Q'`` only when some class holds an existential variable.
    """
    supply = supply or FreshSupply(prefix="_pu")
    renamed, _ = rule.rename_fresh(supply)
    head_atoms = sorted(renamed.head)
    head_predicates = {a.predicate for a in head_atoms}
    candidates = sorted(
        a for a in query.atoms if a.predicate in head_predicates
    )
    if not candidates:
        return

    compatible = [
        [h for h in head_atoms if h.predicate == atom.predicate]
        for atom in candidates
    ]
    existential = renamed.existential_variables()
    rule_vars = renamed.variables()
    answer_set = set(query.answers)
    query_vars = query.variables()
    body = set(renamed.body)
    partition = TermPartition()
    chosen: list[Atom] = []

    def unifier(unified_atoms: set[Atom]) -> dict[Term, Term] | None:
        """The leaf's class pass: representatives, or None when invalid."""
        mapping: dict[Term, Term] = {}
        outside_vars = None
        for group in partition.classes():
            constants = [t for t in group if t.is_constant]
            if len(constants) > 1:
                return None
            existentials = [t for t in group if t in existential]
            if existentials:
                if len(existentials) > 1 or constants:
                    return None
                if outside_vars is None:
                    outside_vars = {
                        v
                        for atom in (query.atoms - unified_atoms)
                        for v in atom.variables()
                    }
                for term in group:
                    if term != existentials[0] and (
                        term in rule_vars  # a frontier or body variable
                        or term in answer_set
                        or term in outside_vars
                        or not isinstance(term, Variable)  # a query null
                    ):
                        return None
            elif constants and any(t in answer_set for t in group):
                return None
            if constants:
                representative = constants[0]
            else:
                representative = min(
                    [t for t in group if t in answer_set]
                    or [t for t in group if t in query_vars]
                    or group
                )
            for term in group:
                if term != representative:
                    mapping[term] = representative
        return mapping

    def walk(index: int) -> Iterator[set[Atom]]:
        """Yield each leaf's unified atoms, the partition set to match."""
        if index == len(candidates):
            if chosen:
                yield set(chosen)
            return
        # First leave the atom outside Q', then unify it with each
        # compatible head atom.
        yield from walk(index + 1)
        atom = candidates[index]
        for head_atom in compatible[index]:
            mark = partition.mark()
            partition.unify_atoms(atom, head_atom)
            chosen.append(atom)
            yield from walk(index + 1)
            chosen.pop()
            partition.undo(mark)

    seen: set[tuple] = set()
    for unified_atoms in walk(0):
        mapping = unifier(unified_atoms)
        if mapping is None:
            continue
        substitution = Substitution._from_clean(mapping)
        result_atoms = substitution.apply_atoms(
            body | (query.atoms - unified_atoms)
        )
        new_answers = tuple(
            substitution.apply_term(v) for v in query.answers
        )
        if any(not isinstance(v, Variable) for v in new_answers):
            continue
        rewritten = ConjunctiveQuery(result_atoms, new_answers)
        key = (rewritten.atoms, rewritten.answers, frozenset(unified_atoms))
        if key in seen:
            continue
        seen.add(key)
        yield PieceUnifier(
            rule=rule,
            unified_query_atoms=frozenset(unified_atoms),
            rewritten=rewritten,
        )


def one_step_rewritings(
    query: ConjunctiveQuery,
    rules,
    supply: FreshSupply | None = None,
) -> list[ConjunctiveQuery]:
    """All CQs obtained from ``query`` by one piece-unification step."""
    supply = supply or FreshSupply(prefix="_pu")
    results: list[ConjunctiveQuery] = []
    seen: set[ConjunctiveQuery] = set()
    for rule in rules:
        if rule.is_datalog and not rule.head:
            continue
        for unifier in piece_unifiers(query, rule, supply=supply):
            if unifier.rewritten not in seen:
                seen.add(unifier.rewritten)
                results.append(unifier.rewritten)
    return results
