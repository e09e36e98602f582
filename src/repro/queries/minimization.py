"""CQ subsumption, cores, and UCQ minimization.

The rewriting engine prunes its search space with subsumption: a disjunct
``q2`` is redundant in a UCQ containing ``q1`` when ``q1`` maps
homomorphically into ``q2`` (answer variables corresponding) — every
instance satisfying ``q2`` then satisfies ``q1``.  Minimal rewritings are
unique up to bijective renaming [22]; :func:`minimize_ucq` computes that
normal form's disjunct set.
"""

from __future__ import annotations

from typing import Iterable

from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UCQ


def subsumes(
    general: ConjunctiveQuery, specific: ConjunctiveQuery
) -> bool:
    """True when ``general`` maps into ``specific`` preserving answers.

    ``specific`` is then logically stronger: any match of ``specific``
    yields a match of ``general``, so ``specific`` is redundant in a UCQ
    already containing ``general``.  Each CQ is compiled once per role
    and keeps the result: ``specific`` into id rows, ``general`` into
    join plans (:class:`~repro.logic.homomorphisms.JoinPlans`), so a
    candidate checked against many disjuncts is compiled once on each
    side.  The search counts the searches and candidates of
    ``find_homomorphism(general.atoms, Instance(specific.atoms,
    add_top=False), seed=<answers>)`` and gives its verdict.
    """
    if len(general.answers) != len(specific.answers):
        return False
    return general._as_general().maps_into(specific._as_specific())


def equivalent(left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
    """Homomorphic equivalence of CQs with answers preserved."""
    return subsumes(left, right) and subsumes(right, left)


def cq_core(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of a CQ: minimal equivalent sub-query.

    Answer variables are frozen (temporarily treated as constants is the
    classical trick; here we retract only with endomorphisms fixing them).
    Dropping an atom leaves a sub-query that the identity maps back into
    the query, so one subsumption test per atom decides whether the
    query maps into what is left.
    """
    current = query
    changed = True
    while changed:
        changed = False
        for atom in sorted(current.atoms):
            if len(current.atoms) == 1:
                break
            remaining = ConjunctiveQuery(
                current.atoms - {atom}, current.answers
            ) if _answers_survive(current, atom) else None
            if remaining is not None and subsumes(current, remaining):
                current = remaining
                changed = True
                break
    return current


def _answers_survive(query: ConjunctiveQuery, atom) -> bool:
    """True when dropping ``atom`` keeps every answer variable in the body."""
    rest = query.atoms - {atom}
    remaining_vars = {v for a in rest for v in a.variables()}
    return set(query.answers) <= remaining_vars


def minimize_ucq(query: UCQ, compute_cores: bool = True) -> UCQ:
    """Remove subsumed disjuncts (and optionally core each survivor).

    Of two homomorphically equivalent disjuncts, exactly one (the
    deterministically smaller) is kept.
    """
    disjuncts = list(query.disjuncts)
    if compute_cores:
        disjuncts = [cq_core(q) for q in disjuncts]
        unique: list[ConjunctiveQuery] = []
        seen: set[ConjunctiveQuery] = set()
        for q in disjuncts:
            if q not in seen:
                seen.add(q)
                unique.append(q)
        disjuncts = unique
    kept: list[ConjunctiveQuery] = []
    for candidate in sorted(disjuncts):
        redundant = any(
            subsumes(existing, candidate) for existing in kept
        )
        if redundant:
            continue
        kept = [q for q in kept if not subsumes(candidate, q)]
        kept.append(candidate)
    return UCQ(kept, answers=query.answers)


def is_subsumed_by_any(
    candidate: ConjunctiveQuery, existing: Iterable[ConjunctiveQuery]
) -> bool:
    """True when some existing disjunct subsumes ``candidate``."""
    return any(subsumes(q, candidate) for q in existing)
