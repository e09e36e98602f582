"""The unified semi-naive delta core.

One pivot-atom decomposition serves every delta-driven round in the
library: trigger enumeration for the chase variants
(:func:`repro.chase.trigger.new_triggers_of`), sharded enumeration in the
parallel scheduler, and head derivation for the Datalog closure
(:func:`repro.rewriting.datalog.semi_naive_closure`).  Before this module
existed ``rewriting/datalog.py`` carried its own copy of the decomposition
without the positional index; now both layers share this code.

The decomposition: a homomorphism of a rule body into the instance uses at
least one delta atom exactly when some body atom maps into the delta.  For
each body atom in turn (the *pivot*), that atom is matched against the
delta only while the remaining atoms match the full instance through the
positional index.  A homomorphism whose body image touches ``k`` delta
atoms is found by ``k`` pivots; callers deduplicate on their own identity
(trigger image for the chase, the derived atom set for the closure).

The restricted chase enumerates through :func:`rule_unsatisfied_images`,
which additionally drops every existential-free match that could not add
an atom — before any :class:`~repro.chase.trigger.Trigger` exists.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from repro.logic.atoms import Atom, build_atom
from repro.logic.homomorphisms import (
    homomorphisms,
    homomorphisms_with_pivot,
    pivot_bindings,
)
from repro.logic.instances import Instance
from repro.logic.substitutions import Substitution
from repro.logic.terms import Term
from repro.rules.rule import INSTANTIATION_STATS, Rule


def as_delta_instance(delta: Iterable[Atom] | Instance) -> Instance:
    """Wrap a delta (atom iterable or instance) as a positional-indexed
    instance, so pivot candidates come from an index lookup."""
    if isinstance(delta, Instance):
        return delta
    return Instance(delta, add_top=False)


def delta_homomorphisms(
    rule: Rule, instance: Instance, delta_inst: Instance
) -> Iterator[Substitution]:
    """Homomorphisms of ``rule.body`` into ``instance`` using ≥ 1 delta atom.

    A homomorphism touching ``k`` delta atoms is yielded up to ``k`` times
    (once per pivot); the caller owns deduplication.  When ``delta_inst``
    *is* the instance every homomorphism qualifies and pivoting would
    rediscover each one per body atom, so the plain per-rule enumeration
    (body-size times cheaper) runs instead — in that case each homomorphism
    is yielded exactly once.
    """
    if delta_inst is instance:
        yield from homomorphisms(rule.body, instance)
        return
    body = rule.body
    for pivot in rule.sorted_body():
        candidates = delta_inst.sorted_with_predicate(pivot.predicate)
        if not candidates:
            continue
        yield from homomorphisms_with_pivot(body, instance, pivot, candidates)


def _delta_bindings(
    rule: Rule, instance: Instance, delta_inst: Instance
) -> Iterator[dict[Term, Term]]:
    """Raw-binding twin of :func:`delta_homomorphisms`.

    Iterates the matcher's live binding dict per match (the ``raw`` mode
    of :func:`~repro.logic.homomorphisms.homomorphisms_with_pivot`): it
    must be used before the iterator advances and may contain identity
    pairs.  Chained in C, so no extra generator frame runs per match.
    """
    if delta_inst is instance:
        return (hom.as_dict() for hom in homomorphisms(rule.body, instance))
    body = rule.body
    return chain.from_iterable(
        homomorphisms_with_pivot(body, instance, pivot, candidates, raw=True)
        for pivot in rule.sorted_body()
        if (candidates := delta_inst.sorted_with_predicate(pivot.predicate))
    )


def rule_delta_images(
    rule: Rule, instance: Instance, delta_inst: Instance
) -> dict[tuple, Substitution]:
    """Deduplicated body matches of one rule, keyed by canonical image.

    The key is ``h(x̄)`` along ``rule.body_variable_order()`` — the same
    identity :class:`~repro.chase.trigger.Trigger` uses — so merging the
    dicts produced by different delta shards (or different pivots) is a
    plain dict union: equal keys imply equal restricted homomorphisms.
    """
    order = rule.body_variable_order()
    found: dict[tuple, Substitution] = {}
    for hom in delta_homomorphisms(rule, instance, delta_inst):
        apply = hom.apply_term
        image = tuple(apply(v) for v in order)
        if image not in found:
            found[image] = hom
    return found


def rule_unsatisfied_images(
    rule: Rule, instance: Instance, delta_inst: Instance
) -> dict[tuple, Substitution]:
    """:func:`rule_delta_images` minus the matches that cannot add an atom.

    The restricted chase's enumeration.  An existential-free rule's match
    grounds its whole head, which is then both the output and the
    satisfaction witness, so two kinds of match can never fire:

    * every head atom is already in ``instance`` (the round-start state —
      a chase instance only grows, so the head stays present);
    * another match of the rule grounds the same head set and has a
      smaller canonical image: it comes first in firing order, and once
      it has fired (or was found satisfied) the head is present.

    Both are dropped here, walking the matcher's raw bindings — one head
    instantiation per match (counted in
    :data:`~repro.rules.rule.INSTANTIATION_STATS`), no
    :class:`Substitution` built for a dropped match.  Per shard this keeps
    the smallest image per head; merging shards must keep the smallest
    again.  Existential rules are returned unpruned.
    """
    if rule.existential_order():
        return rule_delta_images(rule, instance, delta_inst)
    order = rule.body_variable_order()
    head = [(atom.predicate, atom.args) for atom in rule.head]
    predicate, args = head[0]
    single = len(head) == 1
    present = instance.__contains__
    kept: dict = {}  # ground head (atom or frozenset) -> (image, binding)
    matches = 0
    for binding in _delta_bindings(rule, instance, delta_inst):
        matches += 1
        get = binding.get
        if single:
            key = build_atom(predicate, tuple([get(t, t) for t in args]))
            if present(key):
                continue
        else:
            key = frozenset(
                [build_atom(p, tuple([get(t, t) for t in a])) for p, a in head]
            )
            if all(map(present, key)):
                continue
        image = tuple([get(v, v) for v in order])
        previous = kept.get(key)
        if previous is None or image < previous[0]:
            kept[key] = (image, {v: t for v, t in binding.items() if v != t})
    INSTANTIATION_STATS.heads += matches
    return {
        image: Substitution._from_clean(mapping)
        for image, mapping in kept.values()
    }


def derive_delta_atoms(
    rule: Rule, instance: Instance, delta_inst: Instance
) -> set[Atom]:
    """Head instantiations of ``rule`` whose body uses ≥ 1 delta atom.

    Derivation mode of the core, used by the Datalog closure: no trigger
    identity, no canonical ordering — duplicate matches collapse in the
    returned set, which is all a saturation needs.  This is the batched
    hot path: heads are instantiated straight from the matcher's raw
    bindings (:func:`~repro.logic.homomorphisms.pivot_bindings`) — no
    :class:`~repro.chase.trigger.Trigger` objects, no substitution copies,
    no sorting.
    """
    derived: set[Atom] = set()
    head = rule.head
    if delta_inst is instance:
        for hom in homomorphisms(rule.body, instance):
            derived.update(hom.apply_atoms(head))
        return derived
    add = derived.add
    body = rule.body
    for pivot in rule.sorted_body():
        candidates = delta_inst.sorted_with_predicate(pivot.predicate)
        if not candidates:
            continue
        for binding in pivot_bindings(body, instance, pivot, candidates):
            for atom in head:
                add(atom.apply(binding))
    return derived
