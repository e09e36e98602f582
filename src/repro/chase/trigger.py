"""Triggers: applicable rule instances over an instance (Section 2.2).

A trigger is a pair ``⟨ρ, h⟩`` of a rule and a homomorphism from its body
into an instance.  The *output* of a trigger extends ``h`` by mapping each
existential variable to a fresh null and instantiates the head.

Besides the full enumeration ``triggers_of(I, R)`` the module provides the
semi-naive ``new_triggers_of(I, R, Δ)``: only triggers whose body image
uses at least one atom of the delta ``Δ`` — exactly the triggers that are
*new* at a chase level when ``Δ`` is the set of atoms the previous level
produced (the paper's ``Ch_{n+1}`` is built from triggers new at level
``n``, so this is the definition computed literally instead of by
re-matching everything and discarding the already-fired majority).

Every delta enumeration here — oblivious, semi-oblivious and restricted,
inline or on the worker pool — joins on the delta core's id kernel
(:mod:`repro.engine.core`), which builds one ``Substitution`` per
distinct body image.  The object matcher keeps the full enumerations
(:func:`triggers_of`, :func:`naive_new_triggers_of`, the ``naive``
engine's reference) and the satisfaction checks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.engine.core import (
    as_delta_instance,
    rule_delta_images,
    rule_unsatisfied_images,
)
from repro.logic.atoms import Atom
from repro.logic.homomorphisms import (
    MATCHER_STATS,
    _candidates,
    _match_atom,
    homomorphisms,
)
from repro.logic.instances import Instance
from repro.logic.substitutions import Substitution
from repro.logic.terms import FreshSupply, Null, Term
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


class Trigger:
    """A rule paired with a homomorphism from its body into some instance.

    Two triggers are equal when they share the rule and agree on the body
    variables — the identity used by the oblivious chase to fire each
    trigger exactly once.  The identity key is derived lazily from the
    rule's canonical body-variable order, so constructing a trigger does
    not sort anything.
    """

    __slots__ = ("rule", "mapping", "_image", "_ground_output")

    def __init__(self, rule: Rule, mapping: Substitution):
        self.rule = rule
        self.mapping = mapping.restrict(rule.body_variables())
        self._image: tuple[Term, ...] | None = None
        # For existential-free rules the output is fully determined by the
        # mapping; the restricted chase's enumeration
        # (restricted_new_triggers_of), its satisfaction check or a custom
        # policy's claim gate may park the instantiated head here, and
        # :meth:`output` reuses the parked atoms instead of instantiating
        # a second time.
        self._ground_output: frozenset[Atom] | set[Atom] | None = None

    def image(self) -> tuple[Term, ...]:
        """``h(x̄)`` along the rule's canonical body-variable order.

        Together with the rule this is the trigger's identity; it also
        serves as the deterministic sort key among triggers of one rule.
        """
        cached = self._image
        if cached is None:
            apply = self.mapping.apply_term
            cached = tuple(
                apply(v) for v in self.rule.body_variable_order()
            )
            self._image = cached
        return cached

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Trigger)
            and self.rule == other.rule
            and self.image() == other.image()
        )

    def __hash__(self) -> int:
        return hash((self.rule, self.image()))

    def __repr__(self) -> str:
        return f"Trigger({self.rule!s}, {self.mapping!r})"

    def frontier_image(self) -> dict:
        """Return ``h(fr(ρ))`` as a mapping frontier variable -> term."""
        return {
            v: self.mapping.apply_term(v) for v in self.rule.frontier()
        }

    def output(
        self, supply: FreshSupply
    ) -> tuple[frozenset[Atom] | set[Atom], dict[Term, Null]]:
        """Instantiate the head with fresh nulls for existential variables.

        Returns the produced atoms and the existential-variable-to-null
        mapping used.
        """
        rule = self.rule
        existential = rule.existential_order()
        if not existential:
            cached = self._ground_output
            if cached is not None:
                return cached, {}
            return rule.instantiate_head(self.mapping), {}
        existential_map: dict[Term, Null] = {
            v: supply.null() for v in existential
        }
        return rule.instantiate_head(self.mapping, existential_map), existential_map

    def is_satisfied_in(self, instance: Instance) -> bool:
        """True when ``h`` extends to a homomorphism of the head into
        ``instance`` — the restricted-chase applicability test."""
        seed = {
            v: self.mapping.apply_term(v)
            for v in self.rule.frontier()
        }
        for _ in homomorphisms(self.rule.head, instance, seed=seed):
            return True
        return False

    def is_satisfied_using_index(self, instance: Instance) -> bool:
        """Index-seeded variant of :meth:`is_satisfied_in` (same boolean).

        The restricted chase's claim: it runs once per trigger the round
        considers, so the generic matcher's per-call setup dominated; the
        fast paths cut it:

        * Datalog rule — the body homomorphism grounds the whole head, so
          satisfaction is plain set membership per head atom.  The head
          the enumeration parked is reused; an unparked head (the
          ``naive`` engine's) is instantiated and parked here, so a
          trigger that fires is still instantiated once.
        * single-atom head — candidates come straight from the most
          selective positional-index bucket of the frontier image and are
          pattern-checked in place (exactly the matcher's ``_match_atom``,
          minus the search-frame and substitution machinery).
        * multi-atom head — the seeded backtracking matcher, as before.
        """
        rule = self.rule
        mapping = self.mapping
        if not rule.existential_order():
            head = self._ground_output
            if head is None:
                head = self._ground_output = rule.instantiate_head(mapping)
            return all(a in instance for a in head)
        head = rule.head
        if len(head) == 1:
            (head_atom,) = head
            seed = {
                v: mapping.apply_term(v) for v in rule.frontier()
            }
            stats = MATCHER_STATS
            stats.searches += 1
            for candidate in _candidates(head_atom, instance, seed):
                stats.candidates += 1
                binding = dict(seed)
                if _match_atom(head_atom, candidate, binding, None) is not None:
                    return True
            return False
        return self.is_satisfied_in(instance)


def triggers_of(
    instance: Instance, rules: RuleSet | list[Rule]
) -> Iterator[Trigger]:
    """Enumerate ``triggers(I, R)``: all rule/body-homomorphism pairs.

    Deterministic: rules in rule-set order, homomorphisms in index order.
    """
    for rule in rules:
        for hom in homomorphisms(rule.body, instance):
            yield Trigger(rule, hom)


def _trigger_with_image(
    rule: Rule, hom: Substitution, image: tuple[Term, ...]
) -> Trigger:
    """Build a trigger whose canonical image is already known."""
    trigger = Trigger(rule, hom)
    trigger._image = image
    return trigger


def new_triggers_of(
    instance: Instance,
    rules: RuleSet | list[Rule],
    delta: Iterable[Atom] | Instance,
) -> Iterator[Trigger]:
    """Enumerate the triggers using at least one atom of ``delta``.

    Pivot-atom decomposition on the delta core's join kernel
    (:func:`repro.engine.core.rule_delta_images`): for each rule and each
    body atom, that atom is matched against the delta only while the
    remaining atoms match the full instance; a homomorphism touching
    ``k`` delta atoms is found by ``k`` pivots, so duplicates are keyed
    out on the trigger image.

    Deterministic: rules in rule-set order, then triggers of each rule
    sorted by their body-variable image.  The chase engines rely on this
    canonical order being *independent of how the triggers were found*, so
    the delta, naive and parallel engines fire in the same order and
    produce bit-identical results.
    """
    delta_inst = as_delta_instance(delta)
    if not len(delta_inst):
        return
    for rule in rules:
        found = rule_delta_images(rule, instance, delta_inst)
        for image in sorted(found):
            yield _trigger_with_image(rule, found[image], image)


def parallel_new_triggers_of(
    instance: Instance,
    rules: RuleSet | list[Rule],
    delta: Iterable[Atom] | Instance,
    scheduler,
) -> list[Trigger]:
    """Pool-parallel :func:`new_triggers_of` — same triggers, same order.

    ``scheduler`` is a :class:`repro.engine.scheduler.RoundScheduler`; it
    hash-routes the delta, enumerates every worker's slice against the
    full instance on its worker pool, and merges the candidates back keyed
    by canonical image, so the returned list is identical to the
    sequential enumeration for every worker count.
    """
    rule_list = list(rules)
    delta_atoms = (
        delta.atoms() if isinstance(delta, Instance) else delta
    )
    per_rule = scheduler.enumerate_images(instance, rule_list, delta_atoms)
    triggers: list[Trigger] = []
    for rule, pairs in zip(rule_list, per_rule):
        triggers.extend(
            _trigger_with_image(rule, hom, image) for image, hom in pairs
        )
    return triggers


def restricted_new_triggers_of(
    instance: Instance,
    rules: RuleSet | list[Rule],
    delta: Iterable[Atom] | Instance,
    scheduler=None,
) -> list[Trigger]:
    """The restricted chase's :func:`new_triggers_of`: only triggers that
    can still add an atom, in the same canonical order.

    Existential-free rules enumerate through
    :func:`~repro.engine.core.rule_unsatisfied_images` — inline, or on
    every worker of ``scheduler`` against its round-start replica — so a
    match whose ground head is already present, or whose head a smaller
    image of the same rule grounds too, never becomes a
    :class:`Trigger`.  The merge keeps one trigger per distinct head, the
    smallest image (workers may each keep their own), and parks the head
    on ``_ground_output`` for the claim gate and for firing.  Existential
    rules enumerate unpruned.

    Every dropped trigger is one the restricted chase would have found
    satisfied at its turn, so firing the survivors in canonical order
    yields the same result, provenance and budget stops as firing all
    of :func:`new_triggers_of`.
    """
    rule_list = list(rules)
    if scheduler is not None:
        delta_atoms = delta.atoms() if isinstance(delta, Instance) else delta
        per_rule = scheduler.unsatisfied_images(
            instance, rule_list, delta_atoms
        )
    else:
        delta_inst = as_delta_instance(delta)
        if not len(delta_inst):
            return []
        per_rule = [
            sorted(rule_unsatisfied_images(rule, instance, delta_inst).items())
            for rule in rule_list
        ]
    triggers: list[Trigger] = []
    for rule, pairs in zip(rule_list, per_rule):
        if rule.existential_order():
            triggers.extend(
                _trigger_with_image(rule, hom, image) for image, hom in pairs
            )
            continue
        heads: set[frozenset[Atom]] = set()
        for image, hom in pairs:
            head = frozenset(rule.instantiate_head(hom))
            if head in heads:
                continue
            heads.add(head)
            trigger = _trigger_with_image(rule, hom, image)
            trigger._ground_output = head
            triggers.append(trigger)
    return triggers


def naive_new_triggers_of(
    instance: Instance,
    rules: RuleSet | list[Rule],
    fired: set[Trigger],
) -> list[Trigger]:
    """Reference enumeration of the not-yet-fired triggers.

    Re-matches every rule body against the whole instance and discards the
    already-fired triggers — the pre-incremental engine, kept as the
    ground truth the delta engine is tested against.  Output order matches
    :func:`new_triggers_of` (per rule, sorted by image).
    """
    fresh: list[Trigger] = []
    for rule in rules:
        batch = [
            t
            for t in (
                Trigger(rule, hom)
                for hom in homomorphisms(rule.body, instance)
            )
            if t not in fired
        ]
        batch.sort(key=Trigger.image)
        fresh.extend(batch)
    return fresh
