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

Every delta enumeration — oblivious, semi-oblivious and restricted,
inline or on the worker pool — joins on the delta core's id kernel
(:func:`repro.engine.core.round_matches`), which returns each rule's
distinct body images, and :func:`round_triggers` turns any round's
per-rule images into its triggers in canonical order; an oblivious
round's images that cannot add an atom become no trigger and are
counted instead (:class:`CountedImages`).  The object
matcher keeps the full enumerations (:func:`triggers_of`,
:func:`naive_new_triggers_of`, the ``naive`` engine's reference) and
the satisfaction checks.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Collection, Iterable, Iterator, Sequence

from repro.engine.core import (
    as_delta_instance,
    round_matches,
    row_getter,
    rule_delta_images,
)
from repro.logic.atoms import Atom, build_atom
from repro.logic.homomorphisms import (
    MATCHER_STATS,
    _candidates,
    _match_atom,
    homomorphisms,
)
from repro.logic.instances import Instance
from repro.logic.substitutions import Substitution
from repro.logic.terms import FreshSupply, Null, Term
from repro.rules.rule import INSTANTIATION_STATS, Rule
from repro.rules.ruleset import RuleSet


class Trigger:
    """A rule paired with a homomorphism from its body into some instance.

    A trigger is its rule plus its *image* ``h(x̄)``, the terms its body
    variables map to along ``rule.body_variable_order()``: two triggers
    are equal when they share the rule and the image — the identity used
    by the oblivious chase to fire each trigger exactly once — and
    triggers of one rule sort by image.  Delta rounds build triggers from
    images (:meth:`from_image`) and the mapping is derived from the
    image the first time it is read; the object-matcher paths build them
    from a homomorphism (``Trigger(rule, mapping)``), restricted to the
    body variables, and the image is derived the first time it is read.
    """

    __slots__ = (
        "rule", "_mapping", "_image", "_ground_output", "_shared_head"
    )

    def __init__(self, rule: Rule, mapping: Substitution):
        self.rule = rule
        self._mapping: Substitution | None = mapping.restrict(
            rule.body_variables()
        )
        self._image: tuple[Term, ...] | None = None
        # For existential-free rules the output is fully determined by the
        # image.  The restricted chase's enumeration (round_triggers), its
        # satisfaction check or a custom policy's claim gate may park the
        # instantiated head here, already counted in INSTANTIATION_STATS,
        # and :meth:`output` reuses the parked atoms instead of
        # instantiating a second time.
        self._ground_output: frozenset[Atom] | set[Atom] | None = None
        # The round's shared head (round_triggers): built once per
        # distinct head in the round, counted when :meth:`output` hands
        # it out.
        self._shared_head: frozenset[Atom] | None = None

    @classmethod
    def from_image(
        cls,
        rule: Rule,
        image: tuple[Term, ...],
        shared_head: frozenset[Atom] | None = None,
    ) -> "Trigger":
        """The trigger of ``rule`` whose body variables map to ``image``
        (along ``rule.body_variable_order()``), optionally with its
        round's shared ground head."""
        trigger = cls.__new__(cls)
        trigger.rule = rule
        trigger._mapping = None
        trigger._image = image
        trigger._ground_output = None
        trigger._shared_head = shared_head
        return trigger

    @property
    def mapping(self) -> Substitution:
        """The body homomorphism, restricted to the body variables and
        without identity pairs; derived from the image on first read."""
        cached = self._mapping
        if cached is None:
            cached = self._mapping = Substitution._from_clean({
                v: t
                for v, t in zip(self.rule.body_variable_order(), self._image)
                if v != t
            })
        return cached

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
            shared = self._shared_head
            if shared is None:
                return rule.instantiate_head(self.mapping), {}
            INSTANTIATION_STATS.heads += 1
            return shared, {}
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


def _image_key(image: tuple[Term, ...]) -> list:
    """Sort key of an image in ``Term`` order: each term's ``(rank,
    name)``, the order ``Term.__lt__`` defines (the rank identifies the
    term's class), flattened so that keys compare at C level.  The images
    of one rule have one length, so the flat keys order them as the
    pairs would."""
    return [part for term in image for part in (term._rank, term.name)]


def _ground_heads(
    rule: Rule, atoms: dict, heads: dict
) -> Callable[[tuple[Term, ...]], frozenset[Atom]]:
    """An existential-free rule's ground head per image.

    The head depends on the image only through its frontier positions,
    so one head is built per distinct frontier image, interned in
    ``atoms`` (per ``(predicate, args)``) and ``heads`` (per atom set);
    head constants stay fixed.
    """
    position = {v: i for i, v in enumerate(rule.body_variable_order())}
    frontier = rule.frontier_order()
    frontier_of = row_getter([position[v] for v in frontier])
    head = rule.head
    built: dict = {}

    def ground(image: tuple[Term, ...]) -> frozenset[Atom]:
        key = frontier_of(image)
        found = built.get(key)
        if found is None:
            value = dict(zip(frontier, key))
            members = []
            for atom in head:
                predicate = atom.predicate
                args = tuple([value.get(t, t) for t in atom.args])
                made = atoms.get((predicate, args))
                if made is None:
                    made = atoms[predicate, args] = build_atom(predicate, args)
                members.append(made)
            found = frozenset(members)
            found = built[key] = heads.setdefault(found, found)
        return found

    return ground


class CountedImages:
    """The images of an ``enumerate_counted`` round that build no
    :class:`Trigger`: existential-free images whose ground head was in
    the instance at round start, or repeats a smaller image's head.

    Each is one application that adds no atom, so the round counts it
    (:meth:`~repro.chase.result.ChaseResult.record_round`) instead of
    firing it.  ``groups`` holds ``(rule position, images)`` per rule
    with such images, in rule-set order (:meth:`add`); ``first`` is the
    round's first trigger.  Only a mid-round atom-budget stop needs to
    know where the images fall in canonical order (:meth:`preceding`,
    :meth:`leads`); a round that does not stop never sorts them.
    """

    __slots__ = ("rules", "groups", "first", "_count")

    def __init__(self, rules: Sequence[Rule] = ()):
        self.rules = rules
        self.groups: list[tuple[int, Collection[tuple[Term, ...]]]] = []
        self.first: Trigger | None = None
        self._count = 0

    def add(self, position: int, images: Collection[tuple[Term, ...]]):
        """Count the images of the rule at ``position`` in ``rules``."""
        self.groups.append((position, images))
        self._count += len(images)

    def __len__(self) -> int:
        return self._count

    def preceding(self, trigger: Trigger) -> int:
        """How many of the images come before ``trigger`` in canonical
        order: all those of earlier rules, and those of its own rule
        whose image sorts below its image."""
        rule = trigger.rule
        position = next(
            at for at, other in enumerate(self.rules) if other is rule
        )
        key = _image_key(trigger.image())
        count = 0
        for at, images in self.groups:
            if at < position:
                count += len(images)
            elif at == position:
                count += sum(1 for image in images if _image_key(image) < key)
        return count

    def leads(self) -> bool:
        """Whether the round's first application in canonical order is
        one of the images."""
        return bool(self.groups) and (
            self.first is None or self.preceding(self.first) > 0
        )


def round_triggers(
    rules: RuleSet | list[Rule],
    per_rule: Iterable,
    mode: str = "enumerate",
) -> tuple[list[Trigger], CountedImages]:
    """The triggers of one delta round, in canonical order, and the
    round's :class:`CountedImages`.

    ``per_rule`` holds, per rule, what
    :func:`~repro.engine.core.round_matches` returns in ``mode``, inline
    or merged across the worker pool: a collection of distinct images,
    or a ``(survivors, pruned)`` pair in ``"enumerate_counted"``.
    Triggers come per rule in rule-set order, each rule's sorted by
    image — the order every engine fires in, whichever way the matches
    were found.  Images sort on ``(rank, name)`` keys per term, the
    order ``Term.__lt__`` defines.

    An existential-free rule's triggers share their ground heads: the
    round builds one :class:`Atom` per distinct head atom and one
    frozenset per distinct head, in tables local to this call, and
    parks the head on every trigger that grounds it (``_shared_head``,
    counted in :data:`~repro.rules.rule.INSTANTIATION_STATS` when
    :meth:`Trigger.output` hands it out).

    The two pruned modes keep, per existential-free rule, one trigger
    per distinct ground head, the smallest image (two pool workers may
    each keep one for a head).  ``"enumerate_unsatisfied"`` (the
    restricted chase) parks the head on ``_ground_output`` for the
    claim gate and for firing and counts one instantiation per image:
    every dropped trigger is one the restricted chase would have found
    satisfied at its turn, so firing the survivors in canonical order
    yields the same result, provenance and budget stops as firing all
    of the round's matches.  ``"enumerate_counted"`` (the oblivious
    chase) shares the survivors' heads as above and returns every other
    distinct image — the pruned ones and the survivors a smaller
    image's head displaced — as :class:`CountedImages`: each adds no
    atom, so counting it is applying it.  The other modes count none.
    """
    triggers: list[Trigger] = []
    append = triggers.append
    from_image = Trigger.from_image
    atoms: dict = {}
    heads: dict = {}
    counted = CountedImages(rules)
    counting = mode == "enumerate_counted"
    for position, (rule, found) in enumerate(zip(rules, per_rule)):
        images, pruned = found if counting else (found, ())
        ordered = sorted(images, key=_image_key) if images else ()
        if ordered and rule.existential_order():
            for image in ordered:
                append(from_image(rule, image))
        elif ordered and mode == "enumerate":
            ground = _ground_heads(rule, atoms, heads)
            for image in ordered:
                append(from_image(rule, image, ground(image)))
        elif ordered:
            ground = _ground_heads(rule, atoms, heads)
            if not counting:
                INSTANTIATION_STATS.heads += len(ordered)
            seen: set[frozenset[Atom]] = set()
            displaced = []
            for image in ordered:
                head = ground(image)
                if head in seen:
                    displaced.append(image)
                    continue
                seen.add(head)
                if counting:
                    append(from_image(rule, image, head))
                else:
                    trigger = from_image(rule, image)
                    trigger._ground_output = head
                    append(trigger)
            if counting and displaced:
                pruned = list(dict.fromkeys(chain(pruned, displaced)))
        if pruned:
            counted.add(position, pruned)
    counted.first = triggers[0] if triggers else None
    return triggers, counted


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
    out on the trigger image.  Lazy, one rule at a time.

    Deterministic: rules in rule-set order, then triggers of each rule
    sorted by their body-variable image (:func:`round_triggers`).  The
    chase engines rely on this canonical order being *independent of how
    the triggers were found*, so the delta, naive and parallel engines
    fire in the same order and produce bit-identical results.
    """
    delta_inst = as_delta_instance(delta)
    if not len(delta_inst):
        return
    for rule in rules:
        found = rule_delta_images(rule, instance, delta_inst)
        yield from round_triggers((rule,), (found,))[0]


def restricted_new_triggers_of(
    instance: Instance,
    rules: RuleSet | list[Rule],
    delta: Iterable[Atom] | Instance,
) -> list[Trigger]:
    """The restricted chase's :func:`new_triggers_of`: only triggers that
    can still add an atom, in the same canonical order.

    One inline ``enumerate_unsatisfied`` round
    (:func:`~repro.engine.core.rule_unsatisfied_images` per rule) through
    :func:`round_triggers`: a match of an existential-free rule whose
    ground head is already present, or whose head a smaller image of the
    same rule grounds too, never becomes a :class:`Trigger`.  Existential
    rules enumerate unpruned.
    """
    rules = list(rules)
    mode = "enumerate_unsatisfied"
    per_rule = round_matches(mode, rules, instance, as_delta_instance(delta))
    return round_triggers(rules, per_rule, mode)[0]


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
