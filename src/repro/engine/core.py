"""The unified semi-naive delta core and its id-native join kernel.

One pivot-atom decomposition serves every delta-driven round in the
library: trigger enumeration for the chase variants and head derivation
for the Datalog closure (:func:`repro.rewriting.datalog.semi_naive_closure`).
Every such round runs :func:`round_matches` — in the parent on the whole
delta, or on each worker of the pool on its slice of it.

The decomposition: a homomorphism of a rule body into the instance uses at
least one delta atom exactly when some body atom maps into the delta.  For
each body atom in turn (the *pivot*), that atom is matched against the
delta only while the remaining atoms match the full instance through the
positional index.  A homomorphism whose body image touches ``k`` delta
atoms is found by ``k`` pivots; callers deduplicate on their own identity
(trigger image for the chase, the derived head rows for the closure).

Every delta round runs it on one matcher, the *join kernel*, inline and
on the worker replicas alike: :func:`rule_delta_images` (every oblivious
and semi-oblivious round, and every existential rule),
:func:`rule_unsatisfied_images` (the restricted chase) and
:func:`derive_delta_atoms` (the closure).  So does the serving layer's
goal probe, through :func:`rule_delta_match`, which stops at the first
match and may pin body variables to terms (a *seed*).  The kernel
compiles a rule's body into one slot program per pivot — the same
pivots, the same ``_order_atoms`` atom order and the same
most-selective positional bucket as the object matcher, so
``MATCHER_STATS`` counts the same searches and candidates — and walks
the integer rows of a :class:`~repro.engine.columnar.ColumnarInstance`
through its id-level positional index.  Existential variables change
only the head, so one body program serves every rule; ground heads
(existential-free rules) are id tuples tested against the store's row
sets.  The enumerate modes return images only: per rule, the distinct
``h(x̄)`` along ``rule.body_variable_order()`` as ``Term`` tuples, in no
particular order (callers sort), with no ``Substitution`` built — a
trigger derives its mapping from its image
(:class:`~repro.chase.trigger.Trigger`).  The derive mode returns only
the ground heads the store lacks, as id rows: a worker replies with
them as they are, and the parent builds one ``Atom`` per new head.
:func:`delta_homomorphisms`, the object
matcher's (:mod:`repro.logic.homomorphisms`) run of the decomposition,
is the reference the kernel is tested against; no engine path calls it.

An object :class:`~repro.logic.instances.Instance` is joined through its
*id view* (:func:`id_view`): a ``ColumnarInstance`` over a private
vocabulary, attached to the instance and brought up to date from
``delta_since`` at most once per round.  Ids follow interning order,
which follows set iteration and ``PYTHONHASHSEED``: the kernel compares
ids for equality only and orders images by their ``Term`` values.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

from repro.engine import wire
from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.logic.atoms import Atom
from repro.logic.homomorphisms import (
    MATCHER_STATS,
    _order_atoms,
    homomorphisms,
    homomorphisms_with_pivot,
    position_pairs,
)
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
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

    The object matcher's enumeration, kept as the reference the join
    kernel is tested against.  A homomorphism touching ``k`` delta atoms
    is yielded up to ``k`` times (once per pivot).  When ``delta_inst``
    *is* the instance every homomorphism qualifies, so the plain
    per-rule enumeration runs instead and yields each one once.
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


def _idle(rule: Rule, instance, delta_inst) -> bool:
    """Whether the delta has no row over any body predicate: no pivot
    search would run, so the rule is not worth compiling."""
    if delta_inst is instance:
        return False
    count = delta_inst.count
    return not any(count(atom.predicate) for atom in rule.body)


def rule_delta_images(
    rule: Rule,
    instance: Instance | ColumnarInstance,
    delta_inst: Instance | ColumnarInstance,
) -> list[tuple[Term, ...]]:
    """The distinct images of one rule's body matches that use a delta
    atom.

    An image is ``h(x̄)`` along ``rule.body_variable_order()`` — the
    identity of a :class:`~repro.chase.trigger.Trigger`, which derives
    its mapping from it — so the images of different delta slices (or
    different pivots) merge by set union.  The list holds each image
    once, in no particular order (callers sort by image).
    """
    if _idle(rule, instance, delta_inst):
        return []
    return _RuleJoin(rule, instance, delta_inst).images()


def rule_unsatisfied_images(
    rule: Rule,
    instance: Instance | ColumnarInstance,
    delta_inst: Instance | ColumnarInstance,
) -> list[tuple[Term, ...]]:
    """:func:`rule_delta_images` minus the matches that cannot add an atom.

    The restricted chase's enumeration.  An existential-free rule's match
    grounds its whole head, which is then both the output and the
    satisfaction witness, so two kinds of match can never fire:

    * every head atom is already in ``instance`` (the round-start state —
      a chase instance only grows, so the head stays present);
    * another match of the rule grounds the same head set and has a
      smaller canonical image: it comes first in firing order, and once
      it has fired (or was found satisfied) the head is present.

    Both are dropped inside the join kernel, on id tuples — one head
    instantiation per match (counted in
    :data:`~repro.rules.rule.INSTANTIATION_STATS`).  Per delta slice this
    keeps the smallest image per head, compared in ``Term`` order; merging
    slices must keep the smallest again.  The list holds each image once,
    in no particular order (callers sort by image).  Existential rules
    are returned unpruned.
    """
    if rule.existential_order():
        return rule_delta_images(rule, instance, delta_inst)
    if _idle(rule, instance, delta_inst):
        return []
    return _RuleJoin(rule, instance, delta_inst).unsatisfied()


def rule_delta_match(
    rule: Rule,
    instance: Instance | ColumnarInstance,
    delta_inst: Instance | ColumnarInstance,
    seed: dict[Term, Term] | None = None,
) -> tuple[bool, int]:
    """Whether some match of ``rule.body`` that extends ``seed`` uses a
    delta atom, and how many pivot searches ran to decide it.

    Existence mode of the core, used by the serving layer's goal probe
    (each goal is the rule ``body → ⊤``).  The join stops at its first
    match, so the searches run are every pivot's with delta rows when
    nothing matches, and those up to the witnessing pivot otherwise —
    the searches the object matcher's pivot loop would run, counted in
    ``MATCHER_STATS`` as each starts.  ``seed`` pins body variables to
    terms; a term the instance lacks matches nothing.
    """
    if _idle(rule, instance, delta_inst):
        return False, 0
    return _RuleJoin(rule, instance, delta_inst, seed).exists()


def derive_delta_rows(
    rules: Sequence[Rule],
    instance: Instance | ColumnarInstance,
    delta_inst: Instance | ColumnarInstance,
) -> set[tuple[int, tuple[int, ...]]]:
    """The ground heads of the Datalog ``rules`` whose body uses ≥ 1
    delta atom and that ``instance`` lacks, as id rows ``(pred_id,
    term_ids)`` over its id view.

    Derivation mode of the core, used by the Datalog closure: no trigger
    identity, no canonical ordering — duplicate matches collapse in the
    returned set, which is all a saturation needs.  The join kernel
    drops the heads in the store's row sets, so a head present at round
    start never leaves it.  Every head symbol gets an id first, so all
    rules' rows share one id space: an object instance's id view interns
    them; a columnar store (a worker's replica, whose tables grow only
    by segments) must hold them already, as the pool's seed interned
    them (:func:`~repro.engine.wire.intern_rules`).
    """
    view = id_view(instance)
    if view is instance:
        wire.require_rule_symbols(view.vocabulary, rules)
    else:
        wire.intern_rules(view.vocabulary, rules)
    rows: set[tuple[int, tuple[int, ...]]] = set()
    for rule in rules:
        if not _idle(rule, instance, delta_inst):
            rows |= _RuleJoin(rule, instance, delta_inst).derive()
    return rows


def derive_delta_atoms(
    rule: Rule,
    instance: Instance | ColumnarInstance,
    delta_inst: Instance | ColumnarInstance,
) -> set[Atom]:
    """Head instantiations of ``rule`` whose body uses ≥ 1 delta atom and
    that ``instance`` lacks: :func:`derive_delta_rows` of ``rule``, one
    :class:`Atom` per row.

    ``delta_inst is instance`` (the ``naive`` engine's full
    re-derivation) stays on the object matcher, the reference, and
    returns every head instantiation, present or not.
    """
    if delta_inst is instance:
        derived: set[Atom] = set()
        head = rule.head
        for hom in homomorphisms(rule.body, instance):
            derived.update(hom.apply_atoms(head))
        return derived
    rows = derive_delta_rows((rule,), instance, delta_inst)
    return id_view(instance).vocabulary.atoms(rows)


def round_matches(
    mode: str,
    rules: Sequence[Rule],
    instance: Instance | ColumnarInstance,
    delta_inst: Instance | ColumnarInstance,
):
    """One delta round over ``rules``: the per-slice function every round
    runs, inline on the whole delta or in a pool worker on its slice.

    ``mode`` is the pool's command name: per rule, the
    :func:`rule_delta_images` list (``"enumerate"``) or the
    :func:`rule_unsatisfied_images` list (``"enumerate_unsatisfied"``),
    or the new heads of all rules (``"derive"``): their
    :func:`derive_delta_rows` on a columnar store (a worker's replica,
    whose reply packs them as they are), their
    :func:`derive_delta_atoms` on an object instance.
    """
    if mode == "derive":
        if isinstance(instance, ColumnarInstance):
            return derive_delta_rows(rules, instance, delta_inst)
        derived: set[Atom] = set()
        for rule in rules:
            derived |= derive_delta_atoms(rule, instance, delta_inst)
        return derived
    images = (
        rule_unsatisfied_images
        if mode == "enumerate_unsatisfied"
        else rule_delta_images
    )
    return [images(rule, instance, delta_inst) for rule in rules]


# ----------------------------------------------------------------------
# The join kernel
# ----------------------------------------------------------------------


def id_view(instance: Instance | ColumnarInstance) -> ColumnarInstance:
    """The id-level store the join kernel reads for ``instance``.

    A columnar store is its own view.  An object instance's view is a
    :class:`ColumnarInstance` over a private vocabulary, created on first
    use and brought up to date from ``instance.delta_since`` whenever the
    instance's revision moved — so at most once per round.  The view
    is per process: it lives in the instance's ``_id_view`` slot, is
    never pickled (worker replicas are columnar stores already) and
    ``discard`` drops it.
    """
    if isinstance(instance, ColumnarInstance):
        return instance
    revision = instance.revision
    attached = instance._id_view
    if attached is None:
        view, synced = ColumnarInstance(Vocabulary()), 0
    else:
        view, synced = attached
        if synced == revision:
            return view
    intern = view.vocabulary.intern_atom
    add_row = view.add_row
    for atom in instance.delta_since(synced):
        pred_id, term_ids = intern(atom)
        add_row(pred_id, term_ids)
    instance._id_view = (view, revision)
    return view


class _Ids:
    """Symbol ↔ id for one join over one vocabulary.

    A symbol the vocabulary has never seen (a rule constant or head
    predicate no row mentions yet, a delta term outside the instance)
    gets a distinct negative placeholder id.  It occurs in no row, so it
    matches nothing, and it is never written into the vocabulary — a
    worker's wire tables grow only through table segments — so a later
    round that interns the symbol resolves it afresh.
    """

    __slots__ = ("terms", "_term_ids", "_predicate_ids",
                 "_placeholder_ids", "_placeholders")

    def __init__(self, vocabulary: Vocabulary):
        self.terms = vocabulary.terms
        self._term_ids = vocabulary.term_ids
        self._predicate_ids = vocabulary.predicate_ids
        # Symbol -> placeholder id, and the symbols by ``-1 - id``.
        self._placeholder_ids: dict = {}
        self._placeholders: list = []

    def _placeholder(self, symbol) -> int:
        found = self._placeholder_ids.get(symbol)
        if found is None:
            self._placeholders.append(symbol)
            found = self._placeholder_ids[symbol] = -len(self._placeholders)
        return found

    def term(self, term: Term) -> int:
        found = self._term_ids.get(term)
        return found if found is not None else self._placeholder(term)

    def predicate(self, predicate: Predicate) -> int:
        found = self._predicate_ids.get(predicate)
        return found if found is not None else self._placeholder(predicate)

    def term_of(self, term_id: int) -> Term:
        if term_id >= 0:
            return self.terms[term_id]
        return self._placeholders[-1 - term_id]

    def images(self, kept: Iterable[tuple]) -> list[tuple[Term, ...]]:
        """The ``Term`` tuples of id tuples.  While the join has made no
        placeholder, none can occur and each id is a plain list index."""
        term = self.term_of if self._placeholders else self.terms.__getitem__
        return [tuple(map(term, ids)) for ids in kept]


def row_getter(slots: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The values at positions ``slots`` of a sequence (a slot list, an
    image) as one tuple (C-level when it can be)."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        (slot,) = slots
        return lambda values: (values[slot],)
    return lambda values: ()


# checks: hot
def _agrees(row: tuple, pairs: Sequence[tuple[int, int]], slots: list) -> bool:
    """Whether ``row[position] == slots[slot]`` for every pair."""
    for position, slot in pairs:
        if row[position] != slots[slot]:
            return False
    return True


# checks: hot
def _select(index_get, pred_id: int, bound, slots: list):
    """The object matcher's ``_candidates`` on ids: the smallest
    positional bucket over the bound positions (first in position order
    on ties, empty as soon as one is), plus the bound pairs left to
    check on each of its rows."""
    best = None
    chosen = -1
    for position, slot in bound:
        bucket = index_get((pred_id, position, slots[slot]))
        if bucket is None:
            return (), ()
        if best is None or len(bucket) < len(best):
            best = bucket
            chosen = position
    return best, [pair for pair in bound if pair[0] != chosen]


class _OrderKeys(dict):
    """id -> the ``Term`` order key of its term, filled on first use.

    The key is ``(rank, name)``, the order ``Term.__lt__`` defines (and
    ``Atom.sort_key`` spells the same way), so comparing two keys is a
    C-level tuple comparison instead of a ``Term.__lt__`` call.
    """

    __slots__ = ("_term_of",)

    def __init__(self, term_of: Callable[[int], Term]):
        super().__init__()
        self._term_of = term_of

    def __missing__(self, term_id: int) -> tuple[int, str]:
        term = self._term_of(term_id)
        key = self[term_id] = (term._rank, term.name)
        return key


# checks: hot
def _precedes(
    candidate: list, kept: tuple, size: int, keys: _OrderKeys
) -> bool:
    """Whether ``candidate[:size]`` is below ``kept[:size]`` in ``Term``
    order (ids only decide equality)."""
    for index in range(size):
        left = candidate[index]
        right = kept[index]
        if left != right:
            return keys[left] < keys[right]
    return False


def _level(view: ColumnarInstance, program, inner, tally: list, fixed):
    """The loop of one body atom: candidates, filters, then ``inner``.

    ``program`` is ``(pred_id, bound, binds, repeats)`` of ``(position,
    slot)`` pairs: positions holding a constant or an earlier atom's
    variable, first occurrences of new variables, and their repeats.
    ``fixed`` (the pivot's delta rows) replaces the bucket choice.
    """
    pred_id, bound, binds, repeats = program
    index_get = view.positional_index.get
    all_rows = view.rows(pred_id)
    single = bound[0] if len(bound) == 1 else None

    # checks: hot
    def run(slots: list) -> None:
        if fixed is not None:
            candidates, checks = fixed, bound
        elif single is not None:
            position, slot = single
            candidates = index_get((pred_id, position, slots[slot]), ())
            checks = ()
        elif bound:
            candidates, checks = _select(index_get, pred_id, bound, slots)
        else:
            candidates, checks = all_rows, ()
        tally[0] += len(candidates)
        for row in candidates:
            if checks and not _agrees(row, checks, slots):
                continue
            for position, slot in binds:
                slots[slot] = row[position]
            if repeats and not _agrees(row, repeats, slots):
                continue
            inner(slots)

    return run


class _Stop(Exception):
    """Raised by an ``emit`` to end the join at the current match."""


class _RuleJoin:
    """One rule's body joined once against an id view.

    Slot layout, shared by every pivot's program: the body variables in
    canonical order (so a match's image is a slot prefix), then the
    body's other non-constant terms, then one slot per constant (and,
    once :meth:`_heads` compiled them, per head term the body does not
    bind) holding its id.  A seeded variable's slot holds its term's id
    from the start.
    """

    #: The seeded body variables: bound in every program, and pinned for
    #: ``_order_atoms`` as ``homomorphisms_with_pivot`` pins its seed.
    pinned: frozenset[Term] = frozenset()

    def __init__(
        self,
        rule: Rule,
        instance: Instance | ColumnarInstance,
        delta_inst: Instance | ColumnarInstance,
        seed: dict[Term, Term] | None = None,
    ):
        self.rule = rule
        self.view = view = id_view(instance)
        self.ids = _Ids(view.vocabulary)
        order = rule.body_variable_order()
        slot_of: dict[Term, int] = {v: i for i, v in enumerate(order)}
        body = rule.sorted_body()
        for atom in body:
            for term in atom.args:
                if not term.is_constant and term not in slot_of:
                    slot_of[term] = len(slot_of)
        self.image_size = len(order)
        self.slots: list = [None] * len(slot_of)
        self.slot_of = slot_of
        self._bind(body)
        if seed:
            self._seed(seed)
        self.searches = self._searches(rule, instance, delta_inst)

    def _seed(self, seed: dict[Term, Term]) -> None:
        """Pre-bind the seeded body variables to their terms' ids (a
        placeholder, matching nothing, for a term the view lacks)."""
        slot_of = self.slot_of
        term = self.ids.term
        pinned = []
        for variable, value in seed.items():
            if not variable.is_constant and variable in slot_of:
                self.slots[slot_of[variable]] = term(value)
                pinned.append(variable)
        self.pinned = frozenset(pinned)

    def _bind(self, atoms: Iterable[Atom]) -> None:
        """Give every term of ``atoms`` without a slot one holding its id."""
        slot_of = self.slot_of
        for atom in atoms:
            for term in atom.args:
                if term not in slot_of:
                    slot_of[term] = len(self.slots)
                    self.slots.append(self.ids.term(term))

    def _heads(self) -> list[tuple]:
        """``(pred_id, ground-row getter)`` per head atom, in atom order."""
        head = sorted(self.rule.head)
        self._bind(head)
        slot_of = self.slot_of
        return [
            (
                self.ids.predicate(atom.predicate),
                row_getter([slot_of[t] for t in atom.args]),
            )
            for atom in head
        ]

    def _searches(self, rule, instance, delta_inst) -> list[tuple]:
        """``(atom order, pivot rows or None)`` per search the object
        matcher would run: one per pivot with delta rows, or a single
        unpivoted search when the delta is the instance."""
        if delta_inst is instance:
            return [
                (_order_atoms(list(rule.body), instance, self.pinned), None)
            ]
        searches = []
        pivot_rows: dict[Predicate, Collection[tuple]] = {}
        for pivot in rule.sorted_body():
            rows = pivot_rows.get(pivot.predicate)
            if rows is None:
                rows = pivot_rows[pivot.predicate] = self._pivot_rows(
                    delta_inst, pivot.predicate
                )
            if not rows:
                continue
            rest = list(rule.body)
            rest.remove(pivot)
            pinned = {t for t in pivot.args if not t.is_constant}
            pinned |= self.pinned
            searches.append(
                ([pivot] + _order_atoms(rest, instance, bound=pinned), rows)
            )
        return searches

    def _pivot_rows(self, delta, predicate: Predicate) -> Collection[tuple]:
        """The delta's rows over ``predicate``, in the view's ids (in no
        particular order: the join's results do not depend on it).  A
        columnar delta is a worker's pivot slice, over its replica's
        vocabulary."""
        if isinstance(delta, ColumnarInstance):
            if delta.vocabulary is not self.view.vocabulary:
                raise ValueError(
                    "a columnar delta must share its instance's vocabulary"
                )
            return delta.rows(self.ids.predicate(predicate))
        term = self.ids.term
        return {
            tuple([term(t) for t in atom.args])
            for atom in delta.with_predicate(predicate)
        }

    def _program(self, atom: Atom, bound_terms: set) -> tuple:
        bound, binds, repeats = position_pairs(atom, self.slot_of, bound_terms)
        return (self.ids.predicate(atom.predicate), bound, binds, repeats)

    def _run(self, emit: Callable[[list], None]) -> int:
        """Hand every match of every search to ``emit`` as the live slot
        list (use it before returning); return how many searches ran.

        ``emit`` may raise :class:`_Stop` to end the join at a match.
        Each search counts in ``MATCHER_STATS.searches`` as it starts, so
        a stopped join has counted the searches the object matcher would
        have run by then.
        """
        tally = [0]
        slots = list(self.slots)
        started = 0
        try:
            for ordered, pivot_rows in self.searches:
                started += 1
                MATCHER_STATS.searches += 1
                bound_terms: set[Term] = set(self.pinned)
                programs = [
                    self._program(atom, bound_terms) for atom in ordered
                ]
                inner = emit
                for depth in range(len(programs) - 1, -1, -1):
                    inner = _level(
                        self.view,
                        programs[depth],
                        inner,
                        tally,
                        pivot_rows if depth == 0 else None,
                    )
                inner(slots)
        except _Stop:
            pass
        finally:
            MATCHER_STATS.candidates += tally[0]
        return started

    def images(self) -> list[tuple[Term, ...]]:
        kept: dict = {}  # the distinct image ids
        image_of = row_getter(range(self.image_size))

        def emit(slots: list) -> None:
            kept[image_of(slots)] = None

        self._run(emit)
        return self.ids.images(kept)

    def exists(self) -> tuple[bool, int]:
        """Stop at the first match: whether there is one, and how many
        searches ran."""
        found = False

        def emit(slots: list) -> None:
            nonlocal found
            found = True
            raise _Stop

        started = self._run(emit)
        return found, started

    def unsatisfied(self) -> list[tuple[Term, ...]]:
        heads = self._heads()
        view = self.view
        keys = _OrderKeys(self.ids.term_of)
        image_size = self.image_size
        image_of = row_getter(range(image_size))
        kept: dict = {}  # ground head (row or frozenset) -> image ids
        matches = 0
        if len(heads) == 1:
            ((pred_id, head_row),) = heads
            present = view.row_set(pred_id)

            def emit(slots: list) -> None:
                nonlocal matches
                matches += 1
                key = head_row(slots)
                if key in present:
                    return
                previous = kept.get(key)
                if previous is None or _precedes(
                    slots, previous, image_size, keys
                ):
                    kept[key] = image_of(slots)

        else:
            heads = [
                (pred_id, head_row, view.row_set(pred_id))
                for pred_id, head_row in heads
            ]

            # checks: hot
            def emit(slots: list) -> None:
                nonlocal matches
                matches += 1
                ground = []
                present = True
                for pred_id, head_row, rows in heads:
                    row = head_row(slots)
                    ground.append((pred_id, row))
                    present = present and row in rows
                if present:
                    return
                key = frozenset(ground)
                previous = kept.get(key)
                if previous is None or _precedes(
                    slots, previous, image_size, keys
                ):
                    kept[key] = image_of(slots)

        self._run(emit)
        INSTANTIATION_STATS.heads += matches
        return self.ids.images(kept.values())

    def derive(self) -> set[tuple[int, tuple[int, ...]]]:
        """The ground heads the view lacks, as id rows ``(pred_id,
        term_ids)``; the caller made sure every head symbol has an id."""
        heads = [
            (pred_id, head_row, set()) for pred_id, head_row in self._heads()
        ]
        if len(heads) == 1:
            ((_, head_row, rows),) = heads
            add = rows.add

            def emit(slots: list) -> None:
                add(head_row(slots))

        else:

            # checks: hot
            def emit(slots: list) -> None:
                for _, head_row, rows in heads:
                    rows.add(head_row(slots))

        self._run(emit)
        row_set = self.view.row_set
        return {
            (pred_id, row)
            for pred_id, _, rows in heads
            for row in rows.difference(row_set(pred_id))
        }
