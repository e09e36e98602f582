"""The unified semi-naive delta core and its id-native join kernel.

One pivot-atom decomposition serves every delta-driven round in the
library: trigger enumeration for the chase variants and head derivation
for the Datalog closure (:func:`repro.rewriting.datalog.semi_naive_closure`).
Every such round runs :func:`round_matches` — in the parent on the whole
delta, or on each worker of the pool on its slice of it.  The delta
has one form, :data:`DeltaRows` (:func:`delta_rows` in the parent, the
parsed pivot buffer on a worker), or is ``None`` for the whole instance.

The decomposition: a homomorphism of a rule body into the instance uses at
least one delta atom exactly when some body atom maps into the delta.  For
each body atom in turn (the *pivot*), that atom is matched against the
delta only while the remaining atoms match the full instance through its
position buckets.  A homomorphism whose body image touches ``k`` delta
atoms is found by ``k`` pivots; callers deduplicate on their own identity
(trigger image for the chase, the derived head rows for the closure).

Every delta round runs it on one matcher, the *join kernel*, inline and
on the worker replicas alike: :func:`rule_delta_images` (every
semi-oblivious round, and every existential rule),
:func:`rule_counted_images` (the oblivious chase),
:func:`rule_unsatisfied_images` (the restricted chase) and
:func:`derive_delta_atoms` (the closure).  So does the serving layer's
goal probe, through :func:`rule_delta_match`, which stops at the first
match and may pin body variables to terms (a *seed*).  The kernel
compiles a rule's body into one plan per pivot
(:func:`~repro.logic.homomorphisms.compile_plan`) and runs it on the one
id join loop, :func:`~repro.logic.homomorphisms.run_plan`, over the
tables of a :class:`~repro.engine.columnar.ColumnarInstance` — the loop
and the table layout CQ subsumption runs on too.  Each mode is the
loop's ``emit``: it collects images or heads, or stops at the first
match.  The plans take the same pivots, the same ``_order_atoms`` atom
order and the same most-selective bucket as the object matcher, so
``MATCHER_STATS`` counts the same searches, and the same candidates on
every search that runs to its end (a search stopped at its first match
counts the candidates it tested, and which those are depends on row
order).  Existential variables change only the head, so one body plan
serves every rule; ground heads (existential-free rules) are id tuples
tested against the store's row sets.  The enumerate modes return images
only: per rule, the distinct
``h(x̄)`` along ``rule.body_variable_order()`` as ``Term`` tuples, in no
particular order (callers sort; the counted mode splits them into a
``(survivors, pruned)`` pair), with no ``Substitution`` built — a
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
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from repro.engine import wire
from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.homomorphisms import (
    _order_atoms,
    compile_plan,
    first_match,
    homomorphisms,
    homomorphisms_with_pivot,
    rank_pattern,
    run_plan,
)
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.substitutions import Substitution
from repro.logic.terms import Term
from repro.rules.rule import INSTANTIATION_STATS, Rule

#: A round's delta as every kernel entry point takes it: ``pred_id ->``
#: term-id rows, in delta order, over the id view the join reads.
#: ``None`` in its place is the unpivoted join over the whole instance.
DeltaRows = Mapping[int, Sequence[tuple[int, ...]]]


def delta_rows(instance: Instance, delta: Iterable[Atom]) -> DeltaRows:
    """``delta``, atoms of ``instance``, as :data:`DeltaRows` over its id
    view (:func:`id_view`): built once per round, shared by every rule
    and goal joined on it.

    An atom the instance lacks raises :class:`~repro.errors.ChaseError`
    (a pivot on it would match outside the instance).  A repeated atom
    repeats its row, and the pivot work, not the results.
    """
    intern = id_view(instance).vocabulary.intern_atom
    grouped: dict[int, list[tuple[int, ...]]] = {}
    for atom in delta:
        if atom not in instance:
            raise ChaseError(f"delta atom {atom} is not in the instance")
        pred_id, row = intern(atom)
        grouped.setdefault(pred_id, []).append(row)
    return grouped


def delta_homomorphisms(
    rule: Rule, instance: Instance, delta: Instance | None
) -> Iterator[Substitution]:
    """Homomorphisms of ``rule.body`` into ``instance`` using ≥ 1 atom of
    the object instance ``delta``.

    The object matcher's enumeration, kept as the reference the join
    kernel is tested against.  A homomorphism touching ``k`` delta atoms
    is yielded up to ``k`` times (once per pivot).  ``delta=None`` stands
    for the whole instance: the plain per-rule enumeration runs instead
    and yields each homomorphism once.
    """
    if delta is None:
        yield from homomorphisms(rule.body, instance)
        return
    body = rule.body
    for pivot in rule.sorted_body():
        candidates = delta.sorted_with_predicate(pivot.predicate)
        if not candidates:
            continue
        yield from homomorphisms_with_pivot(body, instance, pivot, candidates)


def _join(rule: Rule, instance, delta: DeltaRows | None, seed=None):
    """One rule's :class:`_RuleJoin` with a ``(pivot, pivot rows)`` pair
    per search the object matcher would run: one per pivot with delta
    rows, or a single unpivoted search, ``(None, None)``, when ``delta``
    is None.  None when no search would run: the rule is not compiled."""
    searches = [(None, None)]
    if delta is not None:
        predicate_ids = id_view(instance).vocabulary.predicate_ids
        pivots = rule.sorted_body()
        found = [(p, delta.get(predicate_ids.get(p.predicate))) for p in pivots]
        searches = [(pivot, rows) for pivot, rows in found if rows]
        if not searches:
            return None
    return _RuleJoin(rule, instance, searches, seed)


def rule_delta_images(
    rule: Rule,
    instance: Instance | ColumnarInstance,
    delta: DeltaRows | None,
) -> list[tuple[Term, ...]]:
    """The distinct images of one rule's body matches that use a row of
    ``delta`` (the round's :data:`DeltaRows`; ``None``: every match).

    An image is ``h(x̄)`` along ``rule.body_variable_order()`` — the
    identity of a :class:`~repro.chase.trigger.Trigger`, which derives
    its mapping from it — so the images of different delta slices (or
    different pivots) merge by set union.  The list holds each image
    once, in no particular order (callers sort by image).
    """
    join = _join(rule, instance, delta)
    return join.images() if join else []


def rule_unsatisfied_images(
    rule: Rule,
    instance: Instance | ColumnarInstance,
    delta: DeltaRows | None,
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
        return rule_delta_images(rule, instance, delta)
    join = _join(rule, instance, delta)
    return join.unsatisfied() if join else []


def rule_counted_images(
    rule: Rule,
    instance: Instance | ColumnarInstance,
    delta: DeltaRows | None,
) -> tuple[list[tuple[Term, ...]], Collection[tuple[Term, ...]]]:
    """:func:`rule_delta_images` split into the images that can add an
    atom and the rest: ``(survivors, pruned)``.

    The oblivious chase's enumeration.  It prunes exactly what
    :func:`rule_unsatisfied_images` drops — an existential-free image
    whose whole ground head is in ``instance`` at round start, and an
    image whose head a smaller image of the same rule grounds too — but
    the oblivious chase applies every trigger, so the pruned images are
    returned as well, to be counted as applications that add nothing.
    Heads are tested once per distinct image, on id tuples, and none is
    instantiated.  ``survivors`` keeps the smallest image per head,
    compared in ``Term`` order (merging slices must keep the smallest
    again), in no particular order; ``pruned`` is every other distinct
    image, its ``Term`` tuples built only when it is iterated (``()``
    when there is none).  An existential rule's images all survive.
    """
    join = _join(rule, instance, delta)
    if join is None:
        return [], ()
    if rule.existential_order():
        return join.images(), ()
    return join.counted()


def rule_delta_match(
    rule: Rule,
    instance: Instance | ColumnarInstance,
    delta: DeltaRows | None,
    seed: dict[Term, Term] | None = None,
) -> tuple[bool, int]:
    """Whether some match of ``rule.body`` that extends ``seed`` uses a
    row of ``delta`` (``None``: any), and how many searches decided it.

    Existence mode of the core, used by the serving layer's goal probe
    (each goal is the rule ``body → ⊤``).  The join stops at its first
    match, so the searches run are every pivot's with delta rows when
    nothing matches, and those up to the witnessing pivot otherwise —
    the searches the object matcher's pivot loop would run, counted in
    ``MATCHER_STATS`` as each starts.  ``seed`` pins body variables to
    terms; a term the instance lacks matches nothing.
    """
    join = _join(rule, instance, delta, seed)
    return join.exists() if join else (False, 0)


def derive_delta_rows(
    rules: Sequence[Rule],
    instance: Instance | ColumnarInstance,
    delta: DeltaRows | None,
) -> set[tuple[int, tuple[int, ...]]]:
    """The ground heads of the Datalog ``rules`` whose body uses a row of
    ``delta`` (``None``: any) and that ``instance`` lacks, as id rows
    ``(pred_id, term_ids)`` over its id view.

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
        join = _join(rule, instance, delta)
        if join is not None:
            rows |= join.derive()
    return rows


def derive_delta_atoms(
    rule: Rule,
    instance: Instance | ColumnarInstance,
    delta: DeltaRows | None,
) -> set[Atom]:
    """Head instantiations of ``rule`` whose body uses a row of ``delta``
    (the :data:`DeltaRows`) and that ``instance`` lacks:
    :func:`derive_delta_rows` of ``rule``, one :class:`Atom` per row.

    ``delta=None`` (the ``naive`` engine's full re-derivation) stays on
    the object matcher, the reference, and returns every head
    instantiation, present or not.
    """
    if delta is None:
        derived: set[Atom] = set()
        head = rule.head
        for hom in homomorphisms(rule.body, instance):
            derived.update(hom.apply_atoms(head))
        return derived
    rows = derive_delta_rows((rule,), instance, delta)
    return id_view(instance).vocabulary.atoms(rows)


def round_matches(
    mode: str,
    rules: Sequence[Rule],
    instance: Instance | ColumnarInstance,
    delta: DeltaRows | None,
):
    """One delta round over ``rules``: the per-slice function every round
    runs, inline on the whole delta or in a pool worker on its slice
    (``delta=None``: the ``naive`` engine's whole-instance re-match).

    ``mode`` is the pool's command name: per rule, the
    :func:`rule_delta_images` list (``"enumerate"``), the
    :func:`rule_counted_images` pair (``"enumerate_counted"``) or the
    :func:`rule_unsatisfied_images` list (``"enumerate_unsatisfied"``),
    or the new heads of all rules (``"derive"``): their
    :func:`derive_delta_rows` on a columnar store (a worker's replica,
    whose reply packs them as they are), their
    :func:`derive_delta_atoms` on an object instance.
    """
    if mode == "derive":
        if isinstance(instance, ColumnarInstance):
            return derive_delta_rows(rules, instance, delta)
        derived: set[Atom] = set()
        for rule in rules:
            derived |= derive_delta_atoms(rule, instance, delta)
        return derived
    images = ENUMERATE_MODES[mode]
    return [images(rule, instance, delta) for rule in rules]


#: The per-rule function of each enumerate mode of :func:`round_matches`.
ENUMERATE_MODES = {
    "enumerate": rule_delta_images,
    "enumerate_counted": rule_counted_images,
    "enumerate_unsatisfied": rule_unsatisfied_images,
}


# ----------------------------------------------------------------------
# The join kernel
# ----------------------------------------------------------------------


def id_view(instance: Instance | ColumnarInstance) -> ColumnarInstance:
    """The id-level store the join kernel reads for ``instance``.

    A columnar store is its own view.  An object instance's view is a
    :class:`ColumnarInstance` over a private vocabulary, created on first
    use and brought up to date from ``instance.delta_since`` whenever the
    instance's revision moved — so at most once per round.  Instances
    only grow, so the view only grows too.  It is per process: it lives
    in the instance's ``_id_view`` slot and is never pickled (worker
    replicas are columnar stores already).
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
    predicate no row mentions yet, a seed term outside the instance)
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


class _PrunedImages:
    """The distinct images of a counted join that did not survive: a
    collection of ``Term`` tuples whose size is known at once and whose
    tuples are built only when it is iterated (a round that stops on its
    atom budget orders them; a pool worker sends them)."""

    __slots__ = ("_ids", "_seen", "_kept")

    def __init__(self, ids: _Ids, seen: dict, kept: Collection[tuple]):
        self._ids = ids
        self._seen = seen  # every distinct image, as id tuples (its keys)
        self._kept = kept  # the survivors among them

    def __len__(self) -> int:
        return len(self._seen) - len(self._kept)

    def __iter__(self) -> Iterator[tuple[Term, ...]]:
        kept = set(self._kept)
        return iter(
            self._ids.images(ids for ids in self._seen if ids not in kept)
        )


def row_getter(slots: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The values at positions ``slots`` of a sequence (a slot list, an
    image) as one tuple (C-level when it can be)."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        (slot,) = slots
        return lambda values: (values[slot],)
    return lambda values: ()


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
    candidate: Sequence, kept: tuple, size: int, keys: _OrderKeys
) -> bool:
    """Whether ``candidate[:size]`` is below ``kept[:size]`` in ``Term``
    order (ids only decide equality)."""
    for index in range(size):
        left = candidate[index]
        right = kept[index]
        if left != right:
            return keys[left] < keys[right]
    return False


class _RuleJoin:
    """One rule's body joined once against an id view.

    Slot layout, shared by every search's plan: the body variables in
    canonical order (so a match's image is a slot prefix), then the
    body's other non-constant terms, then one slot per constant (and,
    once :meth:`_heads` compiled them, per head term the body does not
    bind) holding its id.  A seeded variable's slot holds its term's id
    from the start.
    """

    #: The seeded body variables: bound in every plan, and ``_order_atoms``'
    #: seeded terms, as ``homomorphisms_with_pivot`` passes its seed.
    pinned: frozenset[Term] = frozenset()

    def __init__(
        self,
        rule: Rule,
        instance: Instance | ColumnarInstance,
        searches: list[tuple],
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
        self.predicates = tuple(dict.fromkeys(a.predicate for a in body))
        predicate_id = self.ids.predicate
        tables = view.tables
        self.tables = [tables.get(predicate_id(p)) for p in self.predicates]
        self.instance = instance
        count = instance.count
        self.pattern = rank_pattern([count(p) for p in self.predicates])
        self.searches = searches

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

    def _plan(self, pivot: Atom | None) -> list[tuple]:
        """The compiled plan of the search pivoted on ``pivot`` (None for
        the unpivoted search), from the rule's cache
        (:meth:`~repro.rules.rule.Rule.join_plans`).

        The plan's atom order is the pivot, then :func:`_order_atoms` of
        the rest with the seeded variables seeded and the pivot's terms
        bound; it reads the instance only through the rank pattern of
        the body predicates' counts.  So the cache keys on the seeded
        variables, the pivot and that pattern, and the slot layout,
        which depends on the rule alone, is the same in every join.
        """
        plans = self.rule.join_plans()
        key = (self.pinned, pivot, self.pattern)
        plan = plans.get(key)
        if plan is None:
            rest = list(self.rule.body)
            if pivot is None:
                ordered = _order_atoms(rest, self.instance, seeded=self.pinned)
            else:
                rest.remove(pivot)
                ordered = [pivot] + _order_atoms(
                    rest,
                    self.instance,
                    seeded=self.pinned,
                    bound=[t for t in pivot.args if not t.is_constant],
                )
            plan = plans[key] = compile_plan(
                ordered, self.slot_of, self.pinned, self.predicates
            )
        return plan

    def _run(self, emit: Callable[[list], object]) -> tuple[bool, int]:
        """Hand every match of every search to ``emit`` as the live slot
        list (use it before returning), until ``emit`` returns true;
        return whether it did and how many searches ran.

        Each search takes its plan (:meth:`_plan`) and runs it
        (:func:`run_plan`), which counts it in ``MATCHER_STATS.searches``
        as it starts, so a stopped join has counted the searches the
        object matcher would have run by then.
        """
        slots = list(self.slots)
        for started, (pivot, pivot_rows) in enumerate(self.searches, 1):
            steps = self._plan(pivot)
            if run_plan(steps, self.tables, slots, emit, pivot_rows):
                return True, started
        return False, len(self.searches)

    def _distinct(self) -> dict:
        """The distinct images of the join's matches, as id tuples (the
        keys of the returned dict)."""
        kept: dict = {}
        image_of = row_getter(range(self.image_size))

        def emit(slots: list) -> None:
            kept[image_of(slots)] = None

        self._run(emit)
        return kept

    def images(self) -> list[tuple[Term, ...]]:
        return self.ids.images(self._distinct())

    def exists(self) -> tuple[bool, int]:
        """Stop at the first match: whether there is one, and how many
        searches ran."""
        return self._run(first_match)

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

    def counted(self) -> tuple[list[tuple[Term, ...]], _PrunedImages | tuple]:
        """Every distinct image, split: the smallest image per ground head
        the view lacks, and the rest.  The join only collects the
        distinct images; each one's head is then tested once, on its id
        tuple."""
        seen = self._distinct()
        if not seen:
            return [], ()
        heads = self._heads()
        size = self.image_size
        # A constant's id lies past the image: the head getters read the
        # slot layout, so extend each image by the slots after it.
        tail = tuple(self.slots[size:])
        view = self.view
        keys = _OrderKeys(self.ids.term_of)
        kept: dict = {}  # ground head the view lacks -> smallest image ids
        if len(heads) == 1:
            ((pred_id, head_row),) = heads
            present = view.row_set(pred_id)
            for image in seen:
                key = head_row(image + tail if tail else image)
                if key in present:
                    continue
                previous = kept.get(key)
                if previous is None or _precedes(image, previous, size, keys):
                    kept[key] = image
        else:
            heads = [
                (pred_id, head_row, view.row_set(pred_id))
                for pred_id, head_row in heads
            ]
            for image in seen:
                slots = image + tail if tail else image
                ground = []
                present = True
                for pred_id, head_row, rows in heads:
                    row = head_row(slots)
                    ground.append((pred_id, row))
                    present = present and row in rows
                if present:
                    continue
                key = frozenset(ground)
                previous = kept.get(key)
                if previous is None or _precedes(image, previous, size, keys):
                    kept[key] = image
        survivors = kept.values()
        pruned = (
            _PrunedImages(self.ids, seen, survivors)
            if len(seen) > len(kept)
            else ()
        )
        return self.ids.images(survivors), pruned

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
