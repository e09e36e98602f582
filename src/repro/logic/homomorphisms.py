"""Homomorphism search between atom sets.

A homomorphism from atom set ``A`` to atom set ``B`` is a substitution
``π`` with ``π(A) ⊆ B`` (constants fixed, variables and nulls free).  The
searcher is a backtracking matcher with three standard optimizations:

* atoms of ``A`` are processed most-constrained-first (fewest candidate
  atoms in ``B``, then most already-bound terms),
* candidates are seeded from the *positional* index of ``B`` — the most
  selective ``(predicate, position, term)`` bucket among the bound
  argument positions — instead of scanning every atom over the predicate,
* the per-node deterministic candidate ordering is cached on the target
  instance (one sort per predicate/bucket per mutation epoch), and the
  search itself runs on an explicit stack rather than nested generator
  frames.

CQ subsumption runs the same search on integers.  A CQ on the specific
side is compiled once into :class:`IdRows` (its terms numbered, its atoms
as id rows per predicate and per position bucket, in ``Atom`` order); a
CQ on the general side into :class:`JoinPlans`, which keeps one plan per
*count signature* (the target's row counts over its predicates).  A plan
is the atom order :func:`_order_atoms` returns for those counts, the one
atom-order policy of the object matcher, the id search and the engine's
join kernel alike, with each atom's bound, bind and repeat positions;
:func:`_search_rows` walks it with :func:`_candidates`' bucket choice and
counts the searches and candidates :func:`_search` would.  The object
matcher remains the reference the id search is tested against.

The module also provides injective homomorphisms (for ``⊨inj``),
isomorphism checking, and homomorphic equivalence ``↔`` (used pervasively in
Section 4 to compare chases before and after surgeries).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.substitutions import Substitution
from repro.logic.terms import Term


class MatcherStats:
    """Cheap counters exposing how hard the matcher is working.

    ``searches`` counts matcher invocations (one per homomorphism
    enumeration started) and ``candidates`` counts candidate atoms tested.
    The incremental-chase benchmarks read these to check that trigger
    enumeration scales with the delta, not the instance.  Registered as
    the ``matcher`` group of :func:`repro.obs.default_registry`, which is
    how run-scoped deltas (``ChaseResult.telemetry``, ``repro analyze
    --json``) read it.

    The counters are exact for every round, inline or pooled: a
    worker-pool process counts in its own copy and sends what each
    command added back in the reply envelope, which the parent adds here
    (:mod:`repro.engine.workers`).  A pooled round counts the candidates
    an inline round counts, and one search per pivot per busy worker
    slice.
    """

    __slots__ = ("searches", "candidates")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.searches = 0
        self.candidates = 0

    def snapshot(self) -> dict[str, int]:
        return {"searches": self.searches, "candidates": self.candidates}


#: Global matcher counters; reset via ``MATCHER_STATS.reset()``.
MATCHER_STATS = MatcherStats()


def _as_instance(atoms: Iterable[Atom] | Instance) -> Instance:
    if isinstance(atoms, Instance):
        return atoms
    return Instance(atoms, add_top=False)


# checks: hot
def _match_atom(
    atom: Atom,
    candidate: Atom,
    binding: dict[Term, Term],
    used_targets: set[Term] | None,
) -> list[Term] | None:
    """Try to extend ``binding`` so that ``binding(atom) == candidate``.

    Returns the list of newly-bound source terms on success (so the caller
    can undo), or None when the match is impossible.  When ``used_targets``
    is given the extension must keep the binding injective.
    """
    newly_bound: list[Term] = []
    for source, target in zip(atom.args, candidate.args):
        if source.is_constant:
            if source != target:
                for t in newly_bound:
                    if used_targets is not None:
                        used_targets.discard(binding[t])
                    del binding[t]
                return None
            continue
        bound = binding.get(source)
        if bound is not None:
            if bound != target:
                for t in newly_bound:
                    if used_targets is not None:
                        used_targets.discard(binding[t])
                    del binding[t]
                return None
            continue
        if used_targets is not None and target in used_targets:
            for t in newly_bound:
                used_targets.discard(binding[t])
                del binding[t]
            return None
        binding[source] = target
        if used_targets is not None:
            used_targets.add(target)
        newly_bound.append(source)
    return newly_bound


def _order_atoms(
    source_atoms: Sequence[Atom],
    target: Instance,
    bound: set[Term] | None = None,
) -> list[Atom]:
    """Order atoms most-constrained-first for the backtracking search.

    One greedy pass: candidate counts and sort keys are computed once per
    atom, and each round scans the remaining atoms for the best
    ``(-anchored, candidates, key)`` score — no up-front sort, no closure
    re-created per round.  ``bound`` pre-anchors terms already pinned by a
    pivot or seed.
    """
    n = len(source_atoms)
    if n <= 1:
        return list(source_atoms)
    counts = [target.count(a.predicate) for a in source_atoms]
    keys = [a.sort_key() for a in source_atoms]
    bound = set(bound) if bound else set()
    remaining = list(range(n))
    ordered: list[Atom] = []
    while remaining:
        best = -1
        best_score = None
        for i in remaining:
            atom = source_atoms[i]
            anchored = 0
            for t in atom.args:
                if t.is_constant or t in bound:
                    anchored += 1
            score = (-anchored, counts[i], keys[i])
            if best_score is None or score < best_score:
                best_score = score
                best = i
        remaining.remove(best)
        chosen = source_atoms[best]
        ordered.append(chosen)
        bound.update(t for t in chosen.args if not t.is_constant)
    return ordered


# checks: hot
def _candidates(
    atom: Atom, target: Instance, binding: dict[Term, Term]
) -> tuple[Atom, ...]:
    """Deterministic candidate atoms for ``atom`` under ``binding``.

    Seeds from the most selective bound argument position via the target's
    positional index; falls back to all atoms over the predicate (cached
    sorted order) when nothing is bound yet.
    """
    predicate = atom.predicate
    best_position = -1
    best_term: Term | None = None
    best_count = -1
    for position, term in enumerate(atom.args):
        if not term.is_constant:
            term = binding.get(term)  # type: ignore[assignment]
            if term is None:
                continue
        count = target.position_count(predicate, position, term)
        if count == 0:
            return ()
        if best_count < 0 or count < best_count:
            best_count = count
            best_position = position
            best_term = term
    if best_term is None:
        return target.sorted_with_predicate(predicate)
    return target.matching_position(predicate, best_position, best_term)


# checks: hot
def _search(
    ordered: list[Atom],
    target: Instance,
    binding: dict[Term, Term],
    used_targets: set[Term] | None,
    first_candidates: Sequence[Atom] | None = None,
) -> Iterator[Substitution]:
    """Enumerate extensions of ``binding`` matching ``ordered`` into ``target``.

    Explicit-stack DFS over one frame per source atom; each frame holds its
    candidate iterator and the undo list of its current choice.  When
    ``first_candidates`` is given it replaces the index lookup for the
    first atom (the pivot of delta-driven trigger enumeration).  Each
    solution is yielded as a cleaned :class:`Substitution` copy of the
    binding.  Delta rounds and the goal probe's per-round checks do not
    come through here: the engine's join kernel (:mod:`repro.engine.core`)
    runs the same search order on integer ids, and CQ subsumption runs it
    on id rows (:func:`_search_rows`).
    """
    MATCHER_STATS.searches += 1
    n = len(ordered)
    if n == 0:
        yield Substitution._from_clean(
            {k: v for k, v in binding.items() if k != v}
        )
        return
    stats = MATCHER_STATS
    initial = (
        first_candidates
        if first_candidates is not None
        else _candidates(ordered[0], target, binding)
    )
    # Each frame: [candidate iterator, undo list of the current choice].
    frames: list[list] = [[iter(initial), None]]
    while frames:
        frame = frames[-1]
        undo = frame[1]
        if undo is not None:
            for t in undo:
                if used_targets is not None:
                    used_targets.discard(binding[t])
                del binding[t]
            frame[1] = None
        depth = len(frames) - 1
        atom = ordered[depth]
        descended = False
        for candidate in frame[0]:
            stats.candidates += 1
            newly = _match_atom(atom, candidate, binding, used_targets)
            if newly is None:
                continue
            if depth + 1 == n:
                # checks: allow[H401] -- per-solution, not per-candidate:
                # this dict IS the yielded output (the engine's id kernel
                # is the allocation-free path for existential-free rules).
                yield Substitution._from_clean(
                    {k: v for k, v in binding.items() if k != v}
                )
                for t in newly:
                    if used_targets is not None:
                        used_targets.discard(binding[t])
                    del binding[t]
                continue
            frame[1] = newly
            frames.append(
                [iter(_candidates(ordered[depth + 1], target, binding)), None]
            )
            descended = True
            break
        if not descended:
            frames.pop()


def position_pairs(
    atom: Atom, slot_of: dict[Term, int], bound_terms: set[Term]
) -> tuple[list, list, list]:
    """``atom``'s ``(position, slot)`` pairs for an id search that
    reaches it with ``bound_terms`` bound: positions holding a constant
    or a bound term, first occurrences of a new term, and repeats of
    one.  The new terms join ``bound_terms``."""
    bound, binds, repeats = [], [], []
    new: set[Term] = set()
    for position, term in enumerate(atom.args):
        pair = (position, slot_of[term])
        if term.is_constant or term in bound_terms:
            bound.append(pair)
        elif term in new:
            repeats.append(pair)
        else:
            new.add(term)
            binds.append(pair)
    bound_terms |= new
    return bound, binds, repeats


# checks: hot
def _search_rows(
    steps: tuple[tuple, ...], tables: list, slots: list[int]
) -> bool:
    """Whether the atoms of ``steps`` match into id rows: :func:`_search`
    on ints, stopping at the first match.

    ``steps`` is a :class:`JoinPlans` plan: per atom in
    :func:`_order_atoms` order, the index of its predicate's table in
    ``tables`` (``(rows, positional index)`` or None when the target
    lacks the predicate) and its ``(position, slot)`` pairs — bound by a
    pin, a constant or an earlier atom, first bound here, repeated here.
    ``slots`` holds the pinned and constant ids (-1 for a constant the
    target lacks).  Candidates are :func:`_candidates`' rows in ``Atom``
    order: the smallest bucket of a bound position (the first on a tie),
    none when one is empty, every row over the predicate when nothing is
    bound.  Counts one search and every candidate tested, as
    :func:`_search` does up to its first solution.
    """
    stats = MATCHER_STATS
    stats.searches += 1
    last = len(steps) - 1
    pending: list = [None] * len(steps)
    tested = 0
    depth = 0
    entering = True
    while depth >= 0:
        table_at, bound, binds, repeats = steps[depth]
        if entering:
            table = tables[table_at]
            candidates = ()
            if table is not None:
                candidates, index = table
                for position, slot in bound:
                    bucket = index[position].get(slots[slot])
                    if bucket is None:
                        candidates = ()
                        break
                    if len(bucket) < len(candidates):
                        candidates = bucket
            pending[depth] = iter(candidates)
        matched = False
        for row in pending[depth]:
            tested += 1
            matched = True
            for position, slot in bound:
                if row[position] != slots[slot]:
                    matched = False
                    break
            if not matched:
                continue
            for position, slot in binds:
                slots[slot] = row[position]
            for position, slot in repeats:
                if row[position] != slots[slot]:
                    matched = False
                    break
            if matched:
                break
        if not matched:
            depth -= 1
            entering = False
        elif depth == last:
            stats.candidates += tested
            return True
        else:
            depth += 1
            entering = True
    stats.candidates += tested
    return False


class IdRows:
    """An atom set compiled as the target of :meth:`JoinPlans.maps_into`.

    The terms are numbered in order of first occurrence over the sorted
    atoms, and each atom becomes a row of term ids, appended in ``Atom``
    order to its predicate's rows and to one bucket per argument
    position and term id: the id form of an :class:`Instance`'s sorted
    predicate and positional indexes.  ``anchors`` holds the ids of the
    terms a source's pinned terms map to (a CQ's answer tuple).
    """

    __slots__ = ("ids", "tables", "anchors")

    def __init__(self, atoms: Iterable[Atom], anchors: Sequence[Term] = ()):
        ids: dict[Term, int] = {}
        tables: dict[Predicate, tuple[list, tuple[dict, ...]]] = {}
        for atom in sorted(atoms, key=Atom.sort_key):
            row = tuple([ids.setdefault(t, len(ids)) for t in atom.args])
            table = tables.get(atom.predicate)
            if table is None:
                table = tables[atom.predicate] = (
                    [],
                    tuple([{} for _ in row]),
                )
            rows, index = table
            rows.append(row)
            for buckets, term_id in zip(index, row):
                bucket = buckets.get(term_id)
                if bucket is None:
                    buckets[term_id] = [row]
                else:
                    bucket.append(row)
        self.ids = ids
        self.tables = tables
        self.anchors = tuple([ids[t] for t in anchors])

    def count(self, predicate: Predicate) -> int:
        """The number of rows over ``predicate`` (what
        :func:`_order_atoms` reads from a target)."""
        table = self.tables.get(predicate)
        return len(table[0]) if table is not None else 0


class JoinPlans:
    """An atom set compiled as the source of :meth:`maps_into`.

    Every term has a slot: a variable or null one the search binds, a
    constant one holding its id in the target.  ``pinned`` terms map to
    the target's anchors, position by position.  The atom order depends
    on the target only through its row counts over the source's
    predicates (:func:`_order_atoms` reads nothing else), so one plan
    per such *count signature* is compiled on first use and kept.
    """

    __slots__ = (
        "atoms", "slot_of", "predicates", "constants", "pinned",
        "pinned_slots", "plans",
    )

    def __init__(self, atoms: Iterable[Atom], pinned: Sequence[Term] = ()):
        self.atoms = sorted(atoms, key=Atom.sort_key)
        slot_of: dict[Term, int] = {}
        for atom in self.atoms:
            for term in atom.args:
                slot_of.setdefault(term, len(slot_of))
        self.slot_of = slot_of
        self.predicates = tuple(dict.fromkeys(a.predicate for a in self.atoms))
        self.constants = tuple(
            [(slot, term) for term, slot in slot_of.items() if term.is_constant]
        )
        self.pinned = tuple(pinned)
        self.pinned_slots = tuple([slot_of[t] for t in self.pinned])
        self.plans: dict[tuple[int, ...], tuple[tuple, ...]] = {}

    def maps_into(self, target: IdRows) -> bool:
        """Whether a homomorphism maps the atoms into ``target``'s rows,
        the pinned terms onto its anchors; False without a search when
        a pinned term would need two images."""
        slots = [-1] * len(self.slot_of)
        ids = target.ids
        for slot, constant in self.constants:
            slots[slot] = ids.get(constant, -1)
        for slot, anchor in zip(self.pinned_slots, target.anchors):
            if slots[slot] >= 0 and slots[slot] != anchor:
                return False
            slots[slot] = anchor
        found = target.tables
        tables = [found.get(p) for p in self.predicates]
        signature = tuple([0 if t is None else len(t[0]) for t in tables])
        plan = self.plans.get(signature)
        if plan is None:
            plan = self.plans[signature] = self._plan(target)
        return _search_rows(plan, tables, slots)

    def _plan(self, target: IdRows) -> tuple[tuple, ...]:
        """The :func:`_search_rows` steps for ``target``'s row counts."""
        table_at = {p: i for i, p in enumerate(self.predicates)}
        bound_terms = set(self.pinned)
        steps = []
        for atom in _order_atoms(self.atoms, target, bound=bound_terms):
            bound, binds, repeats = position_pairs(
                atom, self.slot_of, bound_terms
            )
            steps.append((
                table_at[atom.predicate],
                tuple(bound),
                tuple(binds),
                tuple(repeats),
            ))
        return tuple(steps)


def homomorphisms(
    source: Iterable[Atom] | Instance,
    target: Iterable[Atom] | Instance,
    seed: dict[Term, Term] | None = None,
    injective: bool = False,
) -> Iterator[Substitution]:
    """Yield all homomorphisms from ``source`` to ``target``.

    Parameters
    ----------
    seed:
        A partial binding that every returned homomorphism must extend
        (e.g. answer variables pinned to given elements).
    injective:
        When True, only injective homomorphisms are produced (``⊨inj``).
    """
    target_inst = _as_instance(target)
    source_atoms = list(source)
    binding: dict[Term, Term] = dict(seed or {})
    for key in binding:
        if key.is_constant:
            raise ValueError(f"seed cannot bind constant {key}")
    used_targets: set[Term] | None = None
    if injective:
        used_targets = set(binding.values())
        if len(used_targets) != len(binding):
            return  # seed itself is not injective

    ordered = _order_atoms(source_atoms, target_inst, bound=set(binding))
    yield from _search(ordered, target_inst, binding, used_targets)


def homomorphisms_with_pivot(
    source: Iterable[Atom],
    target: Instance,
    pivot: Atom,
    pivot_candidates: Sequence[Atom],
    seed: dict[Term, Term] | None = None,
) -> Iterator[Substitution]:
    """Homomorphisms of ``source`` into ``target`` mapping ``pivot`` into
    ``pivot_candidates``.

    The pivot atom (which must occur in ``source``) is matched first,
    against the supplied candidates only — typically the delta of a chase
    level; the remaining atoms are matched against the full target via the
    positional index, in :func:`_order_atoms` order, with the pivot's
    and the seed's variables pinned.  No engine or serving path calls it:
    it is the building block of the references the engine's id join
    kernel is tested against — :func:`repro.engine.core.delta_homomorphisms`
    and the goal probe's reference in ``tests/test_serving_goal.py`` — and
    the kernel mirrors its pivots, atom order and bucket choice.
    """
    source_atoms = list(source)
    rest = list(source_atoms)
    rest.remove(pivot)
    binding: dict[Term, Term] = dict(seed or {})
    pinned = set(binding)
    pinned.update(t for t in pivot.args if not t.is_constant)
    ordered = [pivot] + _order_atoms(rest, target, bound=pinned)
    yield from _search(
        ordered, target, binding, None, first_candidates=pivot_candidates
    )


def find_homomorphism(
    source: Iterable[Atom] | Instance,
    target: Iterable[Atom] | Instance,
    seed: dict[Term, Term] | None = None,
    injective: bool = False,
) -> Substitution | None:
    """Return one homomorphism from ``source`` to ``target`` or None."""
    for hom in homomorphisms(source, target, seed=seed, injective=injective):
        return hom
    return None


def has_homomorphism(
    source: Iterable[Atom] | Instance,
    target: Iterable[Atom] | Instance,
    seed: dict[Term, Term] | None = None,
    injective: bool = False,
) -> bool:
    """Return True when some homomorphism from ``source`` to ``target`` exists."""
    return find_homomorphism(source, target, seed=seed, injective=injective) is not None


def homomorphically_equivalent(
    left: Iterable[Atom] | Instance, right: Iterable[Atom] | Instance
) -> bool:
    """The paper's ``↔``: homomorphisms exist in both directions."""
    left_inst = _as_instance(left)
    right_inst = _as_instance(right)
    return has_homomorphism(left_inst, right_inst) and has_homomorphism(
        right_inst, left_inst
    )


def find_isomorphism(
    left: Iterable[Atom] | Instance, right: Iterable[Atom] | Instance
) -> Substitution | None:
    """Return an isomorphism (bijective homomorphism whose inverse is one).

    Following §2.1 an isomorphism is an injective and surjective
    homomorphism; we additionally require the atom sets to correspond
    one-to-one, which is the standard reading for relational structures.
    """
    left_inst = _as_instance(left)
    right_inst = _as_instance(right)
    if len(left_inst) != len(right_inst):
        return None
    if len(left_inst.active_domain()) != len(right_inst.active_domain()):
        return None
    for hom in homomorphisms(left_inst, right_inst, injective=True):
        mapped = {hom.apply_atom(a) for a in left_inst}
        if mapped == right_inst.atoms():
            return hom
    return None


def is_isomorphic(
    left: Iterable[Atom] | Instance, right: Iterable[Atom] | Instance
) -> bool:
    """Return True when the two atom sets are isomorphic."""
    return find_isomorphism(left, right) is not None


def endomorphisms(instance: Instance) -> Iterator[Substitution]:
    """Yield all homomorphisms from an instance to itself."""
    yield from homomorphisms(instance, instance)


def retract_once(instance: Instance) -> Instance | None:
    """Return a proper retract of ``instance`` or None when it is a core.

    A retract is the image of a non-surjective endomorphism; iterating
    this to a fixpoint yields the core (used for CQ minimization).
    """
    domain = instance.active_domain()
    for endo in endomorphisms(instance):
        image = {endo.apply_term(t) for t in domain}
        if len(image) < len(domain):
            return instance.apply(endo)
    return None


def core(instance: Instance) -> Instance:
    """Return the core of ``instance`` (unique up to isomorphism)."""
    current = instance
    while True:
        smaller = retract_once(current)
        if smaller is None:
            return current
        current = smaller
