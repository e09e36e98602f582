"""The main theorem's machinery: Lemma 42, Proposition 43, Property (p).

This module operationalizes Section 5.2 and the end-to-end statement:

* :func:`defined_relation` / :func:`is_functional` — Lemma 42: a CQ whose
  non-answer variables all lie below its first answer variable defines a
  function on ``Ch(R_∃)``;
* :func:`decompose_valley`, :func:`function_image` — the ``q_x``/``q_y``
  split and the functions ``f_x``/``f_y`` of Proposition 43;
* :func:`loop_from_valley_tournament` — Proposition 43's constructive
  conclusion: a single valley query defining a 4-tournament also defines a
  loop (returns the looping vertex);
* :func:`check_property_p` — the Theorem 1 verifier run on chase prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.chase.oblivious import oblivious_chase
from repro.logic.instances import Instance
from repro.logic.predicates import EDGE, Predicate
from repro.logic.terms import Term, Variable
from repro.queries.cq import ConjunctiveQuery
from repro.queries.entailment import answer_homomorphisms, entails_cq
from repro.rules.ruleset import RuleSet
from repro.core.egraph import egraph
from repro.core.tournament import is_growing, max_tournament_size
from repro.core.valley import is_valley_query


# ----------------------------------------------------------------------
# Lemma 42: functionality of downward-anchored queries
# ----------------------------------------------------------------------

def defined_relation(
    query: ConjunctiveQuery, instance: Instance
) -> set[tuple[Term, ...]]:
    """All answer tuples of ``query`` over ``instance``."""
    result: set[tuple[Term, ...]] = set()
    for hom in answer_homomorphisms(instance, query):
        result.add(tuple(hom.apply_term(v) for v in query.answers))
    return result


def is_functional(
    query: ConjunctiveQuery, instance: Instance
) -> bool:
    """Lemma 42's conclusion: the defined relation is a function of the
    first answer component (each ``s`` has at most one ``t̄``)."""
    images: dict[Term, tuple[Term, ...]] = {}
    for answer in defined_relation(query, instance):
        anchor, rest = answer[0], answer[1:]
        if anchor in images and images[anchor] != rest:
            return False
        images[anchor] = rest
    return True


def lemma42_applies(query: ConjunctiveQuery) -> bool:
    """Precondition of Lemma 42: every other variable is ``<_q`` the first
    answer variable."""
    if not query.answers:
        return False
    if not query.is_dag():
        return False
    order = query.reachability_order()
    anchor = query.answers[0]
    return all(
        order.less(v, anchor)
        for v in query.variables()
        if v != anchor
    )


# ----------------------------------------------------------------------
# Proposition 43: the single-valley-query case analysis
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ValleyDecomposition:
    """The ``q_x`` / ``q_y`` split of a connected two-peak valley query."""

    query: ConjunctiveQuery
    x_side: frozenset
    y_side: frozenset
    shared_variables: tuple[Variable, ...]


def classify_valley(query: ConjunctiveQuery) -> str:
    """Return Proposition 43's case for a valley query:
    ``"disconnected"``, ``"single_maximal"`` or ``"two_maximal"``."""
    if not is_valley_query(query):
        raise ValueError(f"{query} is not a valley query")
    if not query.is_connected():
        return "disconnected"
    order = query.reachability_order()
    maximal = order.maximal_elements()
    if len(maximal) == 1:
        return "single_maximal"
    return "two_maximal"


def decompose_valley(query: ConjunctiveQuery) -> ValleyDecomposition:
    """Split a two-peak valley query into ``q_x`` and ``q_y``.

    ``q_x`` holds the atoms all of whose variables are ``≤_q x``; likewise
    ``q_y``.  The shared variables ``v̄`` are those below both peaks.
    """
    x_var, y_var = query.answers
    order = query.reachability_order()

    def below(peak):
        return {
            v for v in query.variables() if order.less_equal(v, peak)
        }

    below_x, below_y = below(x_var), below(y_var)
    x_atoms = frozenset(
        a for a in query.atoms if set(a.variables()) <= below_x
    )
    y_atoms = frozenset(
        a for a in query.atoms if set(a.variables()) <= below_y
    )
    uncovered = query.atoms - x_atoms - y_atoms
    if uncovered:
        raise ValueError(
            f"valley decomposition incomplete; uncovered atoms: "
            f"{sorted(str(a) for a in uncovered)}"
        )
    shared = tuple(
        sorted(
            (v for v in query.variables() if v in below_x and v in below_y),
            key=lambda v: v.name,
        )
    )
    return ValleyDecomposition(
        query=query, x_side=x_atoms, y_side=y_atoms, shared_variables=shared
    )


def function_image(
    atoms: frozenset,
    anchor: Variable,
    anchor_value: Term,
    collect: Sequence[Variable],
    instance: Instance,
) -> tuple[Term, ...] | None:
    """The (unique, by Lemma 42) image of ``collect`` when ``anchor`` is
    pinned — the functions ``f_x`` and ``f_y`` of Proposition 43."""
    from repro.logic.homomorphisms import homomorphisms

    for hom in homomorphisms(atoms, instance, seed={anchor: anchor_value}):
        return tuple(hom.apply_term(v) for v in collect)
    return None


def _transitive_triangle(
    vertices: Sequence[Term], relation: set[tuple[Term, Term]]
) -> tuple[Term, Term, Term] | None:
    """Find ``(k1, k2, k3)`` with ``k1→k2, k1→k3, k2→k3`` in ``relation``."""
    for k1 in vertices:
        for k2 in vertices:
            if k1 == k2 or (k1, k2) not in relation:
                continue
            for k3 in vertices:
                if k3 in (k1, k2):
                    continue
                if (k1, k3) in relation and (k2, k3) in relation:
                    return k1, k2, k3
    return None


def loop_from_valley_tournament(
    query: ConjunctiveQuery,
    instance: Instance,
    vertices: Sequence[Term],
) -> Term | None:
    """Proposition 43, constructively.

    ``vertices`` must be (at least) four terms forming a tournament in the
    relation defined by ``query`` over ``instance`` (``Ch(R_∃)``).
    Returns a term ``u`` with ``instance ⊨ q(u, u)`` — the loop the
    proposition derives — or None when the case analysis finds none (which
    on faithful inputs means the preconditions were violated).
    """
    case = classify_valley(query)
    relation = {
        pair
        for pair in defined_relation(query, instance)
        if len(pair) == 2
    }

    if case == "single_maximal":
        # Lemma 42 forces out-degree ≤ 1; a 4-tournament cannot occur, so
        # there is nothing to derive — report the contradiction as None.
        return None

    if case == "disconnected":
        # q = q1(x) ∧ q2(y) ∧ q3; any u satisfying both sides loops.
        x_var, y_var = query.answers
        components = _connected_components(query)
        q1 = components.get_component_of(x_var)
        q2 = components.get_component_of(y_var)
        for u in sorted(instance.active_domain()):
            sat_q1 = entails_cq(
                instance, ConjunctiveQuery(q1, (x_var,)), (u,)
            )
            sat_q2 = entails_cq(
                instance, ConjunctiveQuery(q2, (y_var,)), (u,)
            )
            if sat_q1 and sat_q2:
                return u
        return None

    # Two maximal peaks: the f_x / f_y composition argument.
    triangle = _transitive_triangle(list(vertices), relation)
    if triangle is None:
        return None
    _, k2, _ = triangle
    if entails_cq(instance, query, (k2, k2)):
        return k2
    return None


class _Components:
    def __init__(self, groups: list[frozenset]):
        self._groups = groups

    def get_component_of(self, variable: Variable) -> frozenset:
        for group in self._groups:
            if any(variable in atom.variables() for atom in group):
                return group
        raise KeyError(variable)


def _connected_components(query: ConjunctiveQuery) -> _Components:
    """Group the query's atoms into connected components (shared terms)."""
    from repro.datastructures.unionfind import UnionFind

    uf: UnionFind = UnionFind()
    atoms = sorted(query.atoms)
    for atom in atoms:
        terms = list(atom.args)
        uf.add(("atom", atom))
        for term in terms:
            uf.union(("atom", atom), ("term", term))
    groups: dict = {}
    for atom in atoms:
        root = uf.find(("atom", atom))
        groups.setdefault(root, set()).add(atom)
    return _Components([frozenset(g) for g in groups.values()])


# ----------------------------------------------------------------------
# Theorem 1: the Property (p) verifier
# ----------------------------------------------------------------------

@dataclass
class PropertyPReport:
    """Evidence about Property (p) collected from chase prefixes.

    Property (p): ``Ch ⊨ Tournaments_E ⇒ Ch ⊨ Loop_E``.  A *refutation*
    would be tournament sizes growing without bound while no loop ever
    appears; ``consistent`` is False only when the prefix data exhibits
    that pattern (growth across the observed window with no loop).
    """

    levels: int
    tournament_sizes: list[int] = field(default_factory=list)
    loop_level: int | None = None
    terminated: bool = False

    @property
    def max_tournament(self) -> int:
        return max(self.tournament_sizes, default=0)

    @property
    def loop_entailed(self) -> bool:
        return self.loop_level is not None

    @property
    def tournaments_growing(self) -> bool:
        return is_growing(self.tournament_sizes)

    @property
    def consistent_with_property_p(self) -> bool:
        if self.loop_entailed:
            return True
        if self.terminated:
            return True  # finite chase cannot entail Tournaments_E
        return not self.tournaments_growing

    def summary_row(self) -> tuple:
        return (
            self.levels,
            self.max_tournament,
            self.loop_level if self.loop_level is not None else "-",
            "yes" if self.consistent_with_property_p else "NO",
        )


def check_property_p(
    rules: RuleSet,
    instance: Instance | None = None,
    max_levels: int = 6,
    max_atoms: int = 100_000,
    predicate: Predicate = EDGE,
) -> PropertyPReport:
    """Run the chase and measure Property (p)'s two sides per level.

    Property (p) reads only the ``predicate``-edges of each prefix
    ``Ch_k``, so the chase's edges are read once, grouped by the level at
    which each first appeared, and one E-graph grows level by level:
    after level ``k`` it is ``egraph(result.prefix(k), predicate)``.
    ``tournament_sizes[k]`` is its maximum tournament, and ``loop_level``
    the first level that adds an edge ``v -> v`` (``Loop_E`` holds on
    ``Ch_k`` from there on).
    """
    start = instance if instance is not None else Instance()
    result = oblivious_chase(
        start, rules, max_levels=max_levels, max_atoms=max_atoms
    )
    report = PropertyPReport(
        levels=result.levels_completed, terminated=result.terminated
    )
    edges_at: list[set[tuple[Term, ...]]] = [
        set() for _ in range(result.levels_completed + 1)
    ]
    for atom in result.instance.with_predicate(predicate):
        level = result.atom_level(atom)
        # A mid-round budget stop leaves its partial level in the
        # instance, above every completed prefix.
        if level <= result.levels_completed:
            edges_at[level].add(atom.args)
    graph = egraph((), predicate)  # empty; rejects a non-binary predicate
    for level, edges in enumerate(edges_at):
        graph.add_edges_from(edges)
        report.tournament_sizes.append(max_tournament_size(graph))
        if report.loop_level is None and any(s == t for s, t in edges):
            report.loop_level = level
    return report
