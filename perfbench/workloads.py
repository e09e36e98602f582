"""The benchmark's four workloads: seeded inputs, one pass, correctness oracles.

Every workload has the same two entry points:

``setup(seed)``
    Generate and parse the inputs and compute the reference answers the
    oracles compare against.  The same seed gives the same inputs.
``run(inputs, traced, mark)``
    One pass over the inputs, returning a :class:`Pass`: the timed
    operations (each checked by the oracle), the atoms they derived and,
    when ``traced``, the per-layer metrics.  ``mark()`` is called before
    each timed operation; the driver uses it to time its host-speed probe
    between operations.

The per-layer numbers come only from public hooks: a ``trace=RunTrace()``
argument, ``default_registry().collect()`` deltas, ``AnswerResult``
fields, and ``time.perf_counter`` around calls into public functions.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass, field

from repro.chase.bounds import DEFAULT_MAX_REWRITE_DEPTH, suggested_level_budget
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.core import (
    PropertyPReport,
    check_property_p,
    egraph,
    entails_loop,
    max_tournament_size,
)
from repro.corpus import (
    bdd_corpus,
    example_1,
    growing_tournament_ruleset,
    random_instance,
    random_nonrecursive_ruleset,
)
from repro.engine.config import EngineConfig, resolve_engine
from repro.engine.shm import active_segments
from repro.logic.instances import Instance
from repro.logic.predicates import EDGE
from repro.logic.terms import Constant
from repro.obs import PHASES, RunTrace, default_registry
from repro.queries.entailment import answer_homomorphisms, entails_cq
from repro.rewriting.datalog import semi_naive_closure
from repro.rewriting.rewriter import rewrite
from repro.rules import stratification
from repro.rules.parser import parse_instance, parse_query, parse_rules
from repro.serving import answer

#: The per-layer metrics of a traced run, with their units.  Every traced
#: run reports all of them; a layer a workload does not touch reads 0.
LAYER_METRICS = {
    "logic.matcher_searches": "count",
    "logic.matcher_candidates": "count",
    "logic.candidates_per_new_atom": "ratio",
    "chase.triggers": "count",
    "chase.applied": "count",
    "chase.new_atoms": "count",
    "chase.new_per_trigger": "ratio",
    "chase.head_instantiations": "count",
    **{f"engine.{phase}_s": "s" for phase in PHASES},
    "engine.workers.decode_s": "s",
    "engine.workers.execute_s": "s",
    "engine.workers.encode_s": "s",
    "engine.workers.idle_share": "ratio",
    "engine.wire.pipe_bytes_sent": "bytes",
    "engine.wire.pipe_bytes_received": "bytes",
    "engine.wire.messages": "count",
    "engine.wire.sync_atoms": "count",
    "serving.rewrite_s": "s",
    "serving.rewrite_disjuncts": "count",
    "serving.delta_probes": "count",
    "serving.goal_stops": "count",
    "serving.goal_stop_share": "ratio",
    "serving.rules_pruned": "count",
    "core.chase_s": "s",
    "core.egraph_s": "s",
    "core.max_tournament_s": "s",
    "core.entails_loop_s": "s",
    "obs.trace_overhead": "ratio",
}

TC_RULE = "E(x,y), E(y,z) -> E(x,z)"

perf = time.perf_counter


@dataclass
class Op:
    """One timed operation: a chase call, an ``answer()`` request, a row."""

    latency_s: float
    ok: bool
    exact: bool = True
    error: str = ""
    started: float = 0.0  # time.perf_counter() at the start


@dataclass
class Pass:
    """One pass of a workload."""

    ops: list[Op] = field(default_factory=list)
    atoms: int = 0
    layers: dict[str, float] | None = None

    @property
    def ok(self) -> bool:
        return all(op.ok for op in self.ops)

    @property
    def wall_s(self) -> float:
        return sum(op.latency_s for op in self.ops)


class Layers:
    """Sums per-layer facts over the calls of one traced pass."""

    def __init__(self):
        self.values = dict.fromkeys(LAYER_METRICS, 0.0)
        self.chase_runs = 0

    def add(self, key: str, amount: float) -> None:
        self.values[key] += amount

    def add_trace(self, trace: RunTrace) -> None:
        for record in trace.rounds:
            for phase, seconds in record["phases"].items():
                self.values[f"engine.{phase}_s"] += seconds
            self.values["chase.triggers"] += record.get("triggers") or 0
            self.values["chase.applied"] += record.get("applied") or 0
            self.values["chase.new_atoms"] += record.get("new_atoms") or 0

    def add_delta(self, delta: dict) -> None:
        """Fold in one ``default_registry().collect()`` delta."""
        matcher = delta.get("matcher", {})
        self.values["logic.matcher_searches"] += matcher.get("searches", 0)
        self.values["logic.matcher_candidates"] += matcher.get("candidates", 0)
        heads = delta.get("instantiation", {}).get("heads", 0)
        self.values["chase.head_instantiations"] += heads
        transport = delta.get("transport", {})
        self.values["engine.wire.pipe_bytes_sent"] += transport.get("bytes_sent", 0)
        self.values["engine.wire.pipe_bytes_received"] += transport.get(
            "bytes_received", 0
        )
        self.values["engine.wire.messages"] += transport.get("messages", 0)
        sync = transport.get("commands", {}).get("sync", {})
        self.values["engine.wire.sync_atoms"] += sync.get("atoms_sent", 0)
        for timing in transport.get("worker_seconds", {}).values():
            for part in ("decode_s", "execute_s", "encode_s"):
                self.values[f"engine.workers.{part}"] += timing.get(part, 0.0)
        serving = delta.get("serving", {})
        for counter in ("delta_probes", "goal_stops", "rules_pruned"):
            self.values[f"serving.{counter}"] += serving.get(counter, 0)
        self.chase_runs += serving.get("chase_runs", 0)

    def finish(self, wall_s: float, workers: int) -> dict[str, float]:
        """The ratios, computed once the pass's totals are in."""
        v = self.values
        if v["chase.new_atoms"]:
            v["logic.candidates_per_new_atom"] = (
                v["logic.matcher_candidates"] / v["chase.new_atoms"]
            )
        if v["chase.triggers"]:
            v["chase.new_per_trigger"] = v["chase.new_atoms"] / v["chase.triggers"]
        busy = sum(
            v[f"engine.workers.{part}"] for part in ("decode_s", "execute_s", "encode_s")
        )
        if busy and wall_s:
            v["engine.workers.idle_share"] = 1.0 - busy / (workers * wall_s)
        if self.chase_runs:
            v["serving.goal_stop_share"] = v["serving.goal_stops"] / self.chase_runs
        return dict(v)


def _failed(started: float, exc: Exception) -> Op:
    return Op(perf() - started, ok=False, error=f"{type(exc).__name__}: {exc}",
              started=started)


def _no_mark() -> None:
    pass


# ----------------------------------------------------------------------
# restricted_tc and closure_w2: transitive closure of a seeded path
# ----------------------------------------------------------------------

@dataclass
class PathInputs:
    instance: Instance
    rules: object
    expected: frozenset


def path_inputs(length: int, seed: int) -> PathInputs:
    """A ``length``-edge path over seeded vertex names, parsed from text.

    The expected closure is ``{E(v_i, v_j) : i < j}`` plus the input's
    other atoms (the nullary ``top``).
    """
    names = [f"c{index}" for index in range(length + 1)]
    random.Random(seed).shuffle(names)
    text = ", ".join(f"E({names[i]},{names[i + 1]})" for i in range(length))
    instance = parse_instance(text)
    rules = parse_rules(TC_RULE, name="transitivity")
    vertices = [Constant(name) for name in names]
    closure = parse_instance(
        ", ".join(
            f"E({names[i]},{names[j]})"
            for i in range(len(vertices))
            for j in range(i + 1, len(vertices))
        )
    )
    return PathInputs(instance, rules, frozenset(closure))


class RestrictedTC:
    """``restricted_chase`` of transitivity over a path, inline ``delta``."""

    name = "restricted_tc"
    length = 80
    engine = resolve_engine("delta")
    workers = 1

    def setup(self, seed: int) -> PathInputs:
        return path_inputs(self.length, seed)

    def call(self, inputs: PathInputs, trace: RunTrace | None) -> tuple[Instance, list]:
        """The timed library call: its result and any problem it reports."""
        result = restricted_chase(
            inputs.instance, inputs.rules, engine=self.engine, trace=trace
        )
        return result.instance, [] if result.terminated else ["no fixpoint"]

    def leaks(self) -> list[str]:
        """What the call left behind (checked after timing)."""
        return []

    def run(self, inputs: PathInputs, traced: bool, mark=_no_mark) -> Pass:
        trace = RunTrace() if traced else None
        mark()
        started = perf()
        try:
            with default_registry().collect() as scope:
                closure, errors = self.call(inputs, trace)
            elapsed = perf() - started
        except Exception as exc:  # a raising call is a counted failure
            return Pass([_failed(started, exc)])
        if frozenset(closure) != inputs.expected:
            errors.append("closure differs from {E(vi,vj) : i < j}")
        errors += self.leaks()
        out = Pass([Op(elapsed, not errors, error="; ".join(errors), started=started)],
                   atoms=len(closure) - len(inputs.instance))
        if traced:
            layers = Layers()
            layers.add_trace(trace)
            layers.add_delta(scope.delta)
            out.layers = layers.finish(elapsed, self.workers)
        return out


class ClosureW2(RestrictedTC):
    """``semi_naive_closure`` of the same rule on the persistent pool, w=2.

    A pass is one call: pool start and teardown are inside it, since a
    caller pays them on every call.  After each call no worker process
    and no shared-memory segment may remain.
    """

    name = "closure_w2"
    length = 120
    engine = EngineConfig("persistent", workers=2)
    workers = 2

    def call(self, inputs: PathInputs, trace: RunTrace | None) -> tuple[Instance, list]:
        closure = semi_naive_closure(
            inputs.instance, inputs.rules, engine=self.engine, trace=trace
        )
        return closure, []

    def leaks(self) -> list[str]:
        found = []
        children = multiprocessing.active_children()
        if children:
            found.append(f"{len(children)} worker processes left running")
        segments = active_segments()
        if segments:
            found.append(f"{len(segments)} shared-memory segments left linked")
        return found


# ----------------------------------------------------------------------
# serve_mix: a closed-loop client sending answer() requests
# ----------------------------------------------------------------------

#: Decision requests on the bdd corpus: (entry, query).  The rewriting
#: leg decides each of them; every answer is reached within REF_LEVELS
#: chase levels, so saturate-then-probe at that depth is a true reference.
BDD_DECISIONS = [
    ("example1_bdd", "E(u,v), E(v,u)"),
    ("example1_bdd", "Z(u)"),
    ("tournament_builder", "E(x,y)"),
    ("tournament_builder", "Z(u)"),
    ("infinite_path", "E(x1,x2), E(x2,x3), E(x3,x4)"),
    ("infinite_path", "E(x,x)"),
    ("two_relation_linear", "P(x,y), Q(y,z)"),
    ("two_relation_linear", "Q(x,x)"),
    ("dense_overlay", "F(x,y), F(y,z)"),
    ("dense_overlay", "F(x,x)"),
    ("wide_signature", "E(x,y), E(y,z)"),
    ("wide_signature", "E(x,x)"),
    ("datalog_chain_3", "P3(x,y)"),
    ("datalog_chain_3", "P3(x,x)"),
    ("sticky_pair", "T(y), R(y,w)"),
    ("sticky_pair", "S(x,x)"),
    ("bowtie_merge", "D(x,z), E(y,z)"),
    ("bowtie_merge", "D(x,x)"),
    ("guarded_triangle", "E(c,w)"),
    ("guarded_triangle", "E(x,y), E(y,z)"),
    ("backward_growth", "E(u,v), E(v,w)"),
    ("backward_growth", "E(x,x)"),
]

#: Enumeration requests on the bdd corpus: (entry, query over ``x, y``).
BDD_ENUMERATIONS = [
    ("example1_bdd", "E(x,y)"),
    ("tournament_builder", "E(x,y)"),
    ("infinite_path", "E(x,y)"),
    ("two_relation_linear", "P(x,y)"),
    ("dense_overlay", "F(x,y)"),
    ("wide_signature", "E(x,y)"),
    ("datalog_chain_3", "P2(x,y)"),
    ("sticky_pair", "R(x,y)"),
    ("guarded_triangle", "E(x,y)"),
    ("backward_growth", "E(x,y)"),
]

REF_LEVELS = 4
RANDOM_RULE_SETS = 6
TC_PATH = 16
#: The transitive-closure requests' rewriting budget: the default budget
#: makes a negative request take tens of seconds (see the README).
TC_BUDGETS = {"max_rewrite_depth": 6}

#: Requests per pass, by class.  Sorted by latency the classes form three
#: blocks: rewriting-decided requests (under ~12 ms), then the chase-leg
#: enumerations and entailed TC decisions (~20-45 ms), then the
#: non-entailed TC decisions (~50-300 ms).  These counts put p50 at rank
#: 50 (15 requests into the middle block) and p90 at rank 90 (10 into the
#: last block of 20), away from every boundary; 10 requests lie beyond p90.
MIX = {
    "rewrite_decide": 25,
    "rewrite_enumerate": 10,
    "tc_enumerate": 10,
    "tc_entailed": 35,
    "tc_not_entailed": 20,
}


@dataclass(frozen=True)
class Request:
    kind: str
    instance: Instance
    rules: object
    query: object
    bindings: tuple
    budgets: tuple  # (name, value) pairs passed to answer() and rewrite()
    expected_entailed: bool
    expected_tuples: frozenset | None  # None in decision mode


def _constant_answers(instance, query) -> frozenset:
    images = (
        tuple(hom.apply_term(v) for v in query.answers)
        for hom in answer_homomorphisms(instance, query)
    )
    return frozenset(
        image for image in images if all(term.is_constant for term in image)
    )


def _referenced(kind, instance, rules, query, levels) -> Request:
    """A request whose expected answer is computed by saturate-then-probe.

    The serving tests' oracle: the oblivious chase to ``levels``, then one
    probe (and, in enumeration mode, the constant answer tuples).
    """
    chased = oblivious_chase(instance, rules, max_levels=levels).instance
    if not query.answers:
        return Request(kind, instance, rules, query, (), (),
                       entails_cq(chased, query), None)
    return Request(kind, instance, rules, query, (), (),
                   entails_cq(chased, query.boolean()),
                   _constant_answers(chased, query))


def _stratified(rng: random.Random, items: list, count: int) -> list:
    """One seeded pick from each of ``count`` equal slices of ``items``."""
    bounds = [round(k * len(items) / count) for k in range(count + 1)]
    return [rng.choice(items[bounds[k]:bounds[k + 1]]) for k in range(count)]


class ServeMix:
    """One client in a closed loop over a seeded ``answer()`` stream.

    A pass replays the same stream of ``sum(MIX.values())`` requests; the
    seed decides which requests it holds and their order.
    """

    name = "serve_mix"
    engine = resolve_engine("delta")
    workers = 1
    mix = MIX
    tc_path = TC_PATH

    def setup(self, seed: int) -> list[Request]:
        rng = random.Random(seed)
        decide, enumerate_ = "rewrite_decide", "rewrite_enumerate"
        pools: dict[str, list[Request]] = {decide: [], enumerate_: []}
        corpus = {entry.name: entry for entry in bdd_corpus()}
        for name, text in BDD_DECISIONS:
            entry = corpus[name]
            pools[decide].append(_referenced(
                decide, entry.instance, entry.rules, parse_query(text), REF_LEVELS
            ))
        for name, text in BDD_ENUMERATIONS:
            entry = corpus[name]
            query = parse_query(text, answers=("x", "y"))
            pools[enumerate_].append(_referenced(
                enumerate_, entry.instance, entry.rules, query, REF_LEVELS
            ))
        for _ in range(RANDOM_RULE_SETS):
            rule_seed = rng.randrange(2**31)
            rules = random_nonrecursive_ruleset(seed=rule_seed)
            bottom = sorted(stratification(rules)[0], key=str)
            database = random_instance(bottom, n_terms=4, n_atoms=6, seed=rule_seed)
            head = rng.choice(sorted({a.predicate.name for r in rules for a in r.head}))
            levels = suggested_level_budget(rules)
            pools[decide].append(_referenced(
                decide, database, rules, parse_query(f"{head}(x,y)"), levels
            ))
            pools[enumerate_].append(_referenced(
                enumerate_, database, rules,
                parse_query(f"{head}(x,y)", answers=("x", "y")), levels,
            ))
        stream = [
            rng.choice(pool) for kind, pool in pools.items()
            for _ in range(self.mix[kind])
        ]
        stream += self._closure_requests(rng)
        rng.shuffle(stream)
        return stream

    def _closure_requests(self, rng: random.Random) -> list[Request]:
        """Transitive closure over a path: ``E(ci,cj)`` holds iff i < j."""
        rules = parse_rules(TC_RULE, name="transitivity")
        path = parse_instance(
            ", ".join(f"E(c{i},c{i + 1})" for i in range(self.tc_path))
        )
        vertices = [Constant(f"c{i}") for i in range(self.tc_path + 1)]
        budgets = tuple(TC_BUDGETS.items())

        def pairs(gap: int) -> frozenset:
            return frozenset(
                (vertices[i], vertices[j])
                for i in range(len(vertices))
                for j in range(i + gap, len(vertices))
            )

        edge = parse_query("E(x,y)", answers=("x", "y"))
        two_hop = parse_query("E(x,y), E(y,z)", answers=("x", "z"))
        requests = []
        for k in range(self.mix["tc_enumerate"]):
            query, gap = (edge, 1) if k % 2 == 0 else (two_hop, 2)
            requests.append(Request("tc_enumerate", path, rules, query, (),
                                    budgets, True, pairs(gap)))
        # A request's cost grows with the pair's indices, so pairs are drawn
        # one per slice of a list sorted by cost: every seed gets the same
        # spread of costs.
        grid = [(i, j) for i in range(len(vertices)) for j in range(len(vertices))]
        entailed = sorted((p for p in grid if p[0] < p[1]), key=lambda p: (p[1] - p[0], p))
        refuted = sorted((p for p in grid if p[0] >= p[1]), key=lambda p: (p[1], p[0]))
        for kind, pool, expected in (
            ("tc_entailed", entailed, True),
            ("tc_not_entailed", refuted, False),
        ):
            requests += [
                Request(kind, path, rules, edge, (vertices[i], vertices[j]),
                        budgets, expected, None)
                for i, j in _stratified(rng, pool, self.mix[kind])
            ]
        return requests

    def run(self, stream: list[Request], traced: bool, mark=_no_mark) -> Pass:
        out = Pass()
        layers = Layers() if traced else None
        for req in stream:
            budgets = dict(req.budgets)
            trace = RunTrace() if traced else None
            mark()
            started = perf()
            try:
                with default_registry().collect() as scope:
                    result = answer(req.instance, req.rules, req.query,
                                    req.bindings, trace=trace, **budgets)
                elapsed = perf() - started
            except Exception as exc:
                out.ops.append(_failed(started, exc))
                continue
            ok = result.entailed == req.expected_entailed and (
                req.expected_tuples is None
                or frozenset(result.tuples) == req.expected_tuples
            )
            out.ops.append(Op(
                elapsed, ok, exact=result.verdict == "exact",
                error="" if ok else f"{req.kind}: verdict differs from reference",
                started=started,
            ))
            if result.chase is not None:
                out.atoms += len(result.chase.instance) - len(req.instance)
            if traced:
                layers.add_trace(trace)
                layers.add_delta(scope.delta)
                if result.rewriting is not None:
                    layers.add("serving.rewrite_disjuncts", len(result.rewriting.ucq))
                rewrite_started = perf()
                rewrite(req.query, req.rules, max_depth=budgets.get(
                    "max_rewrite_depth", DEFAULT_MAX_REWRITE_DEPTH))
                layers.add("serving.rewrite_s", perf() - rewrite_started)
        if traced:
            out.layers = layers.finish(out.wall_s, self.workers)
        return out


# ----------------------------------------------------------------------
# property_p: Theorem 1's Property (p) over chase prefixes
# ----------------------------------------------------------------------

#: ``check_property_p``'s default atom budget, used by the timed replica.
PROPERTY_P_ATOMS = 100_000


@dataclass
class Row:
    name: str
    rules: object
    instance: Instance | None
    levels: int
    is_bdd: bool
    atoms: int | None = None  # chase size, measured once before timing


def _row_ok(row: Row, report: PropertyPReport) -> bool:
    """Every bdd row satisfies (p); Example 1 grows tournaments, no loop."""
    if row.is_bdd:
        return report.consistent_with_property_p
    return report.tournaments_growing and not report.loop_entailed


def _row_exact(row: Row, report: PropertyPReport) -> bool:
    """The chase reached its fixpoint or every requested level."""
    return report.terminated or report.levels == row.levels


class PropertyP:
    """``check_property_p`` over the bdd corpus, seeded random non-recursive
    rule sets, growing tournaments at depth 7 and Example 1 at depth 10."""

    name = "property_p"
    engine = resolve_engine("delta")
    workers = 1
    corpus_levels = 5
    random_rule_sets = 20
    random_levels = 4
    tournament_levels = 7
    example_levels = 10

    def setup(self, seed: int) -> list[Row]:
        rng = random.Random(seed)
        rows = [
            Row(entry.name, entry.rules, entry.instance, self.corpus_levels, True)
            for entry in bdd_corpus()
        ]
        for _ in range(self.random_rule_sets):
            rule_seed = rng.randrange(2**31)
            rules = random_nonrecursive_ruleset(seed=rule_seed)
            bottom = sorted(stratification(rules)[0], key=str)
            database = random_instance(bottom, n_terms=4, n_atoms=6, seed=rule_seed)
            rows.append(Row(rules.name, rules, database, self.random_levels, True))
        for merge_rules in (1, 2, 3):
            rules = growing_tournament_ruleset(merge_rules)
            rows.append(Row(rules.name, rules, None, self.tournament_levels, True))
        entry = example_1()
        rows.append(Row(entry.name, entry.rules, entry.instance,
                        self.example_levels, False))
        return rows

    def run(self, rows: list[Row], traced: bool, mark=_no_mark) -> Pass:
        # check_property_p does not return its chase, so each row's chase
        # size is measured once, outside every timing, for atoms_per_s.
        for row in rows:
            if row.atoms is None:
                start = row.instance if row.instance is not None else Instance()
                chased = oblivious_chase(start, row.rules, max_levels=row.levels,
                                         max_atoms=PROPERTY_P_ATOMS)
                row.atoms = len(chased.instance) - len(start)
        out = Pass()
        layers = Layers() if traced else None
        for row in rows:
            mark()
            started = perf()
            try:
                if traced:
                    with default_registry().collect() as scope:
                        report = self._traced_check(row, layers)
                    layers.add_delta(scope.delta)
                else:
                    report = check_property_p(row.rules, row.instance,
                                              max_levels=row.levels)
                elapsed = perf() - started
            except Exception as exc:
                out.ops.append(_failed(started, exc))
                continue
            ok = _row_ok(row, report)
            out.ops.append(Op(elapsed, ok, exact=_row_exact(row, report),
                              error="" if ok else f"{row.name}: Property (p) verdict",
                              started=started))
            out.atoms += row.atoms
        if traced:
            out.layers = layers.finish(out.wall_s, self.workers)
        return out

    @staticmethod
    def _traced_check(row: Row, layers: Layers) -> PropertyPReport:
        """``check_property_p``'s public calls, in its order, each timed."""
        start = row.instance if row.instance is not None else Instance()
        trace = RunTrace()
        started = perf()
        result = oblivious_chase(start, row.rules, max_levels=row.levels,
                                 max_atoms=PROPERTY_P_ATOMS, trace=trace)
        layers.add("core.chase_s", perf() - started)
        layers.add_trace(trace)
        report = PropertyPReport(levels=result.levels_completed,
                                 terminated=result.terminated)
        for level in range(result.levels_completed + 1):
            started = perf()
            prefix = result.prefix(level)
            layers.add("core.chase_s", perf() - started)
            started = perf()
            graph = egraph(prefix, EDGE)
            layers.add("core.egraph_s", perf() - started)
            started = perf()
            report.tournament_sizes.append(max_tournament_size(graph))
            layers.add("core.max_tournament_s", perf() - started)
            if report.loop_level is None:
                started = perf()
                looped = entails_loop(prefix, EDGE)
                layers.add("core.entails_loop_s", perf() - started)
                if looped:
                    report.loop_level = level
        return report


WORKLOADS = {w.name: w for w in (RestrictedTC(), ClosureW2(), ServeMix(), PropertyP())}
