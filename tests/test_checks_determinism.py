"""Fixture tests for the determinism pass (D101/D102/D103).

Each fixture is a minimal snippet of the shape the pass exists to catch
(or to leave alone): unordered iteration feeding an ordered consumer,
hash-order bucketing, wall-clock reads — and the canonical-order idioms
that must stay clean (sorted() wrapping, collect-then-sort, allow
markers with justifications).
"""

import ast
import pathlib
import textwrap

from repro.checks.base import SourceModule
from repro.checks.determinism import UNORDERED_CALLS, DeterminismPass

PASS = DeterminismPass()


def run(source, rel="src/repro/logic/example.py"):
    module = SourceModule.from_source(textwrap.dedent(source), rel)
    live, allowed = [], []
    for finding in PASS.run(module):
        (allowed if module.allowed(finding) else live).append(finding)
    return live, allowed


def rules(findings):
    return sorted(f.rule for f in findings)


def test_set_iteration_feeding_append_is_flagged():
    live, _ = run(
        """
        def leak(items):
            out = []
            bucket = set(items)
            for atom in bucket:
                out.append(atom)
            return out
        """
    )
    assert rules(live) == ["D101"]
    assert "ordered consumer" in live[0].message


def test_unordered_argument_to_sink_is_flagged():
    live, _ = run(
        """
        def record(recorder, batch):
            produced = frozenset(batch)
            recorder.record_round(produced)
        """
    )
    assert rules(live) == ["D101"]
    assert "ordered sink" in live[0].message


def test_hash_modulo_bucketing_is_flagged():
    live, _ = run(
        """
        def route(atom, count):
            return hash(atom) % count
        """
    )
    assert rules(live) == ["D102"]


def test_wall_clock_and_unseeded_random_are_flagged():
    live, _ = run(
        """
        import random
        import time

        def stamp():
            return (time.time(), random.random())
        """
    )
    assert rules(live) == ["D103", "D103"]


def test_sorted_wrapping_neutralizes_the_taint():
    live, _ = run(
        """
        def canonical(items):
            out = []
            for atom in sorted(set(items)):
                out.append(atom)
            return out
        """
    )
    assert live == []


def test_collect_then_sort_is_not_flagged():
    live, _ = run(
        """
        def collect(items):
            out = []
            for atom in set(items):
                out.append(atom)
            out.sort()
            return out
        """
    )
    assert live == []


def test_allow_marker_suppresses_routing_hash():
    live, allowed = run(
        """
        def shard_of(atom, count):
            # checks: allow[D102] -- routing only; outputs re-merge by the
            # canonical trigger index, so results are routing-independent.
            return hash(atom) % count
        """
    )
    assert live == []
    assert rules(allowed) == ["D102"]


def test_seeded_random_and_perf_counter_are_clean():
    live, _ = run(
        """
        import random
        import time

        def generate(seed):
            rng = random.Random(seed)
            started = time.perf_counter()
            return rng, started
        """
    )
    assert live == []


def test_every_unordered_call_names_a_set_method_or_a_library_function():
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    defined = {
        node.name
        for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    stale = sorted(
        name
        for name in UNORDERED_CALLS
        if not hasattr(set, name) and name not in defined
    )
    assert stale == []
