"""Determinism pass: unordered iteration must not reach ordered sinks.

The library's bit-identical-results guarantee rests on every
order-carrying artifact — ``record_round`` payloads, wire buffers,
trigger enumerations, merge orders — being derived from *canonically
ordered* iteration, never from raw ``set``/``frozenset`` traversal
(whose order follows ``PYTHONHASHSEED``).  Three rules:

``D101`` unordered-iteration-to-ordered-sink
    A conservative intraprocedural taint walk marks expressions whose
    runtime value is an unordered collection (set/frozenset literals and
    constructors, set-algebra operators, known set-returning helpers
    like ``Instance.active_domain``), then flags the places where such a
    value is consumed *positionally*: ``list``/``tuple``/``enumerate``/
    ``zip``/``str.join`` calls, list comprehensions and generator
    expressions, ``next(iter(...))`` picks, appends inside a ``for``
    loop over the value, and direct arguments to the ordered sinks
    (``record_round``, the wire encoders, the worker reply encoders).
    Wrapping in ``sorted(...)`` — or any order-insensitive consumer
    (``len``/``sum``/``min``/``max``/``any``/``all``/``set``/
    ``frozenset``) — neutralizes the taint.  A collector list that is
    later ``.sort()``-ed (or fed to ``sorted``) is recognized and not
    flagged.

``D102`` hash-order reliance
    ``hash(x) % n`` bucketing and ``sorted(..., key=hash)`` /
    ``key=id`` make results follow the interpreter's hash/identity
    layout.  (``__hash__`` implementations themselves are exempt.)

``D103`` nondeterministic sources
    Unseeded module-level ``random.*`` calls and absolute wall-clock
    reads (``time.time``, ``datetime.now``/``utcnow``).  Seeded
    ``random.Random(seed)`` instances are fine (the corpus generators'
    idiom), and the duration-only clocks ``time.perf_counter`` /
    ``time.monotonic`` are allowed — they feed telemetry, never
    results.
"""

from __future__ import annotations

import ast

from repro.checks.base import CheckPass, Finding, SourceModule, call_name

#: Constructors whose result is an unordered collection.
UNORDERED_CONSTRUCTORS = {"set", "frozenset"}

#: Method/function names that return sets or frozensets in this codebase
#: regardless of receiver (Instance.active_domain, Instance.atoms,
#: positional-index buckets, set algebra spelled as methods).
UNORDERED_CALLS = {
    "active_domain",
    "atoms",
    "with_predicate",
    "frontier_terms",
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}

#: Order-insensitive consumers: taint stops here.
NEUTRAL_CALLS = {
    "sorted",
    "sorted_atoms",
    "set",
    "frozenset",
    "len",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "Multiset",
    "Counter",
}

#: Positional consumers: an unordered argument leaks its layout order.
ORDERED_CALLS = {"list", "tuple", "enumerate", "zip", "join", "extend"}

#: Project sinks whose argument order is semantically load-bearing.
SINK_CALLS = {
    "record_round",
    "encode_atoms",
    "encode_derive_reply",
    "encode_enumerate_reply",
    "pack_ids",
}

#: Mutations that give a ``for`` loop body an ordered effect.
ORDERED_EFFECTS = {"append", "extend", "insert", "appendleft"}

_ABS_CLOCKS = {("time", "time"), ("datetime", "now"), ("datetime", "utcnow")}


class DeterminismPass(CheckPass):
    name = "determinism"
    description = (
        "unordered iteration reaching ordered sinks, hash-order reliance, "
        "wall-clock/unseeded-random sources"
    )

    def wants(self, module: SourceModule) -> bool:
        rel = module.rel.replace("\\", "/")
        return rel.startswith(("src/", "tools/")) or "/" not in rel

    def run(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        self._run_block(module, module.tree.body, {}, findings, func_name=None)
        return findings

    # -- statement walk ------------------------------------------------

    def _run_block(self, module, body, env, findings, func_name):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._run_block(
                    module, node.body, {}, findings, func_name=node.name
                )
                continue
            if isinstance(node, ast.ClassDef):
                self._run_block(module, node.body, {}, findings, func_name)
                continue
            self._run_statement(module, node, env, findings, func_name, body)

    def _run_statement(self, module, node, env, findings, func_name, block):
        if isinstance(node, ast.Assign):
            self._scan_expr(module, node.value, env, findings, func_name)
            tainted = self._is_unordered(node.value, env)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = tainted
                else:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            env[name.id] = False
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._scan_expr(module, node.value, env, findings, func_name)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = self._is_unordered(node.value, env)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._scan_expr(module, node.iter, env, findings, func_name)
            if self._is_unordered(node.iter, env):
                effect = self._ordered_effect(node, block)
                if effect is not None:
                    findings.append(
                        self.finding(
                            module, "D101", node,
                            "iteration over an unordered collection feeds "
                            f"an ordered consumer (`{effect}`) — wrap the "
                            "iterable in sorted() or a canonical-order "
                            "helper",
                        )
                    )
            for name in ast.walk(node.target):
                if isinstance(name, ast.Name):
                    env[name.id] = False
            self._run_nested(module, node, env, findings, func_name)
        elif isinstance(node, (ast.If, ast.While, ast.With, ast.AsyncWith,
                               ast.Try)):
            for value in ast.iter_child_nodes(node):
                if isinstance(value, ast.expr):
                    self._scan_expr(module, value, env, findings, func_name)
            self._run_nested(module, node, env, findings, func_name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._run_block(module, node.body, {}, findings, node.name)
        elif isinstance(node, ast.ClassDef):
            self._run_block(module, node.body, {}, findings, func_name)
        else:
            for value in ast.iter_child_nodes(node):
                if isinstance(value, ast.expr):
                    self._scan_expr(module, value, env, findings, func_name)

    def _run_nested(self, module, node, env, findings, func_name):
        """Recurse into a compound statement's blocks, sharing ``env``."""
        for attr in ("body", "orelse", "finalbody"):
            self._run_block(
                module, getattr(node, attr, []) or [], env, findings,
                func_name,
            )
        for handler in getattr(node, "handlers", []) or []:
            self._run_block(module, handler.body, env, findings, func_name)

    # -- taint classification ------------------------------------------

    def _is_unordered(self, node: ast.expr, env: dict) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return env.get(node.id, False)
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in UNORDERED_CONSTRUCTORS or name in UNORDERED_CALLS:
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_unordered(node.left, env) or self._is_unordered(
                node.right, env
            )
        if isinstance(node, ast.IfExp):
            return self._is_unordered(node.body, env) or self._is_unordered(
                node.orelse, env
            )
        return False

    # -- expression scan -----------------------------------------------

    def _scan_expr(self, module, node, env, findings, func_name,
                   neutral=False):
        if isinstance(node, ast.Call):
            self._scan_call(module, node, env, findings, func_name, neutral)
            return
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            first = node.generators[0]
            if not neutral and self._is_unordered(first.iter, env):
                findings.append(
                    self.finding(
                        module, "D101", node,
                        "comprehension over an unordered collection builds "
                        "an ordered result — wrap the iterable in sorted()",
                    )
                )
            for child in ast.iter_child_nodes(node):
                self._scan_expr(module, child, env, findings, func_name)
            return
        if isinstance(node, ast.comprehension):
            self._scan_expr(module, node.iter, env, findings, func_name)
            for cond in node.ifs:
                self._scan_expr(module, cond, env, findings, func_name)
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if (
                isinstance(node.left, ast.Call)
                and call_name(node.left) in {"hash", "id"}
                and func_name != "__hash__"
            ):
                findings.append(
                    self.finding(
                        module, "D102", node,
                        f"`{call_name(node.left)}(...) % n` bucketing "
                        "follows the interpreter's hash layout — results "
                        "derived from it must be re-merged canonically",
                    )
                )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.comprehension)):
                self._scan_expr(module, child, env, findings, func_name)

    def _scan_call(self, module, node, env, findings, func_name, neutral):
        name = call_name(node)
        # D102: sort keyed by hash()/id().
        if name in {"sorted", "sort"}:
            for keyword in node.keywords:
                if keyword.arg == "key" and self._is_hash_key(keyword.value):
                    findings.append(
                        self.finding(
                            module, "D102", node,
                            "sorting keyed by hash()/id() orders results by "
                            "interpreter layout, not by value",
                        )
                    )
        # D103: unseeded random / absolute clocks.
        self._scan_sources(module, node, findings)
        # D101: next(iter(unordered)) picks an arbitrary element.
        if (
            name == "next"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and call_name(node.args[0]) == "iter"
            and node.args[0].args
            and self._is_unordered(node.args[0].args[0], env)
            and not neutral
        ):
            findings.append(
                self.finding(
                    module, "D101", node,
                    "next(iter(...)) over an unordered collection picks a "
                    "hash-layout-dependent element — use min()/sorted()",
                )
            )
        if name in NEUTRAL_CALLS:
            for arg in node.args:
                self._scan_expr(
                    module, arg, env, findings, func_name, neutral=True
                )
            for keyword in node.keywords:
                self._scan_expr(
                    module, keyword.value, env, findings, func_name
                )
            return
        if name in ORDERED_CALLS or name in SINK_CALLS:
            kind = "ordered sink" if name in SINK_CALLS else "positional consumer"
            for arg in node.args:
                if not neutral and self._is_unordered(arg, env):
                    findings.append(
                        self.finding(
                            module, "D101", node,
                            f"unordered collection passed to {kind} "
                            f"`{name}(...)` — wrap it in sorted() or a "
                            "canonical-order helper",
                        )
                    )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                value = child.value if isinstance(child, ast.keyword) else child
                self._scan_expr(
                    module, value, env, findings, func_name, neutral=neutral
                )

    def _scan_sources(self, module, node: ast.Call, findings) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if not isinstance(func.value, ast.Name):
            return
        receiver, attr = func.value.id, func.attr
        if receiver == "random" and attr not in {"Random", "seed"}:
            findings.append(
                self.finding(
                    module, "D103", node,
                    f"unseeded module-level `random.{attr}()` — use a "
                    "`random.Random(seed)` instance so runs reproduce",
                )
            )
        elif (receiver, attr) in _ABS_CLOCKS:
            findings.append(
                self.finding(
                    module, "D103", node,
                    f"absolute wall-clock `{receiver}.{attr}()` in library "
                    "code — results must not depend on the clock (use "
                    "perf_counter only for telemetry durations)",
                )
            )

    # -- loop-effect helpers -------------------------------------------

    def _is_hash_key(self, value: ast.expr) -> bool:
        if isinstance(value, ast.Name) and value.id in {"hash", "id"}:
            return True
        if isinstance(value, ast.Lambda):
            for inner in ast.walk(value.body):
                if isinstance(inner, ast.Call) and call_name(inner) in {
                    "hash",
                    "id",
                }:
                    return True
        return False

    def _ordered_effect(self, loop: ast.For, block) -> str | None:
        """The name of the ordered consumer a loop body feeds, if any.

        An append/extend into a collector that is later sorted (a
        ``collect then sort`` idiom) is order-safe and not reported.
        """
        for inner in ast.walk(loop):
            if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                return "yield"
            if not isinstance(inner, ast.Call):
                continue
            name = call_name(inner)
            if name in SINK_CALLS:
                return name
            if name in ORDERED_EFFECTS and isinstance(inner.func, ast.Attribute):
                target = inner.func.value
                if isinstance(target, ast.Name) and self._sorted_later(
                    target.id, block, loop
                ):
                    continue
                return f".{name}"
        return None

    def _sorted_later(self, collector: str, block, loop) -> bool:
        """True when ``collector`` is sorted after ``loop`` in ``block``."""
        past = False
        for statement in block:
            if statement is loop:
                past = True
                continue
            if not past:
                continue
            for inner in ast.walk(statement):
                if not isinstance(inner, ast.Call):
                    continue
                name = call_name(inner)
                if name == "sort" and isinstance(inner.func, ast.Attribute):
                    target = inner.func.value
                    if isinstance(target, ast.Name) and target.id == collector:
                        return True
                if name == "sorted" and any(
                    isinstance(arg, ast.Name) and arg.id == collector
                    for arg in inner.args
                ):
                    return True
        return False
