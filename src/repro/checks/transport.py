"""Transport-boundary pass: engine traffic goes through the wire codec.

Everything crossing a :class:`~repro.engine.workers.WorkerPool` pipe is
either an interned-id buffer built by :mod:`repro.engine.wire` or a
small pickled *envelope* (a command tuple, a :func:`pack_reply` reply, a
rule list).  A raw pickle of a domain object — ``Atom``, ``Instance``,
``Trigger``, ``Substitution`` — bypasses the codec: it re-ships symbols
the tables already interned, breaks the deterministic byte accounting
that ``tools/check_transport_budget.py`` gates, and silently reverts
the PR 9 transport win.  Four rules, scoped to ``src/repro/engine/``:

``T201`` pickle outside the protocol endpoint
    ``pickle.dumps``/``pickle.loads`` may appear only in the envelope
    module (``workers.py``, both ends of every pipe) — everywhere else
    in the engine the codec is the only serializer.

``T202`` raw pickle of domain objects
    Inside the envelope module, every ``pickle.dumps`` argument must be
    a command tuple (a literal whose first element is a string tag), a
    ``pack_reply(...)`` envelope, or a name bound to one of those; and
    no pickled expression may mention a domain object name.

``T203`` untyped pipe traffic
    ``conn.send(obj)`` / ``conn.recv()`` pickle implicitly with no byte
    accounting; the protocol uses ``send_bytes``/``recv_bytes`` so every
    payload is counted in ``TRANSPORT_STATS``.

``T204`` hand-built reply tuples
    A literal ``("ok", ...)`` / ``("error", ...)`` bypasses
    :func:`repro.engine.wire.pack_reply` and loses the fixed-size
    timing envelope that keeps reply byte counts deterministic.
"""

from __future__ import annotations

import ast

from repro.checks.base import CheckPass, Finding, SourceModule, call_name

#: The protocol endpoint where envelope pickling is legitimate.
ENVELOPE_MODULES = {
    "src/repro/engine/workers.py",
}

#: Identifiers whose appearance inside a pickled expression marks a
#: domain object crossing the boundary raw.
DOMAIN_NAMES = {
    "Atom",
    "Instance",
    "Trigger",
    "Substitution",
    "atom",
    "atoms",
    "instance",
    "trigger",
    "triggers",
    "substitution",
}

_REPLY_STATUS = {"ok", "error"}


class TransportPass(CheckPass):
    name = "transport"
    description = (
        "raw pickles, untyped pipe sends and hand-built replies in the "
        "engine's worker protocol"
    )

    def wants(self, module: SourceModule) -> bool:
        return "repro/engine/" in module.rel.replace("\\", "/")

    def run(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        rel = module.rel.replace("\\", "/")
        is_envelope = rel in ENVELOPE_MODULES or rel.endswith(
            "engine/workers.py"
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                self._check_call(module, node, is_envelope, findings)
            elif isinstance(node, ast.Tuple):
                self._check_reply_tuple(module, node, findings)
        return findings

    # ------------------------------------------------------------------

    def _check_call(self, module, node: ast.Call, is_envelope, findings):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "pickle"
            and func.attr in {"dumps", "loads", "dump", "load"}
        ):
            if not is_envelope:
                findings.append(
                    self.finding(
                        module, "T201", node,
                        f"pickle.{func.attr} outside the protocol "
                        "endpoint — engine payloads go through "
                        "repro.engine.wire codecs",
                    )
                )
                return
            if func.attr in {"dumps", "dump"} and node.args:
                self._check_dumped(module, node, findings)
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr in {"send", "recv"}
            and self._pipe_receiver(func.value)
        ):
            findings.append(
                self.finding(
                    module, "T203", node,
                    f"untyped pipe `.{func.attr}()` pickles implicitly "
                    "with no byte accounting — use "
                    f"`.{func.attr}_bytes()` with an explicit envelope",
                )
            )

    def _check_dumped(self, module, node: ast.Call, findings):
        arg = node.args[0]
        if self._mentions_domain(arg):
            findings.append(
                self.finding(
                    module, "T202", node,
                    "pickle.dumps of an expression mentioning a domain "
                    "object — ship it through the wire codec (or "
                    "allowlist this envelope with a justification)",
                )
            )
            return
        if self._is_envelope_shaped(module, node, arg):
            return
        findings.append(
            self.finding(
                module, "T202", node,
                "pickle.dumps of a value that is neither a command tuple "
                "nor a pack_reply envelope — raw pickles bypass the wire "
                "codec and the transport budget",
            )
        )

    def _is_envelope_shaped(self, module, call: ast.Call, arg: ast.expr) -> bool:
        if isinstance(arg, ast.Tuple):
            return bool(arg.elts) and isinstance(
                arg.elts[0], ast.Constant
            ) and isinstance(arg.elts[0].value, str)
        if isinstance(arg, ast.Call):
            return call_name(arg) == "pack_reply"
        if isinstance(arg, ast.Name):
            values = self._local_bindings(module, call, arg.id)
            return bool(values) and all(
                self._is_envelope_shaped(module, call, value)
                for value in values
            )
        return False

    def _local_bindings(self, module, site: ast.AST, name: str) -> list[ast.expr]:
        """Every value assigned to ``name`` in the function around ``site``."""
        enclosing: ast.AST | None = None
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                span_end = getattr(node, "end_lineno", node.lineno)
                if node.lineno <= site.lineno <= span_end:
                    if enclosing is None or node.lineno > enclosing.lineno:
                        enclosing = node
        if enclosing is None:
            enclosing = module.tree
        values: list[ast.expr] = []
        for node in ast.walk(enclosing):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        values.append(node.value)
        return values

    def _mentions_domain(self, node: ast.expr) -> bool:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id in DOMAIN_NAMES:
                return True
            if isinstance(inner, ast.Attribute) and inner.attr in DOMAIN_NAMES:
                return True
        return False

    def _pipe_receiver(self, node: ast.expr) -> bool:
        tail = None
        if isinstance(node, ast.Name):
            tail = node.id
        elif isinstance(node, ast.Attribute):
            tail = node.attr
        if tail is None:
            return False
        lowered = tail.lower()
        return "conn" in lowered or "pipe" in lowered

    def _check_reply_tuple(self, module, node: ast.Tuple, findings):
        if not node.elts:
            return
        first = node.elts[0]
        if (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value in _REPLY_STATUS
            and len(node.elts) > 1
        ):
            findings.append(
                self.finding(
                    module, "T204", node,
                    f"hand-built reply tuple ({first.value!r}, ...) — "
                    "replies are built by repro.engine.wire.pack_reply so "
                    "the timing envelope stays fixed-size",
                )
            )
