"""Resource-lifecycle pass: every acquire has an exception-safe release.

The tests catch a leaked worker process at run time
(``multiprocessing.active_children()``); this pass catches the *shape*
of a leak at lint time.  Tracked acquisitions — ``SharedMemory(...)``,
``WorkerPool(...)``, ``Pipe()`` — must reach a release
(``close``/``unlink``/``shutdown``/``terminate``/``join``/…) on **all**
paths, including exception edges.  Three rules:

``L301`` unreleased resource
    The acquired value stays in a local and no release call on it exists
    (or the value is dropped on the floor entirely).

``L302`` release unreachable on exception paths
    A release exists but only on the fall-through path — an exception
    between acquire and release leaks.  Releases are exception-safe when
    the acquire is a ``with`` context or the release sits in a
    ``finally`` block.

``L303`` owner class without teardown
    The acquire is stored on ``self`` but the owning class has no
    teardown method (``close``/``shutdown``/``stop``/``teardown``/
    ``__exit__``/``__del__``) that touches the attribute.

Ownership transfer is respected: a resource that escapes the function —
returned, yielded, passed to a constructor or any call, stored into a
container or attribute — becomes its new owner's problem and is not
flagged here (the owner's class is, via L303, when it is a class).
"""

from __future__ import annotations

import ast

from repro.checks.base import (
    CheckPass,
    Finding,
    SourceModule,
    call_name,
    parent_map,
)

#: Constructor names whose result owns an OS-level resource.
ACQUIRE_CALLS = {"SharedMemory", "WorkerPool", "Pipe"}

#: Method names that count as releasing a resource.
RELEASE_METHODS = {
    "close",
    "unlink",
    "shutdown",
    "terminate",
    "join",
    "release",
    "stop",
    "kill",
}

#: Methods an owner class may use to tear its resources down.
TEARDOWN_METHODS = {"close", "shutdown", "stop", "teardown", "__exit__", "__del__"}


class LifecyclePass(CheckPass):
    name = "lifecycle"
    description = (
        "shm segments, worker pools and pipes must be released on every "
        "path"
    )

    def run(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        parents = parent_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and call_name(node) in ACQUIRE_CALLS:
                self._check_acquire(module, node, parents, findings)
        return findings

    # ------------------------------------------------------------------

    def _check_acquire(self, module, node: ast.Call, parents, findings):
        statement, in_with, in_call = self._climb(node, parents)
        if in_with or in_call:
            return  # context-managed, or ownership transferred to a callee
        if statement is None:
            return
        if isinstance(statement, (ast.Return, ast.Yield, ast.YieldFrom)):
            return  # ownership transferred to the caller
        function = self._enclosing_function(statement, parents)
        if isinstance(statement, ast.Expr):
            findings.append(
                self.finding(
                    module, "L301", node,
                    f"`{call_name(node)}(...)` result discarded — the "
                    "resource can never be released",
                )
            )
            return
        if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
            return
        targets = (
            statement.targets
            if isinstance(statement, ast.Assign)
            else [statement.target]
        )
        for target in targets:
            names: list[ast.expr] = (
                list(target.elts) if isinstance(target, ast.Tuple) else [target]
            )
            for name in names:
                if isinstance(name, ast.Attribute):
                    self._check_attribute_store(
                        module, node, name, parents, findings
                    )
                elif isinstance(name, ast.Name):
                    self._check_local(
                        module, node, name.id, function, parents, findings
                    )

    def _check_local(self, module, node, name, function, parents, findings):
        if function is None:
            return  # module-level singletons are a stats/registry concern
        if self._escapes(name, function):
            return
        release = self._release_site(name, function)
        if release is None:
            findings.append(
                self.finding(
                    module, "L301", node,
                    f"`{name}` acquires `{call_name(node)}(...)` but is "
                    "never released — add a close/unlink on every path",
                )
            )
            return
        if not self._in_finally(release, parents):
            findings.append(
                self.finding(
                    module, "L302", node,
                    f"`{name}` is released only on the fall-through path — "
                    "an exception before the release leaks the resource; "
                    "use try/finally or a with block",
                )
            )

    def _check_attribute_store(self, module, node, target, parents, findings):
        attr = target.attr
        owner = self._enclosing_class(target, parents)
        if owner is None:
            return
        for method in owner.body:
            if (
                isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method.name in TEARDOWN_METHODS
            ):
                for inner in ast.walk(method):
                    if isinstance(inner, ast.Attribute) and inner.attr == attr:
                        return
        findings.append(
            self.finding(
                module, "L303", node,
                f"`self.{attr}` holds a `{call_name(node)}(...)` but class "
                f"`{owner.name}` has no teardown method releasing it",
            )
        )

    # -- structure helpers ---------------------------------------------

    def _climb(self, node, parents):
        """The enclosing statement, noting with-items and call-wrapping."""
        in_with = False
        in_call = False
        current = node
        while True:
            parent = parents.get(current)
            if parent is None:
                return None, in_with, in_call
            if isinstance(parent, ast.withitem):
                in_with = True
            if isinstance(parent, ast.Call) and current is not parent.func:
                in_call = True
            if isinstance(parent, ast.stmt):
                return parent, in_with, in_call
            current = parent

    def _enclosing_function(self, node, parents):
        current = parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = parents.get(current)
        return None

    def _enclosing_class(self, node, parents):
        current = parents.get(node)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current
            current = parents.get(current)
        return None

    def _escapes(self, name: str, function) -> bool:
        """True when ``name`` leaves the function's ownership."""
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    for inner in ast.walk(arg):
                        if isinstance(inner, ast.Name) and inner.id == name:
                            return True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None:
                    for inner in ast.walk(value):
                        if isinstance(inner, ast.Name) and inner.id == name:
                            return True
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ):
                    for inner in ast.walk(node.value):
                        if isinstance(inner, ast.Name) and inner.id == name:
                            return True
        return False

    def _release_site(self, name: str, function):
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RELEASE_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return node
        return None

    def _in_finally(self, node, parents) -> bool:
        current = node
        while True:
            parent = parents.get(current)
            if parent is None:
                return False
            if isinstance(parent, ast.Try) and any(
                current is s or self._contains(s, current)
                for s in parent.finalbody
            ):
                return True
            current = parent

    @staticmethod
    def _contains(tree, node) -> bool:
        return any(inner is node for inner in ast.walk(tree))
