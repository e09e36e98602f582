"""Fixture tests for the resource-lifecycle pass (L301-L303).

Acquires (SharedMemory/WorkerPool/Pipe) must reach a release
on all paths including exception edges; ownership transfer (with blocks,
returns, call arguments, attribute stores into a class with a teardown
method) is respected.
"""

import textwrap

from repro.checks.base import SourceModule
from repro.checks.lifecycle import LifecyclePass

PASS = LifecyclePass()


def run(source, rel="src/repro/engine/example.py"):
    module = SourceModule.from_source(textwrap.dedent(source), rel)
    live, allowed = [], []
    for finding in PASS.run(module):
        (allowed if module.allowed(finding) else live).append(finding)
    return live, allowed


def rules(findings):
    return sorted(f.rule for f in findings)


def test_discarded_acquire_is_flagged():
    live, _ = run(
        """
        from multiprocessing import shared_memory

        def probe():
            shared_memory.SharedMemory(create=True, size=16)
        """
    )
    assert rules(live) == ["L301"]
    assert "discarded" in live[0].message


def test_never_released_local_is_flagged():
    live, _ = run(
        """
        from multiprocessing import shared_memory

        def acquire():
            segment = shared_memory.SharedMemory(create=True, size=16)
            segment.buf[0] = 1
        """
    )
    assert rules(live) == ["L301"]
    assert "never released" in live[0].message


def test_release_outside_finally_is_flagged():
    live, _ = run(
        """
        from multiprocessing import shared_memory

        def acquire():
            segment = shared_memory.SharedMemory(create=True, size=16)
            segment.buf[0] = 1
            segment.close()
            segment.unlink()
        """
    )
    assert rules(live) == ["L302"]


def test_attribute_store_without_teardown_is_flagged():
    live, _ = run(
        """
        class Pool:
            def __init__(self, workers):
                self._pool = WorkerPool(workers)
        """
    )
    assert rules(live) == ["L303"]
    assert "teardown" in live[0].message


def test_try_finally_release_is_clean():
    live, _ = run(
        """
        from multiprocessing import shared_memory

        def acquire():
            segment = shared_memory.SharedMemory(create=True, size=16)
            try:
                segment.buf[0] = 1
            finally:
                segment.close()
                segment.unlink()
        """
    )
    assert live == []


def test_with_block_and_ownership_transfer_are_clean():
    live, _ = run(
        """
        from multiprocessing import shared_memory

        def ctx():
            with shared_memory.SharedMemory(create=True, size=16) as segment:
                segment.buf[0] = 1

        def make_pool(workers):
            pool = WorkerPool(workers)
            return pool

        def register(registry, workers):
            registry.adopt(WorkerPool(workers))
        """
    )
    assert live == []


def test_class_with_teardown_method_is_clean():
    live, _ = run(
        """
        class GoodPool:
            def __init__(self, workers):
                self._pool = WorkerPool(workers)

            def close(self):
                self._pool.shutdown()
        """
    )
    assert live == []


def test_allow_marker_suppresses_justified_leak():
    live, allowed = run(
        """
        from multiprocessing import shared_memory

        def bench_segment():
            # checks: allow[lifecycle] -- benchmark child process exits
            # immediately after; the OS reclaims the mapping.
            segment = shared_memory.SharedMemory(create=True, size=16)
            segment.buf[0] = 1
        """
    )
    assert live == []
    assert rules(allowed) == ["L301"]
