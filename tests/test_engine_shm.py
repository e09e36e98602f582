"""Shared-memory transport: segment lifecycle, staleness, pool wiring.

Covers :mod:`repro.engine.shm` directly (publish/collect/reuse cycles,
generation tokens, teardown leaving ``/dev/shm`` clean) and the
:class:`~repro.engine.workers.WorkerPool` integration (payloads above
the threshold leave the pipes, broken-pool teardown reaps segments,
resize keeps the symbol tables warm).  Everything here needs working
shared memory, so the whole module skips on constrained runners — the
pipe-only transport those fall back to is exercised everywhere else.
"""

from __future__ import annotations

import pytest

from repro.engine import TRANSPORT_STATS, WorkerPool
from repro.engine.shm import (
    SegmentPool,
    SegmentReader,
    SegmentRef,
    active_segments,
    maybe_publish,
    resolve,
    shm_available,
)
from repro.errors import ChaseError
from repro.logic.atoms import atom
from repro.logic.instances import Instance
from repro.rules.parser import parse_rules

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this runner"
)


@pytest.fixture()
def pool():
    pool = SegmentPool(threshold=64)
    yield pool
    pool.close()
    assert active_segments() == frozenset()


# ----------------------------------------------------------------------
# SegmentPool / SegmentReader lifecycle
# ----------------------------------------------------------------------


class TestSegmentLifecycle:
    def test_publish_read_roundtrip(self, pool):
        data = bytes(range(256)) * 8
        ref = pool.publish(data)
        assert isinstance(ref, SegmentRef)
        assert ref.length == len(data)
        reader = SegmentReader()
        try:
            assert reader.read(ref) == data
        finally:
            reader.close()

    def test_collect_reuses_segment_with_generation_bump(self, pool):
        first = pool.publish(b"x" * 100)
        pool.collect()
        second = pool.publish(b"y" * 100)
        assert second.name == first.name
        assert second.generation == first.generation + 1
        assert pool.segments_created == 1
        assert pool.publishes == 2

    def test_pending_segments_are_not_reused(self, pool):
        first = pool.publish(b"x" * 100)
        second = pool.publish(b"y" * 100)
        # No collect between the publishes: both payloads must be live
        # at once, so they land in distinct segments.
        assert second.name != first.name
        reader = SegmentReader()
        try:
            assert reader.read(first) == b"x" * 100
            assert reader.read(second) == b"y" * 100
        finally:
            reader.close()

    def test_stale_ref_raises_loudly(self, pool):
        stale = pool.publish(b"a" * 100)
        pool.collect()
        pool.publish(b"b" * 100)  # recycles the segment, bumps generation
        reader = SegmentReader()
        try:
            with pytest.raises(ChaseError, match="stale shm ref"):
                reader.read(stale)
        finally:
            reader.close()

    def test_vanished_segment_raises(self):
        pool = SegmentPool(threshold=64)
        ref = pool.publish(b"z" * 100)
        pool.close()
        reader = SegmentReader()
        try:
            with pytest.raises(ChaseError, match="vanished"):
                reader.read(ref)
        finally:
            reader.close()

    def test_close_unlinks_pending_and_free(self):
        pool = SegmentPool(threshold=64)
        pool.publish(b"p" * 100)  # pending
        pool.publish(b"q" * 5000)  # pending, second segment
        pool.collect()
        pool.publish(b"r" * 100)  # one back in flight
        assert len(active_segments()) == 2
        pool.close()
        assert active_segments() == frozenset()
        pool.close()  # idempotent
        with pytest.raises(ChaseError, match="closed"):
            pool.publish(b"s" * 100)

    def test_best_fit_reuse_prefers_smallest_segment(self, pool):
        small = pool.publish(b"s" * 100)
        large = pool.publish(b"l" * 60_000)
        pool.collect()
        # A small payload must land back in the small segment, not
        # squat in the big one and force a fresh allocation later.
        again = pool.publish(b"t" * 100)
        assert again.name == small.name
        big_again = pool.publish(b"u" * 60_000)
        assert big_again.name == large.name
        assert pool.segments_created == 2

    def test_maybe_publish_threshold_routing(self, pool):
        small = maybe_publish(pool, b"tiny")
        assert small == b"tiny"  # below threshold: raw bytes
        big = maybe_publish(pool, b"x" * 64)
        assert isinstance(big, SegmentRef)
        assert maybe_publish(None, b"x" * 64) == b"x" * 64  # shm off

    def test_resolve_is_inverse_of_maybe_publish(self, pool):
        reader = SegmentReader()
        try:
            for payload in (b"tiny", b"x" * 500):
                shipped = maybe_publish(pool, payload)
                assert resolve(reader, shipped) == payload
        finally:
            reader.close()

    def test_resolve_ref_without_reader_raises(self, pool):
        ref = pool.publish(b"x" * 100)
        with pytest.raises(ChaseError, match="without a reader"):
            resolve(None, ref)

    def test_reader_attach_cache_survives_reuse(self, pool):
        reader = SegmentReader()
        try:
            for round_no in range(5):
                ref = pool.publish(bytes([round_no]) * 200)
                assert reader.read(ref) == bytes([round_no]) * 200
                pool.collect()
            # One segment, attached once, read five times.
            assert pool.segments_created == 1
            assert len(reader._attached) == 1
        finally:
            reader.close()


# ----------------------------------------------------------------------
# WorkerPool integration
# ----------------------------------------------------------------------

RULES = tuple(parse_rules("E(x,y), E(y,z) -> E(x,z)"))


def _chain(n: int) -> Instance:
    names = [f"v{i}" for i in range(n + 1)]
    return Instance(atom("E", a, b) for a, b in zip(names, names[1:]))


def _round_images(replies) -> set:
    return {
        image
        for per_rule in replies
        for found in per_rule
        for image in found
    }


class TestWorkerPoolSharedMemory:
    def test_payloads_leave_the_pipe(self):
        instance = _chain(40)
        delta = instance.sorted_atoms()
        TRANSPORT_STATS.reset()
        with WorkerPool(2) as pool:
            plain = pool.run_round("enumerate", RULES, instance, [delta, []])
        pipe_only = TRANSPORT_STATS.snapshot()

        TRANSPORT_STATS.reset()
        with WorkerPool(2, shared_memory=True, shm_threshold=64) as shm_pool:
            shipped = shm_pool.run_round(
                "enumerate", RULES, instance, [delta, []]
            )
            assert shm_pool._segment_pool is not None
        with_shm = TRANSPORT_STATS.snapshot()

        assert _round_images(shipped) == _round_images(plain)
        assert with_shm["shm_bytes"] > 0
        assert with_shm["shm_publishes"] >= 1
        assert with_shm["bytes_sent"] < pipe_only["bytes_sent"]
        # A payload's bytes land on exactly one channel, so shm bytes
        # are NOT double-counted into the pipe totals.
        seed = with_shm["commands"]["seed"]
        assert seed["shm_bytes"] > 0
        assert seed["bytes_sent"] < pipe_only["commands"]["seed"]["bytes_sent"]
        assert active_segments() == frozenset()

    def test_segments_recycled_across_rounds(self):
        instance = _chain(30)
        with WorkerPool(2, shared_memory=True, shm_threshold=64) as pool:
            pool.run_round(
                "enumerate", RULES, instance, [instance.sorted_atoms(), []]
            )
            created_after_seed = pool._segment_pool.segments_created
            for i in range(3):
                extra = atom("E", f"w{i}", f"w{i + 1}")
                instance.add(extra)
                pool.run_round("enumerate", RULES, instance, [[extra], []])
            # Lockstep release: every round's segments were collected
            # after the gather, so steady-state rounds reuse the pool
            # instead of allocating per round.
            assert (
                pool._segment_pool.segments_created
                <= created_after_seed + 1
            )
        assert active_segments() == frozenset()

    def test_small_payloads_stay_on_pipe(self):
        instance = Instance([atom("E", "a", "b")])
        TRANSPORT_STATS.reset()
        with WorkerPool(1, shared_memory=True, shm_threshold=1 << 20) as pool:
            pool.run_round(
                "enumerate", RULES, instance, [instance.sorted_atoms()]
            )
        assert TRANSPORT_STATS.shm_publishes == 0
        assert TRANSPORT_STATS.bytes_sent > 0
        assert active_segments() == frozenset()

    def test_broken_pool_teardown_reaps_segments(self):
        instance = _chain(40)
        pool = WorkerPool(2, shared_memory=True, shm_threshold=64)
        try:
            pool.run_round(
                "enumerate", RULES, instance, [instance.sorted_atoms(), []]
            )
            # Kill a worker mid-run: the next round's gather fails, the
            # pool goes broken with segments pending.
            pool._processes[1].terminate()
            pool._processes[1].join(timeout=5.0)
            extra = atom("E", "x0", "x1")
            instance.add(extra)
            with pytest.raises(ChaseError):
                pool.run_round("enumerate", RULES, instance, [[extra] * 50, []])
            assert pool.broken
        finally:
            pool.close()
        # The broken-pool path closed the segment pool: nothing strands
        # in /dev/shm even though a ref may have been in flight.
        assert active_segments() == frozenset()
