"""Hash-sharded routing of per-round deltas for parallel enumeration.

A :class:`ShardedIndex` partitions each round's delta across ``W``
shards by stable atom hash.  The parallel round scheduler hands every
worker the *delta view* of its shards (the shard's slice of the atoms
added since the last round) as its pivot-candidate source; the union of
the views is the round's delta, so the merged enumeration is exactly the
sequential one.  Chase deltas are disjoint by construction, so atoms
route straight into the per-round views and the index keeps only
per-shard counters.  Shard assignment is hash-based and therefore
arbitrary — no result may depend on it, which the cross-engine
equivalence tests enforce by varying worker/shard counts.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance


def atom_weight(atom: Atom) -> int:
    """Wire-transport cost of one atom, in ids.

    Exactly what the atom occupies in a packed sync/pivot buffer of the
    interned-term transport (:mod:`repro.engine.wire`): one predicate id
    plus one term id per argument.  Each id costs 1–5 varint bytes on
    the wire (1 for the dense common case), so a shard's weight is
    proportional, up to varint width and the one-time symbol-table
    entries, to the bytes its atoms cost to ship.  Round traces report
    it per shard (``shard_weights``).
    """
    return 1 + len(atom.args)


class ShardedIndex:
    """Routes a stream of atoms into hash shards, one batch at a time.

    :meth:`ingest` trusts the caller to never route an atom twice (true
    of ``delta_since`` streams) and returns the batch's per-shard views;
    the index itself keeps only per-shard atom counts.
    """

    __slots__ = ("_counts", "_ingested")

    def __init__(self, shard_count: int):
        if shard_count < 1:
            raise ChaseError(
                f"a sharded index needs at least 1 shard, got {shard_count}"
            )
        self._counts = [0] * shard_count
        self._ingested = 0

    @property
    def shard_count(self) -> int:
        return len(self._counts)

    def __len__(self) -> int:
        """Number of atoms ingested (equals the sum of the shard sizes)."""
        return self._ingested

    def shard_of(self, atom: Atom) -> int:
        """The shard an atom routes to (stable within a process)."""
        # checks: allow[D102] -- routing only decides *which worker* computes;
        # outputs re-merge by canonical trigger index, so results are
        # bit-identical across routings (pinned by the equivalence matrix).
        return hash(atom) % len(self._counts)

    def ingest(self, atoms: Iterable[Atom]) -> tuple[Instance, ...]:
        """Route ``atoms`` into their shards; return this batch's views.

        The views are small positional-indexed instances, one per shard,
        holding exactly the freshly routed atoms — the per-shard delta the
        scheduler hands each enumeration worker.  Empty views are returned
        too (callers skip them) so view index == shard index.
        """
        counts = self._counts
        count = len(counts)
        views = tuple(Instance(add_top=False) for _ in range(count))
        ingested = 0
        for atom in atoms:
            # checks: allow[D102] -- same routing-only bucketing as shard_of.
            index = hash(atom) % count
            if views[index].add(atom):
                counts[index] += 1
                ingested += 1
        self._ingested += ingested
        return views

    def sizes(self) -> tuple[int, ...]:
        """Per-shard atom counts (load-balance diagnostics)."""
        return tuple(self._counts)
