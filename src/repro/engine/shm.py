"""A leftover of the worker pool's removed shared-memory transport.

The engine creates no shared-memory segments: the pool's pipes are its
only channel.  :func:`active_segments` stays only for the repo
benchmark's leak check, which still imports it, and goes with that
import.
"""

from __future__ import annotations


def active_segments() -> frozenset[str]:
    """Names of live shared-memory segments: always empty."""
    return frozenset()
