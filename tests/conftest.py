"""Shared fixtures: corpus entries and small pre-computed chases."""

from __future__ import annotations

import pytest

from repro.chase import oblivious_chase
from repro.corpus import (
    example_1,
    example_1_bdd,
    infinite_path,
    tournament_builder,
)
from repro.logic import Instance
from repro.rules import parse_instance, parse_rules


@pytest.fixture(autouse=True)
def _reset_stats_registry():
    """Zero the metrics registry before each test.

    The matcher/instantiation/transport stats are process-wide
    accumulators, so without this a test asserting on counters would see
    whatever earlier tests (or session-scoped fixtures) happened to
    spend — the cross-run leakage the registry's ``reset_all`` exists to
    prevent.
    """
    from repro.obs import reset_all

    reset_all()


@pytest.fixture(scope="session")
def ex1():
    return example_1()


@pytest.fixture(scope="session")
def ex1_bdd():
    return example_1_bdd()


@pytest.fixture(scope="session")
def builder():
    return tournament_builder()


@pytest.fixture(scope="session")
def path_entry():
    return infinite_path()


@pytest.fixture(scope="session")
def path_chase(path_entry):
    """Chase of the single linear successor rule from E(a, b), 4 levels."""
    return oblivious_chase(
        path_entry.instance, path_entry.rules, max_levels=4
    )


@pytest.fixture(scope="session")
def builder_chase(builder):
    """Chase of the top-seeded tournament builder, 4 levels."""
    return oblivious_chase(Instance(), builder.rules, max_levels=4)


@pytest.fixture(scope="session")
def builder_regal(builder):
    """The regal pipeline output for the tournament builder (Def 27)."""
    from repro.surgery import regal_pipeline

    return regal_pipeline(builder.rules, rewriting_depth=8, strict=False).regal


@pytest.fixture()
def edge_ab():
    return parse_instance("E(a,b)")


@pytest.fixture()
def successor_rules():
    return parse_rules("E(x,y) -> exists z. E(y,z)", name="succ")
