"""Seeded differential fuzzing of the engines against ``naive``.

:func:`repro.corpus.generators.random_chase_ruleset` draws recursive
rule sets with existential variables, repeated variables, multi-atom
heads and — on every other seed — rule constants.  Each chase variant
runs on every engine at a tight atom budget, which stops about half the
runs mid-round, and at a loose one that few runs reach; every result
must equal the ``naive`` engine's bit for bit and leave the fresh-null
supply at the same position.  Existential-free draws check the Datalog
closure the same way.
"""

from __future__ import annotations

import pytest

from repro.chase import oblivious_chase, restricted_chase, semi_oblivious_chase
from repro.corpus.generators import (
    FUZZ_SIGNATURE,
    random_chase_ruleset,
    random_instance,
)
from repro.engine import EngineConfig
from repro.logic.terms import FreshSupply
from repro.rewriting.datalog import semi_naive_closure

SEEDS = range(16)
CLOSURE_SEEDS = range(8)

ENGINES = [
    ("delta", "delta"),
    ("parallel_w1", EngineConfig("parallel", workers=1)),
    ("persistent_w2", EngineConfig("persistent", workers=2)),
]

VARIANTS = [
    ("oblivious", oblivious_chase, "max_levels"),
    ("semi_oblivious", semi_oblivious_chase, "max_levels"),
    ("restricted", restricted_chase, "max_rounds"),
]


def _case(seed: int, existential_probability: float = 0.5):
    rules = random_chase_ruleset(
        existential_probability=existential_probability,
        constant_probability=0.25 if seed % 2 else 0.0,
        seed=seed,
    )
    return rules, lambda: random_instance(FUZZ_SIGNATURE, 4, 16, seed=seed)


def _snapshot(result, supply):
    return (
        result.instance.atoms(),
        result.records(),
        result.levels_completed,
        result.terminated,
        {a: result.atom_level(a) for a in result.instance},
        supply.position,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_chase_engines_match_naive(seed):
    rules, make = _case(seed)
    for budget in (len(make()) + 8, 300):
        for vname, chase, steps in VARIANTS:
            runs = {}
            for ename, engine in [("naive", "naive")] + ENGINES:
                supply = FreshSupply()
                result = chase(
                    make(), rules, max_atoms=budget, supply=supply,
                    engine=engine, **{steps: 5},
                )
                runs[ename] = _snapshot(result, supply)
            for ename, _ in ENGINES:
                assert runs[ename] == runs["naive"], (vname, budget, ename)


@pytest.mark.parametrize("seed", CLOSURE_SEEDS)
def test_closure_engines_match_naive(seed):
    rules, make = _case(seed, existential_probability=0.0)
    reference = semi_naive_closure(make(), rules, engine="naive")
    for ename, engine in ENGINES:
        assert semi_naive_closure(make(), rules, engine=engine) == reference
