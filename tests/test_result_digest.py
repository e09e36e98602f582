"""``tools/result_digest.py``: the cross-commit chase, rewriting,
closure and ``answer()`` digest."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "result_digest.py"
_SPEC = importlib.util.spec_from_file_location("result_digest", TOOL)
result_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(result_digest)

#: The bdd corpus, one growing tournament, the tournament's atom-budget
#: stop and Example 1: about 1.5 s of chases per run, level-budget stops,
#: an atom-budget stop and fixpoints alike.
SMALL = [
    name
    for name, _, _, steps, _ in result_digest.cases()
    if steps == 5 or name in ("growing_tournament_1", "example1")
]
#: Every rewriting case: about 0.6 s per run.
REWRITINGS = [name for name, *_ in result_digest.rewriting_cases()]
#: Every closure case, inline and on the pool: about 0.5 s per run.
CLOSURES = [name for name, *_ in result_digest.closure_cases()]
#: Every ``answer()`` request: about 0.4 s per run.
ANSWERS = [name for name, *_ in result_digest.answer_cases()]


def _digest(seed: int) -> str:
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(seed),
        PYTHONPATH=str(REPO / "src"),
    )
    return subprocess.run(
        [sys.executable, str(TOOL), *SMALL, *REWRITINGS, *CLOSURES, *ANSWERS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


def test_digest_does_not_depend_on_the_hash_seed():
    first = _digest(1)
    assert first == _digest(2)
    lines = [line.split() for line in first.splitlines()]
    assert [name for name, _ in lines] == [
        *result_digest.VARIANTS, "rewriting", "closure", "answer"
    ]
    assert all(len(sha) == 64 for _, sha in lines)


def test_named_cases_select_the_lines_of_their_table(capsys):
    assert result_digest.main(["rewrite_tc_size_drop"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["rewriting"]
    assert result_digest.main(["datalog_chain_3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(result_digest.VARIANTS)
    assert result_digest.main(["closure_two_heads_path_12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["closure"]
    assert result_digest.main(["answer_tc_c5_c2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["answer"]


def test_printed_lines_hash_to_their_table_digest(capsys):
    # ``--lines`` prints what each table hashes, one line per hashed line
    # after the table's name and a tab, then the table's digest line.
    named = [
        "datalog_chain_3", "rewrite_tc_size_drop",
        "closure_two_heads_path_12", "answer_tc_c5_c2",
    ]
    assert result_digest.main(["--lines", *named]) == 0
    printed = capsys.readouterr().out.splitlines()
    hashed: dict[str, list[str]] = {}
    digests: dict[str, str] = {}
    for line in printed:
        table, tab, text = line.partition("\t")
        if tab:
            assert table not in digests  # a table's lines precede its digest
            hashed.setdefault(table, []).append(text)
        else:
            table, sha = line.split()
            digests[table] = sha
    assert list(digests) == [
        *result_digest.VARIANTS, "rewriting", "closure", "answer"
    ]
    for table, sha in digests.items():
        assert hashed[table][0].startswith("case ")
        text = "".join(line + "\n" for line in hashed[table])
        assert hashlib.sha256(text.encode()).hexdigest() == sha, table
    # The flag moves no digest.
    assert result_digest.main(named) == 0
    plain = capsys.readouterr().out.splitlines()
    assert plain == [f"{table} {sha}" for table, sha in digests.items()]


def test_closure_lines_cover_the_closure_rounds_and_counts():
    from repro.obs.trace import RunTrace
    from repro.rewriting.datalog import semi_naive_closure
    from repro.rules.parser import parse_instance, parse_rules

    trace = RunTrace()
    closure = semi_naive_closure(
        parse_instance("E(a,b), E(b,c), E(c,d)"),
        parse_rules(result_digest.TC_RULE),
        trace=trace,
    )
    lines = list(result_digest.closure_lines(closure, trace, (3, 4)))
    assert lines[0] == "closure " + result_digest._atoms(closure)
    assert len(closure) == 7  # six E atoms and top
    assert lines[1] == "terminated True"
    # Two rounds add E(a,c), E(b,d), then E(a,d); a third finds nothing.
    # ``triggers`` is left out.
    assert lines[2:5] == [
        "round 1 applied 2 new 2",
        "round 2 applied 1 new 1",
        "round 3 applied 0 new 0",
    ]
    assert lines[5:] == ["counts 3 4"]
    without = list(result_digest.closure_lines(closure, trace, None))
    assert without == lines[:-1]


def test_rewriting_lines_cover_disjuncts_rounds_and_counts():
    from repro.obs.trace import RunTrace
    from repro.rewriting.rewriter import rewrite
    from repro.rules.parser import parse_query, parse_rules

    trace = RunTrace()
    result = rewrite(
        parse_query("E(x,y)", answers=("x", "y")),
        parse_rules(result_digest.TC_RULE),
        max_depth=2,
        trace=trace,
    )
    lines = list(result_digest.rewriting_lines(result, trace, (3, 4)))
    assert [line.split()[0] for line in lines] == (
        ["disjunct"] * 3 + ["complete"] + ["round"] * 2 + ["counts"]
    )
    assert lines[0] == "disjunct " + str(next(iter(result.ucq)))
    assert lines[3] == "complete False depth 2 generated 4"
    # Round records without their wall-clock phases.
    assert '"plan": "expand"' in lines[4] and "phases" not in lines[4]
    assert lines[-1] == "counts 3 4"


def test_answer_cases_cover_the_request_kinds():
    found = result_digest.answer_cases()
    assert len(found) == len(result_digest.REWRITE_DECISIONS) + 7
    strategies = [options.get("strategy", "auto") for *_, options in found]
    assert strategies.count("chase") == 1
    assert "answer_tc_c16_c16" in [name for name, *_ in found]
    enumerations = [name for name, *_, bindings, _ in found if not bindings]
    assert "answer_tc_edges" in enumerations
    assert "answer_tc_two_hop" in enumerations


def test_answer_lines_cover_fields_legs_and_counters():
    from repro.rules.parser import parse_instance, parse_query, parse_rules
    from repro.serving import answer

    rules = parse_rules(result_digest.TC_RULE)
    path = parse_instance("E(a,b), E(b,c), E(c,d)")
    edge = parse_query("E(x,y)", answers=("x", "y"))
    kinds = [
        "entailed", "tuples", "evidence", "provenance", "chase",
        "rewriting", "serving", "searches",
    ]
    # Enumeration on the chase leg: tuples, a chase and a rewriting.
    result = answer(path, rules, edge, max_rewrite_depth=2)
    lines = list(result_digest.answer_lines(result))
    assert [line.split()[0] for line in lines] == kinds
    assert lines[0] == "entailed True verdict exact strategy chase"
    assert lines[1].startswith("tuples Constant:a Constant:b | ")
    assert lines[1].count("|") == 5  # six E pairs of the closure
    assert lines[4].startswith("chase levels ")
    assert lines[5] == "rewriting complete False depth 2 disjuncts 3"
    assert '"requests": 1' in lines[6]
    assert lines[7] == "searches " + str(
        result.telemetry["registry"]["matcher"]["searches"]
    )
    # A decision on the rewriting alone runs no chase.
    decided = answer(
        path, rules, parse_query("E(x,x)"), strategy="rewrite",
        max_rewrite_depth=2,
    )
    lines = list(result_digest.answer_lines(decided))
    assert [line.split()[0] for line in lines] == kinds
    assert lines[1] == "tuples none"
    assert lines[4] == "chase none"


def test_subsumption_lines_cover_minimization_cores_and_verdicts():
    from repro.queries.ucq import UCQ
    from repro.rules.parser import parse_query

    ucq = UCQ([
        parse_query("E(x,y)"),
        parse_query("E(x,y), E(y,z)"),
        parse_query("E(x,y), E(u,v)"),
    ])
    lines = list(result_digest.subsumption_lines(ucq))
    assert [line.split()[0] for line in lines] == (
        ["minimized", "counts"]
        + ["core"] * 3
        + ["counts", "subsumes", "counts"]
    )
    # Disjunct order E(u,v), E(x,y) | E(x,y) | the path: the first two
    # map into everything, the path only into itself.
    assert lines[0] == "minimized ? :- E(x, y)"
    assert lines[2] == "core ? :- E(u, v), E(x, y) | ? :- E(x, y)"
    assert lines[6] == "subsumes 111111001"
    assert all(
        int(count) > 0 for line in lines[1::4] for count in line.split()[1:]
    )


def test_minimize_cases_are_rewriting_cases():
    minimize = [
        name for name, *_, flag in result_digest.rewriting_cases() if flag
    ]
    assert minimize == [
        "rewrite_minimize_tc_depth_6",
        "rewrite_minimize_tc_two_hop",
        "rewrite_minimize_guarded_triangle",
    ]


def test_lines_cover_records_timestamps_levels_and_counts():
    from repro.chase import oblivious_chase
    from repro.rules.parser import parse_instance, parse_rules

    rules = parse_rules("E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)")
    result = oblivious_chase(parse_instance("E(a,b)"), rules, max_levels=2)
    lines = list(result_digest.result_lines(result, (3, 4, 5)))
    kinds = {line.split()[0] for line in lines}
    assert kinds == {
        "instance", "record", "timestamp", "level", "levels",
        "applications", "counts",
    }
    records = [line for line in lines if line.startswith("record")]
    assert len(records) == len(result.records())
    assert "Null:_n0" in records[0]  # the created null
    assert lines[-1] == "counts 3 4 5"
    assert lines[-2] == "applications 3"
    assert lines[-3] == "levels 2 terminated False"


def test_repeated_head_prints_no_record_but_is_counted():
    from repro.chase import oblivious_chase
    from repro.rules.parser import parse_instance, parse_rules

    # Both triggers of E(x,y) -> F(x) on E(a,b), E(a,c) ground F(a): the
    # first application adds it, the second adds nothing.
    result = oblivious_chase(
        parse_instance("E(a,b), E(a,c)"),
        parse_rules("E(x,y) -> F(x)"),
        max_levels=2,
    )
    lines = list(result_digest.result_lines(result, (0, 0, 0)))
    records = [line for line in lines if line.startswith("record")]
    assert len(records) == 1
    assert records[0].endswith("| F/1(Constant:a)")
    assert "applications 2" in lines


def test_budget_cases_stop_over_their_atom_budget():
    # A ``_budget`` case must stop mid-round in every variant, or the
    # digest pins no budget-stop accounting.
    budget = [case for case in result_digest.cases() if "_budget" in case[0]]
    assert [name for name, *_ in budget] == [
        "growing_tournament_3_budget", "tc_path_30_budget",
    ]
    for name, rules, instance, steps, max_atoms in budget:
        for variant, chase in result_digest.VARIANTS.items():
            result = chase(instance, rules, steps, max_atoms)
            assert len(result.instance) > max_atoms, (name, variant)
            assert not result.terminated, (name, variant)
            assert result.levels_completed < steps, (name, variant)


def test_unknown_case_is_an_error(capsys):
    with pytest.raises(SystemExit):
        result_digest.main(["no_such_case"])
    err = capsys.readouterr().err
    assert "unknown case(s): no_such_case" in err
    assert "tc_path_80" in err
    assert "rewrite_ucq_tc" in err
    assert "closure_tc_path_60" in err
    assert "answer_tc_c16_c16" in err
