"""Unit tests for the analysis battery, corpus families and the CLI."""

import json

import pytest

from repro.analysis.report import analyze, analyze_entry
from repro.cli import main
from repro.corpus.examples import example_1_bdd, infinite_path
from repro.corpus.families import (
    branching_tree,
    datalog_grid,
    family_sweep,
    inclusion_chain,
    merge_ladder,
)


class TestFamilies:
    def test_inclusion_chain_scaling(self):
        for length in (1, 2, 4):
            entry = inclusion_chain(length)
            assert len(entry.rules) == length

    def test_branching_tree_head_size(self):
        entry = branching_tree(3)
        rule = entry.rules.rules()[0]
        assert len(rule.head) == 3
        assert len(rule.existential_variables()) == 3

    def test_merge_ladder_entails_loop(self):
        from repro.core.theorem import check_property_p

        entry = merge_ladder(1)
        report = check_property_p(
            entry.rules, max_levels=4, max_atoms=30_000
        )
        assert report.loop_entailed

    def test_datalog_grid_oracle(self):
        from repro.chase.oblivious import oblivious_chase

        entry = datalog_grid(5)
        result = oblivious_chase(entry.instance, entry.rules, max_levels=8)
        assert result.terminated
        assert len(result.instance) == 5 * 6 // 2 + 1

    def test_family_sweep(self):
        entries = family_sweep(inclusion_chain, [1, 2, 3])
        assert [len(e.rules) for e in entries] == [1, 2, 3]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            inclusion_chain(0)
        with pytest.raises(ValueError):
            branching_tree(0)
        with pytest.raises(ValueError):
            merge_ladder(0)


class TestAnalysis:
    def test_analyze_shape(self):
        entry = infinite_path()
        report = analyze(entry.rules, entry.instance, max_levels=3)
        assert report["linear"] is True
        assert report["loop_query_rewritable"] is True
        assert report["loop_level"] is None
        assert report["property_p_consistent"] is True
        assert report["chromatic_number"] == 2

    def test_analyze_loop_entailing(self):
        entry = example_1_bdd()
        report = analyze(entry.rules, entry.instance, max_levels=3)
        assert report["loop_level"] == 2
        assert report["chromatic_number"] is None  # loop: uncolorable

    def test_analyze_entry_ground_truth(self):
        for entry in (infinite_path(), example_1_bdd()):
            report = analyze_entry(entry, max_levels=3)
            assert report["ground_truth_consistent"], entry.name


@pytest.fixture()
def rule_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text(
        "E(x,y) -> exists z. E(y,z)\n"
        "E(x,xp), E(y,yp) -> E(x,yp)\n"
    )
    return str(path)


class TestCLI:
    def test_chase_command(self, rule_file, capsys):
        code = main(
            ["chase", rule_file, "--instance", "E(a,b)", "--levels", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "terminated=False" in out

    def test_chase_list_engines(self, capsys):
        from repro.engine import available_engines

        code = main(["chase", "--list-engines"])
        assert code == 0
        out = capsys.readouterr().out
        # The listing is generated from the registry, so every registered
        # engine appears by name.
        for name in available_engines():
            assert name in out
        assert "mode=" in out

    def test_chase_without_rules_errors(self):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["chase"])
        assert "rule file is required" in str(excinfo.value.code)

    def test_chase_workers_on_sequential_engine_errors(self, rule_file):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["chase", rule_file, "--engine", "delta", "--workers", "2"])
        message = str(excinfo.value.code)
        assert message.startswith("repro chase: ")
        assert "runs sequentially" in message

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["chase", "{missing}"], "No such file"),
            (["chase", "{rules}", "--instance", "E(a,"], "position"),
            (["answer", "{rules}", "E(x"], "position"),
            (["answer", "{broken}", "E(x,y)"], "position"),
            (["rewrite", "{rules}", "E(x,)"], "position"),
            (["classify", "{missing}"], "No such file"),
            (["property-p", "{broken}"], "position"),
            (["analyze", "{rules}", "--instance", "E(a"], "position"),
        ],
        ids=["chase_missing_rules", "chase_instance", "answer_query",
             "answer_rules", "rewrite_query", "classify_missing_rules",
             "property_p_rules", "analyze_instance"],
    )
    def test_input_errors_exit_in_one_line(self, rule_file, tmp_path, argv,
                                           error):
        # An unreadable rule file and a malformed rule, instance or query
        # end the command with one line, not a traceback.
        broken = tmp_path / "broken.txt"
        broken.write_text("E(x,y) -> E(y,\n")
        paths = {
            "missing": str(tmp_path / "missing.txt"),
            "rules": rule_file,
            "broken": str(broken),
        }
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(**paths) for arg in argv])
        message = str(excinfo.value.code)
        assert message.startswith(f"repro {argv[0]}: ")
        assert error in message and "\n" not in message

    def test_chase_help_lists_registry_engines(self, capsys):
        import pytest

        from repro.engine import available_engines

        with pytest.raises(SystemExit) as excinfo:
            main(["chase", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in available_engines():
            assert name in out

    def test_rewrite_command(self, rule_file, capsys):
        code = main(["rewrite", rule_file, "E(x,x)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "complete=True" in out

    def test_classify_command(self, rule_file, capsys):
        code = main(["classify", rule_file])
        assert code == 0
        assert "sticky" in capsys.readouterr().out

    def test_property_p_command(self, rule_file, capsys):
        code = main(
            ["property-p", rule_file, "--instance", "E(a,b)",
             "--levels", "3"]
        )
        assert code == 0
        assert "loop level       : 2" in capsys.readouterr().out

    def test_analyze_json(self, rule_file, capsys):
        code = main(
            ["analyze", rule_file, "--instance", "E(a,b)", "--json",
             "--levels", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["loop_level"] == 2

    def test_rewrite_incomplete_exit_code(self, tmp_path, capsys):
        path = tmp_path / "trans.txt"
        path.write_text("E(x,y), E(y,z) -> E(x,z)\n")
        code = main(
            ["rewrite", str(path), "E(x,y)", "--answers", "x,y",
             "--depth", "3"]
        )
        assert code == 1
