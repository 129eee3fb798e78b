"""Scenario runner and command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import auctionlab
from auctionlab import scenarios
from auctionlab.cli import build_parser, main, spec_from_args
from auctionlab.defenses import DefenseFlags
from auctionlab.errors import UsageError
from auctionlab.groups import validate_group
from auctionlab.scenarios import SCENARIOS, ScenarioSpec, emit_report, run_scenario


def parse(argv):
    return spec_from_args(build_parser().parse_args(argv))


class TestArgumentParsing:
    def test_defaults(self):
        spec = parse(["run", "--scenario", "honest"])
        assert spec.n == 3 and spec.k == 3 and spec.seed == 7
        assert spec.group_name == "small"
        assert not any(spec.flags.as_dict().values())

    def test_bids_and_flags(self):
        spec = parse(["run", "--scenario", "honest", "--n", "2", "--k", "2",
                      "--bids", "1,2", "--ni-proofs", "--authenticate"])
        assert spec.bids == [1, 2]
        assert spec.flags.ni_proofs and spec.flags.authenticate
        assert not spec.flags.noise_product_check

    def test_all_defenses(self):
        spec = parse(["run", "--scenario", "honest", "--all-defenses"])
        assert spec.flags == DefenseFlags.all_on()

    def test_custom_group(self):
        spec = parse(["run", "--scenario", "honest", "--group", "custom",
                      "--p", "2039", "--q", "1019", "--g", "4"])
        assert spec.params.p == 2039

    def test_custom_group_needs_all_three(self):
        with pytest.raises(UsageError):
            parse(["run", "--scenario", "honest", "--group", "custom",
                   "--p", "2039"])

    def test_pqg_require_custom(self):
        with pytest.raises(UsageError):
            parse(["run", "--scenario", "honest", "--p", "23"])

    def test_cell_parsing(self):
        spec = parse(["run", "--scenario", "exceptional-values",
                      "--cell", "1,2"])
        assert spec.cell == (1, 2)
        with pytest.raises(UsageError):
            parse(["run", "--scenario", "exceptional-values", "--cell", "1"])

    def test_bad_bids_rejected(self):
        with pytest.raises(UsageError):
            parse(["run", "--scenario", "honest", "--bids", "1,x,3"])
        spec = parse(["run", "--scenario", "honest", "--bids", "1,2"])
        with pytest.raises(UsageError):
            spec.resolved_bids()

    def test_unknown_flag_names_the_flag(self):
        with pytest.raises(UsageError):
            build_parser().parse_args(["run", "--scenario", "honest",
                                       "--frobnicate"])


class TestScenarioExpectations:
    def test_every_scenario_has_a_runner(self):
        for name in SCENARIOS:
            spec = ScenarioSpec(scenario=name, n=2, k=2, seed=3)
            assert callable(scenarios._RUNNERS[name])

    def test_unknown_scenario(self):
        with pytest.raises(UsageError):
            run_scenario(ScenarioSpec(scenario="nope"))

    def test_honest_meets_expectation(self):
        result = run_scenario(ScenarioSpec(scenario="honest", n=2, k=2,
                                           bids=[1, 2], seed=3))
        assert result.expectation_met
        assert result.report["outcome"]["winner_bidder"] == 2
        assert result.board_json

    def test_attack_blocked_counts_as_met(self):
        """The ni override: attack fails, which is what the flags predict."""
        spec = ScenarioSpec(scenario="full-privacy-attack", n=2, k=2,
                            bids=[1, 2], seed=3,
                            flags=DefenseFlags(ni_proofs=True))
        result = run_scenario(spec)
        assert result.expectation_met
        assert result.report["success"] is False
        assert any("non-interactive" in note for note in result.report["notes"])

    def test_report_schema(self):
        result = run_scenario(ScenarioSpec(scenario="honest", n=2, k=2,
                                           bids=[1, 2], seed=3))
        assert sorted(result.report) == [
            "expectation", "expectation_met", "flags", "group", "k", "marker",
            "n", "notes", "outcome", "scenario", "seed", "success"]
        json.dumps(result.report)        # must be serialisable as-is

    def test_spec_is_not_changed_by_a_run(self, tmp_path):
        """The same spec run three times gives the same report bytes."""
        spec = ScenarioSpec(scenario="full-privacy-attack", n=2, k=2,
                            bids=[1, 2], seed=3,
                            flags=DefenseFlags(ni_proofs=True))
        reports = []
        for index in range(3):
            emit_report(run_scenario(spec), tmp_path / str(index))
            reports.append((tmp_path / str(index) / "report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]
        assert spec.notes == []

    def test_wrong_key_threshold_follows_chance_bound(self):
        """At q=113, n=k=5 a run shows a chance 1 cell with probability up to
        2nk/q = 0.44, so a fixed 95 % no-winner rule fails working code."""
        spec = ScenarioSpec(scenario="wrong-key", n=5, k=5, seed=1,
                            params=validate_group(227, 113, 4))
        result = run_scenario(spec)
        outcome = result.report["outcome"]
        assert outcome["no_winner_runs"] < 19
        assert outcome["no_winner_runs"] >= outcome["no_winner_runs_needed"]
        assert result.expectation_met

    def test_wrong_key_small_bound_demands_nearly_all(self):
        """With mid n=k=2 the bound is 8/1019, so 19 of 20 runs must end
        with no winner."""
        assert scenarios.wrong_key_pass_threshold(20, 8 / 1019) == 19
        result = run_scenario(ScenarioSpec(scenario="wrong-key", n=2, k=2,
                                           seed=3, group_name="mid"))
        assert result.report["outcome"]["no_winner_runs_needed"] == 19
        assert result.expectation_met


class TestExitCodes:
    def test_met_expectation_exits_zero(self, tmp_path, capsys):
        code = main(["run", "--scenario", "honest", "--n", "2", "--k", "2",
                     "--bids", "1,2", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "expectation MET" in out

    def test_unmet_expectation_exits_one(self, tmp_path, monkeypatch, capsys):
        def unmet(spec):
            return scenarios.ScenarioResult(
                report={"scenario": "honest", "seed": 0, "n": 2, "k": 2,
                        "group": {"p": 23, "q": 11, "g": 2},
                        "flags": {}, "expectation": "x", "expectation_met": False,
                        "success": False, "outcome": {}, "notes": []},
                expectation_met=False)
        monkeypatch.setitem(scenarios._RUNNERS, "honest", unmet)
        code = main(["run", "--scenario", "honest", "--out", str(tmp_path)])
        assert code == 1
        assert "NOT MET" in capsys.readouterr().out

    def test_usage_error_exits_two(self, capsys):
        assert main(["run", "--scenario", "nope"]) == 2
        assert main(["run", "--scenario", "honest", "--bids", "1,2,3,4"]) == 2
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err

    def test_unwritable_out_dir_exits_two(self, capsys):
        code = main(["run", "--scenario", "recovery-bench", "--n", "2",
                     "--k", "2", "--out", "/dev/null/x"])
        assert code == 2
        assert "IoError" in capsys.readouterr().err

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out


class TestReports:
    def test_files_written(self, tmp_path):
        code = main(["run", "--scenario", "honest", "--n", "2", "--k", "2",
                     "--bids", "1,2", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["scenario"] == "honest"
        assert report["expectation_met"] is True
        transcript = json.loads((tmp_path / "transcript.json").read_text())
        assert transcript and all("payload" in post for post in transcript)

    def test_identical_seeds_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["run", "--scenario", "full-privacy-attack", "--n", "2",
                  "--k", "2", "--bids", "1,2", "--seed", "3",
                  "--out", str(out)])
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "transcript.json").read_bytes() == (b / "transcript.json").read_bytes()

    def test_no_wall_clock_in_reports(self, tmp_path):
        main(["run", "--scenario", "recovery-bench", "--n", "5", "--k", "5",
              "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert "elapsed" not in json.dumps(report)

    def test_bench_report_contents(self, tmp_path):
        main(["run", "--scenario", "recovery-bench", "--n", "5", "--k", "5",
              "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["outcome"]["round_trip_exact"] is True
        assert report["outcome"]["additions"] <= report["outcome"]["budget"]


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        # The child imports the same package this test imported, whether it
        # came from PYTHONPATH or from pytest's own pythonpath setting.
        src = str(Path(auctionlab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "auctionlab.cli", "run", "--scenario",
             "honest", "--n", "2", "--k", "2", "--bids", "1,2", "--seed", "3",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "expectation MET" in proc.stdout
