"""CLI tests (argument parsing and table output)."""

from __future__ import annotations

import pytest

from repro.cli import main
from test_queries import HOSTILE_ROWS, KEY_ROWS, names_field


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "99.99901%" in out  # the N=5 safety cell (paper: 99.9990%)
        assert "Table 1" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "99.970%" in out  # N=3, p=1%
        assert "Table 2" in out


class TestSingleAnalyses:
    def test_raft(self, capsys):
        assert main(["raft", "--n", "3", "--p", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "99.970%" in out

    def test_raft_flexible_quorums(self, capsys):
        assert main(["raft", "--n", "5", "--p", "0.01", "--q-per", "2", "--q-vc", "4"]) == 0
        out = capsys.readouterr().out
        assert "100%" in out  # structurally safe pair

    def test_pbft(self, capsys):
        assert main(["pbft", "--n", "4", "--p", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "99.941%" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["raft", "--n", "5", "--p", "1.5"],
            ["sweep", "--n", "5", "--p", "0.1,2"],
        ],
        ids=["raft", "sweep"],
    )
    def test_out_of_range_flag_value_is_an_error_line(self, argv):
        # Used to end in an InvalidProbabilityError traceback.
        with pytest.raises(SystemExit, match="^error: p_crash must be in"):
            main(argv)


class TestPlan:
    def test_feasible_plan(self, capsys):
        assert main(["plan", "--target-nines", "3.4"]) == 0
        out = capsys.readouterr().out
        assert "spot" in out

    def test_infeasible_plan(self, capsys):
        assert main(["plan", "--target-nines", "12", "--max-size", "3"]) == 1
        out = capsys.readouterr().out
        assert "no plan" in out


class TestSensitivity:
    def test_ranks_reliable_nodes_on_mixed_fleet(self, capsys):
        assert main(["sensitivity", "--n", "7", "--p", "0.08,0.08,0.08,0.08,0.01,0.01,0.01"]) == 0
        out = capsys.readouterr().out
        first_row = [line for line in out.splitlines() if line.startswith("1 ")][0]
        assert " 4 " in first_row  # a reliable node tops the ranking

    def test_single_probability_broadcast(self, capsys):
        assert main(["sensitivity", "--n", "3", "--p", "0.05"]) == 0
        out = capsys.readouterr().out
        assert out.count("0.0500") == 3

    def test_wrong_probability_count(self):
        with pytest.raises(SystemExit):
            main(["sensitivity", "--n", "3", "--p", "0.1,0.2"])


class TestCommittee:
    def test_finds_small_committee(self, capsys):
        assert main(["committee", "--n", "100", "--p", "0.01", "--target-nines", "4"]) == 0
        out = capsys.readouterr().out
        assert "smallest committee: 5" in out

    def test_unreachable_target(self, capsys):
        assert main(["committee", "--n", "5", "--p", "0.3", "--target-nines", "9"]) == 1
        assert "no committee" in capsys.readouterr().out


class TestScenarios:
    """``scenarios`` is an alias of ``query``: same parser, same output."""

    def test_scenario_file_end_to_end(self, capsys, tmp_path):
        path = tmp_path / "deployments.json"
        path.write_text(
            """
            {"scenarios": [
              {"spec": {"protocol": "raft", "n": 3},
               "fleet": {"uniform": {"n": 3, "p_fail": 0.01}},
               "label": "headline"},
              {"spec": {"protocol": "pbft", "n": 4},
               "fleet": {"uniform": {"n": 4, "p_fail": 0.01,
                                     "byzantine_fraction": 1.0}}}
            ]}
            """
        )
        from repro.engine import default_engine

        default_engine().cache_clear()
        assert main(["scenarios", str(path)]) == 0
        out = capsys.readouterr().out
        assert "headline" in out
        assert "99.970%" in out  # the paper's 3-node Raft cell
        assert "99.941%" in out  # the paper's 4-node PBFT cell
        assert "reliability:counting/" in out  # provenance column
        # Same subcommand under two names: byte-identical output.
        default_engine().cache_clear()
        assert main(["query", str(path)]) == 0
        assert capsys.readouterr().out == out

    def test_grid_shorthand_and_json_output(self, capsys, tmp_path):
        import json

        path = tmp_path / "grid.json"
        path.write_text(
            '{"grid": {"protocols": ["raft"], "sizes": [3, 5],'
            ' "probabilities": [0.01, 0.05]}}'
        )
        assert main(["scenarios", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert all(row["kind"] == row["backend"] == "reliability" for row in payload)
        assert all(row["answer"]["method"] == "counting" for row in payload)
        assert [row["answer"]["n"] for row in payload] == [3, 3, 5, 5]
        assert payload[0]["answer"]["protocol"] == "Raft"
        assert 0.0 < payload[0]["answer"]["safe_and_live"] <= payload[0]["answer"]["live"]

    def test_missing_file(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["scenarios", "/nonexistent/scenarios.json"])

    def test_invalid_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"scenarios": [{"spec": {"protocol": "fnord"}}]}')
        with pytest.raises(SystemExit, match="unknown protocol 'fnord'"):
            main(["scenarios", str(path)])


class TestMTTF:
    def test_prints_metrics(self, capsys):
        assert main(["mttf", "--n", "5", "--afr", "0.08", "--mttr-hours", "24"]) == 0
        out = capsys.readouterr().out
        assert "MTTDL" in out
        assert "availability" in out

    def test_json_output_matches_builders(self, capsys):
        import json

        from repro.faults.afr import afr_to_hourly_rate
        from repro.markov.builders import ClusterMarkovModel

        assert main(
            ["mttf", "--n", "5", "--afr", "0.08", "--mttr-hours", "24", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        model = ClusterMarkovModel(5, afr_to_hourly_rate(0.08), 1.0 / 24.0)
        assert payload["quorum_size"] == 3
        assert payload["mttf_hours"] == model.mttf_liveness(3)
        assert payload["mttdl_hours"] == model.mttdl(3)
        assert payload["availability"] == model.steady_state_availability(3)

    def test_table_identical_to_legacy_rendering(self, capsys):
        """The engine-backed mttf table renders the builders' numbers."""
        from repro.faults.afr import afr_to_hourly_rate
        from repro.markov.builders import ClusterMarkovModel

        assert main(["mttf", "--n", "7", "--afr", "0.04", "--mttr-hours", "12"]) == 0
        out = capsys.readouterr().out
        model = ClusterMarkovModel(7, afr_to_hourly_rate(0.04), 1.0 / 12.0)
        assert f"{model.mttf_liveness(4) / 8766.0:.3e}" in out
        assert f"{model.steady_state_availability(4):.10f}" in out


class TestQueryFile:
    MIXED = """
    {"queries": [
      {"spec": {"protocol": "raft", "n": 3},
       "fleet": {"uniform": {"n": 3, "p_fail": 0.01}},
       "label": "headline"},
      {"kind": "availability",
       "scenario": {"spec": {"protocol": "raft", "n": 5},
                    "fleet": {"uniform": {"n": 5, "p_fail": 0.01}},
                    "label": "steady"},
       "failure_rate_per_hour": 1e-5, "repair_rate_per_hour": 0.04,
       "window_hours": 720},
      {"kind": "mttf",
       "scenario": {"spec": {"protocol": "raft", "n": 5},
                    "fleet": {"uniform": {"n": 5, "p_fail": 0.01}},
                    "label": "horizonless"},
       "failure_rate_per_hour": 1e-5, "repair_rate_per_hour": 0.04},
      {"kind": "simulation",
       "scenario": {"spec": {"protocol": "raft", "n": 3},
                    "fleet": {"uniform": {"n": 3, "p_fail": 0.2}},
                    "seed": 42, "label": "campaign"},
       "replicas": 4, "duration": 6.0, "commands": 2}
    ]}
    """

    def test_mixed_query_file_end_to_end(self, capsys, tmp_path):
        path = tmp_path / "questions.json"
        path.write_text(self.MIXED)
        assert main(["query", str(path)]) == 0
        out = capsys.readouterr().out
        for label in ("headline", "steady", "horizonless", "campaign"):
            assert label in out
        assert "99.970%" in out  # the reliability row keeps the paper cell
        assert "availability" in out
        assert "MTTF" in out
        assert "runs" in out

    def test_mixed_query_file_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "questions.json"
        path.write_text(self.MIXED)
        assert main(["query", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["kind"] for row in payload] == [
            "reliability",
            "availability",
            "mttf",
            "simulation",
        ]
        assert payload[1]["answer"]["availability"] > 0.999
        assert payload[3]["answer"]["replicas"] == 4

    def test_scenario_file_is_a_valid_query_file(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            '{"grid": {"protocols": ["raft"], "sizes": [3], "probabilities": [0.01]}}'
        )
        assert main(["query", str(path)]) == 0
        assert "reliability" in capsys.readouterr().out

    def test_query_file_with_fault_plan(self, capsys, tmp_path):
        # A simulation row embedding a fault plan: the Theorem 3.1 PBFT
        # attack plus a healed partition, straight from JSON.
        import json

        path = tmp_path / "attack.json"
        path.write_text(
            """
            {"queries": [
              {"kind": "simulation",
               "scenario": {"spec": {"protocol": "pbft", "n": 4},
                            "fleet": {"uniform": {"n": 4, "p_fail": 0.0}},
                            "seed": 13, "label": "thm31"},
               "replicas": 2, "duration": 8.0, "commands": 1,
               "faults": {"sample_faults": false,
                          "adversary": {"nodes": [0, 2]},
                          "events": [{"kind": "partition",
                                      "groups": [[0, 1], [2, 3]],
                                      "at": 6.0, "heal_at": 7.0}]}}
            ]}
            """
        )
        assert main(["query", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["kind"] == "simulation"
        # the embedded adversary splits the cluster in every replica
        assert payload[0]["answer"]["safety_violations"] == 2

    def test_query_file_bad_fault_plan_rejected(self, tmp_path):
        path = tmp_path / "bad-plan.json"
        path.write_text(
            '{"queries": [{"kind": "simulation",'
            ' "scenario": {"spec": {"protocol": "raft", "n": 3},'
            ' "fleet": {"uniform": {"n": 3, "p_fail": 0.0}}},'
            ' "faults": {"events": [{"kind": "fnord"}]}}]}'
        )
        with pytest.raises(SystemExit, match="invalid query file"):
            main(["query", str(path)])

    @pytest.mark.parametrize(
        "text",
        [
            "[[1]]",
            '{"queries":[[]]}',
            '[{"kind":"simulation","scenario":5}]',
            '[{"spec": {"protocol": "raft", "n": 3}, "fleet": {"nodes": [5]}}]',
            '[{"kind": "simulation", "replicas": 1e400,'
            ' "scenario": {"spec": {"protocol": "raft", "n": 3},'
            ' "fleet": {"uniform": {"n": 3, "p_fail": 0.0}}}}]',
            '[{"spec": {"protocol": "raft", "n": 3}, "trials": 1e400,'
            ' "fleet": {"uniform": {"n": 3, "p_fail": 0.0}}}]',
        ],
        ids=["row-is-a-list", "queries-row-is-a-list", "scenario-is-a-number",
             "node-is-a-number", "replicas-inf", "trials-inf"],
    )
    def test_query_file_hostile_row_shapes_rejected(self, tmp_path, text):
        # Each of these used to print an AttributeError / OverflowError
        # traceback instead of the one-line refusal.
        path = tmp_path / "hostile.json"
        path.write_text(text)
        with pytest.raises(SystemExit, match="invalid query file"):
            main(["query", str(path)])

    @pytest.mark.parametrize("trials", ["true", "2.5"])
    def test_query_file_truncatable_trial_budget_rejected(self, tmp_path, trials):
        # int() used to read these as 1 and 2 trials and print an answer.
        path = tmp_path / "budget.json"
        path.write_text(
            '[{"spec": {"protocol": "raft", "n": 3}, "method": "monte-carlo",'
            ' "seed": 1, "fleet": {"uniform": {"n": 3, "p_fail": 0.1}},'
            f' "trials": {trials}}}]'
        )
        with pytest.raises(SystemExit, match="trials must be a finite integer"):
            main(["query", str(path)])

    def test_query_file_hostile_field_is_a_one_line_error(self, tmp_path):
        # A crash event on node 1e400 used to end in an OverflowError
        # traceback; the codec refuses it by name, on one line.
        from test_queries import HOSTILE_ROWS

        (_, field, text), = [row for row in HOSTILE_ROWS if row[0] == "crash-node-1e400"]
        path = tmp_path / "hostile.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as refused:
            main(["query", str(path)])
        message = str(refused.value.code)
        assert message.startswith("invalid query file") and "\n" not in message
        assert f"{field} must be a finite integer" in message

    @staticmethod
    def _one_line_refusal(tmp_path, text: str) -> str:
        path = tmp_path / "hostile.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as refused:
            main(["query", str(path)])
        message = str(refused.value.code)
        assert message.startswith("invalid query file") and "\n" not in message
        return message

    @pytest.mark.parametrize(
        "field, text", [row[1:] for row in HOSTILE_ROWS], ids=[row[0] for row in HOSTILE_ROWS]
    )
    def test_every_hostile_field_is_a_one_line_error_naming_it(self, tmp_path, field, text):
        message = self._one_line_refusal(tmp_path, text)
        assert names_field(message, field), message

    @pytest.mark.parametrize(
        "key, text", [row[1:] for row in KEY_ROWS], ids=[row[0] for row in KEY_ROWS]
    )
    def test_every_hostile_key_is_a_one_line_error_naming_it(self, tmp_path, key, text):
        assert repr(key) in self._one_line_refusal(tmp_path, text)

    def test_query_file_row_refused_at_run_time_is_an_error_line(self, tmp_path):
        # The row parses; the importance estimator refuses it when it runs
        # (Byzantine mass under the default crash failure kind), which used
        # to end in a traceback.
        path = tmp_path / "importance.json"
        path.write_text(
            '[{"spec": {"protocol": "pbft", "n": 7}, "method": "importance",'
            ' "fleet": {"uniform": {"n": 7, "p_fail": 0.05, "byzantine_fraction": 1.0}},'
            ' "trials": 2000, "seed": 1}]'
        )
        with pytest.raises(SystemExit, match="^error: .*failure_kind"):
            main(["query", str(path)])

    def test_query_jobs_deterministic(self, capsys, tmp_path):
        import json

        path = tmp_path / "campaign.json"
        path.write_text(
            '{"queries": [{"kind": "simulation",'
            ' "scenario": {"spec": {"protocol": "raft", "n": 3},'
            ' "fleet": {"uniform": {"n": 3, "p_fail": 0.2}}, "seed": 7},'
            ' "replicas": 4, "duration": 6.0, "commands": 2}]}'
        )

        def counts(raw):
            rows = json.loads(raw)
            return [
                (r["answer"]["safety_violations"], r["answer"]["liveness_violations"])
                for r in rows
            ]

        assert main(["query", str(path), "--json"]) == 0
        serial = counts(capsys.readouterr().out)
        assert main(["query", str(path), "--json", "--jobs", "2"]) == 0
        assert counts(capsys.readouterr().out) == serial

    def test_missing_query_file(self):
        with pytest.raises(SystemExit):
            main(["query", "/nonexistent/questions.json"])

    def test_invalid_query_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"queries": [{"kind": "fnord"}]}')
        with pytest.raises(SystemExit):
            main(["query", str(path)])


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["fnord"])


class TestJobsFlag:
    """--jobs fans work over workers without changing any printed number."""

    def test_sweep_jobs_output_identical_to_serial(self, capsys):
        assert main(["sweep", "--n", "9", "--p", "0.01,0.02,0.05"]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", "--n", "9", "--p", "0.01,0.02,0.05", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_raft_jobs_output_identical_to_serial(self, capsys):
        assert main(["raft", "--n", "5", "--p", "0.01"]) == 0
        serial = capsys.readouterr().out
        assert main(["raft", "--n", "5", "--p", "0.01", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_scenarios_jobs_deterministic(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            '{"grid": {"protocols": ["raft"], "sizes": [3, 5],'
            ' "probabilities": [0.01], "method": "monte-carlo",'
            ' "trials": 20000, "seed": 7}}'
        )
        from repro.engine import default_engine

        def run(jobs):
            # A cold memo per run, so every --jobs value really computes:
            # whole rows (values *and* shard-plan provenance) must agree.
            default_engine().cache_clear()
            assert main(["scenarios", str(path), "--json", "--jobs", jobs]) == 0
            return capsys.readouterr().out

        first = run("1")
        assert '"cache_hit": false' in first and '"shards": 5' in first
        assert run("2") == first
        assert run("3") == first
