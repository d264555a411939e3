"""Command-line interface: outputs, exit codes, file handling."""

import json

import pytest

from advlab.cli import main


@pytest.fixture
def unfair_file(tmp_path):
    path = tmp_path / "unfair.json"
    path.write_text(json.dumps({"n": 3, "live_sets": [[1], [1, 2, 3], [2, 3]]}))
    return str(path)


@pytest.fixture
def fair_file(tmp_path):
    path = tmp_path / "fair.json"
    path.write_text(
        json.dumps({"n": 3, "live_sets": [[1], [1, 2, 3], [1, 3], [2], [2, 3], [3]]})
    )
    return str(path)


@pytest.fixture
def resilient_file(tmp_path):
    path = tmp_path / "resilient.json"
    path.write_text(json.dumps({"n": 3, "live_sets": [[1, 2], [1, 2, 3], [1, 3], [2, 3]]}))
    return str(path)


class TestSetcon:
    def test_pinned_value(self, unfair_file, capsys):
        assert main(["setcon", "--adversary", unfair_file]) == 0
        out = capsys.readouterr().out
        assert "setcon=2" in out

    def test_empty_family(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 3, "live_sets": []}))
        assert main(["setcon", "--adversary", str(path)]) == 0
        assert "setcon=0" in capsys.readouterr().out

    def test_wait_free_reports_formula(self, tmp_path, capsys):
        path = tmp_path / "wf.json"
        from advlab import adversary_to_json_obj, all_nonempty

        path.write_text(json.dumps(adversary_to_json_obj(all_nonempty(3))))
        assert main(["setcon", "--adversary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "setcon=3" in out
        assert "csize=" in out  # superset-closed
        assert "distinct_sizes=3" in out  # symmetric

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "live_sets": [[2, 1]]}))
        assert main(["setcon", "--adversary", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["setcon", "--adversary", str(tmp_path / "nope.json")]) == 2


class TestClassify:
    def test_unfair_with_witness(self, unfair_file, capsys):
        assert main(["classify", "--adversary", unfair_file]) == 0
        out = capsys.readouterr().out
        assert "fair=false" in out
        assert "P={1,2,3} Q={2,3}" in out

    def test_fair_nonstructured(self, fair_file, capsys):
        assert main(["classify", "--adversary", fair_file, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"superset_closed": False, "symmetric": False, "fair": True}

    def test_resilient_all_three(self, resilient_file, capsys):
        assert main(["classify", "--adversary", resilient_file, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"superset_closed": True, "symmetric": True, "fair": True}


class TestAlpha:
    def test_pinned_rows_and_file(self, unfair_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["alpha", "--adversary", unfair_file, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "alpha({2})=0" in out
        assert "alpha({1,2,3})=2" in out
        assert "alpha({1,2})=1" in out
        written = json.loads((out_dir / "unfair.alpha.json").read_text())
        assert written["table"] == [0, 1, 0, 1, 0, 1, 1, 2]


class TestCompare:
    def test_ge_verdict(self, unfair_file, tmp_path, capsys):
        out_dir = tmp_path / "o"
        main(["alpha", "--adversary", unfair_file, "--out", str(out_dir)])
        capsys.readouterr()
        a = out_dir / "unfair.alpha.json"
        b = tmp_path / "b.json"
        from advlab import AgreementFunction

        b.write_text(json.dumps(AgreementFunction.t_resilient(3, 1).to_json_obj()))
        assert main(["compare", str(a), str(b)]) == 0
        assert "comparison=GE" in capsys.readouterr().out


class TestSimulate:
    def test_adaptive_campaign_passes(self, unfair_file, capsys):
        code = main(
            [
                "simulate",
                "--protocol",
                "adaptive",
                "--adversary",
                unfair_file,
                "--seeds",
                "40",
                "--budget",
                "72",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "runs=40" in out

    def test_json_output_is_one_document(self, unfair_file, capsys):
        argv = ["simulate", "--protocol", "adaptive", "--adversary", unfair_file, "--seeds", "3", "--budget", "72"]
        assert main(argv + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["runs"], obj["failed"]) == (3, 0)
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("seed=1 seeds=3 budget=72\n")

    def test_unknown_protocol_exits_2(self, unfair_file):
        assert main(["simulate", "--protocol", "nope", "--adversary", unfair_file]) == 2

    def test_bad_alpha_table_exits_2(self, tmp_path):
        bad = tmp_path / "alpha.json"
        bad.write_text(json.dumps({"n": 2, "table": [0, 1, 1, 0]}))
        assert main(["simulate", "--protocol", "adaptive", "--alpha", str(bad)]) == 2

    def test_trace_files_written_and_checkable(self, unfair_file, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        code = main(
            [
                "simulate",
                "--protocol",
                "cons23",
                "--adversary",
                unfair_file,
                "--seeds",
                "5",
                "--budget",
                "48",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        trace = out_dir / "trace-1.json"
        assert trace.exists()
        assert main(["check", "--trace", str(trace), "--k", "1", "--among", "2,3"]) == 0

    def test_safe_agreement_seeded(self, fair_file, capsys):
        code = main(
            [
                "simulate",
                "--protocol",
                "safe-agreement",
                "--adversary",
                fair_file,
                "--seeds",
                "30",
                "--budget",
                "48",
            ]
        )
        assert code == 0, capsys.readouterr().out


class TestEnumerate:
    def test_count_only(self, capsys):
        assert main(["enumerate", "--n", "2", "--steps", "2", "--halts", "0"]) == 0
        assert "schedules=6" in capsys.readouterr().out

    def test_exhaustive_safe_agreement(self, capsys):
        code = main(
            [
                "enumerate",
                "--n",
                "2",
                "--steps",
                "3",
                "--halts",
                "1",
                "--protocol",
                "safe-agreement",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "violations[validity]=0" in out

    def test_bound_exceeded_exits_2(self):
        assert main(["enumerate", "--n", "3", "--steps", "5"]) == 2


class TestCheckCommand:
    def test_failing_trace_exits_1_with_witness(self, tmp_path, capsys):
        # craft a trace with a foreign decision value
        from advlab.processes import ProcessSet
        from advlab.sim import Decision, Event, RunTrace, Schedule, trace_to_json_obj

        schedule = Schedule(2, (1, 2))
        trace = RunTrace(
            schedule,
            {1: 5, 2: 7},
            [Event(0, 1, "update", {"val": 5}), Event(1, 2, "update", {"val": 7})],
            [Decision(1, 2, 999)],
            ProcessSet.full(2),
            {1: "running", 2: "decided"},
        )
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_to_json_obj(trace)))
        out_dir = tmp_path / "w"
        code = main(["check", "--trace", str(path), "--out", str(out_dir)])
        assert code == 1
        assert (out_dir / "witnesses.json").exists()

    @pytest.mark.parametrize("obj", [{"n": 3}, [], {"n": 3, "schedule": []}, {"n": 3, "schedule": {"steps": 5}}])
    def test_malformed_trace_exits_2(self, tmp_path, capsys, obj):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(obj))
        assert main(["check", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad trace file") and "Traceback" not in err


class TestBgg:
    def test_fair_adversary_properties_pass(self, fair_file, capsys):
        code = main(["bgg", "--adversary", fair_file, "--gate", "adaptive"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "window-stability=pass" in out
        assert "liveset-coverage=pass" in out

    def test_unfair_not_applicable(self, unfair_file, capsys):
        code = main(["bgg", "--adversary", unfair_file, "--gate", "adaptive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "not-applicable" in out

    def test_low_budget_inconclusive(self, fair_file, capsys):
        code = main(["bgg", "--adversary", fair_file, "--budget", "60", "--gate", "adaptive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "inconclusive" in out
        assert "warnings=1" in out

    def test_halt_flag_and_history_file(self, fair_file, tmp_path, capsys):
        out_dir = tmp_path / "h"
        code = main(
            [
                "bgg",
                "--adversary",
                fair_file,
                "--gate",
                "adaptive",
                "--halt",
                "2:30",
                "--out",
                str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        history = json.loads((out_dir / "bgg-history.json").read_text())
        assert history["gate_mode"] == "adaptive"
        assert history["halt_pattern"] == {"2": 30}

    @pytest.mark.parametrize("halt", ["9:10", "2:10", "0:10", "1:-1", "1:2:3"])
    def test_bad_halt_exits_2(self, tmp_path, capsys, halt):
        path = tmp_path / "one-sim.json"
        path.write_text(json.dumps({"n": 3, "live_sets": [[1, 2, 3]]}))
        assert main(["bgg", "--adversary", str(path), "--halt", halt]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert main(["bgg", "--adversary", str(path), "--halt", "1:10"]) == 0

    def test_default_gate_is_verbatim(self, fair_file, capsys):
        code = main(["bgg", "--adversary", fair_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "gate_mode=verbatim" in out


class TestCommonMachinery:
    def test_env_budget_override(self, fair_file, capsys, monkeypatch):
        monkeypatch.setenv("ADVLAB_BUDGET", "60")
        code = main(["bgg", "--adversary", fair_file, "--gate", "adaptive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "budget=60" in out
        assert "inconclusive" in out  # 60 is below the warm-up threshold

    def test_bad_env_budget_exits_2(self, fair_file, monkeypatch):
        monkeypatch.setenv("ADVLAB_BUDGET", "soon")
        assert main(["bgg", "--adversary", fair_file]) == 2

    def test_reports_are_deterministic(self, unfair_file, capsys):
        argv = [
            "simulate",
            "--protocol",
            "adaptive",
            "--adversary",
            unfair_file,
            "--seeds",
            "10",
            "--budget",
            "72",
            "--format",
            "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
