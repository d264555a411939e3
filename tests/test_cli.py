"""Command-line interface: outputs, exit codes, file handling."""

import argparse
import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from advlab import AgreementFunction, cli
from advlab.cli import main
from advlab.protocols import EchoProtocol, default_inputs
from advlab.sim import ProtocolFault, Schedule, enumerate_schedules, run_to_quiescence, trace_to_json_obj


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
def wf3_file(tmp_path):
    path = tmp_path / "wf3.json"
    path.write_text(json.dumps(AgreementFunction.wait_free(3).to_json_obj()))
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
        assert "P={1,2} Q={2} setcon_PQ=0 bound=1" in out

    def test_fair_nonstructured(self, fair_file, capsys):
        assert main(["classify", "--adversary", fair_file, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"superset_closed": False, "symmetric": False, "fair": True}

    def test_resilient_all_three(self, resilient_file, capsys):
        assert main(["classify", "--adversary", resilient_file, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"superset_closed": True, "symmetric": True, "fair": True}


    @pytest.mark.parametrize(
        "obj",
        [
            {"n": True, "live_sets": [[1]]},
            {"n": 2, "live_sets": [[True]]},
            {"n": 2, "live_sets": [[True, 2]]},
        ],
    )
    def test_boolean_n_or_id_exits_2(self, tmp_path, capsys, obj):
        # JSON true is not the integer 1: a file using it is bad input
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(obj))
        assert main(["classify", "--adversary", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integer" in captured.err


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

    def test_file_over_a_directory_exits_2(self, unfair_file, tmp_path, capsys):
        taken = tmp_path / "out" / "unfair.alpha.json"
        taken.mkdir(parents=True)
        assert main(["alpha", "--adversary", unfair_file, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {taken}: ")


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

    def test_bad_inputs_leave_no_out_dir(self, unfair_file, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        argv = ["simulate", "--protocol", "adaptive", "--adversary", unfair_file, "--inputs", "1,x"]
        assert main(argv + ["--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == "error: bad --inputs value '1,x'\n"
        assert not out_dir.exists()

    def test_json_output_is_one_document(self, unfair_file, capsys):
        argv = ["simulate", "--protocol", "adaptive", "--adversary", unfair_file, "--seeds", "3", "--budget", "72"]
        assert main(argv + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["runs"], obj["failed"]) == (3, 0)
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("seed=1 seeds=3 budget=72\n")

    def test_unknown_protocol_exits_2(self, unfair_file):
        assert main(["simulate", "--protocol", "nope", "--adversary", unfair_file]) == 2

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_below_one_exits_2(self, resilient_file, capsys, seeds):
        argv = ["simulate", "--protocol", "adaptive", "--adversary", resilient_file, "--seeds", seeds]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seeds must be at least 1, got {seeds}\n"

    def test_negative_tail_exits_2(self, resilient_file, capsys):
        argv = ["simulate", "--protocol", "adaptive", "--adversary", resilient_file, "--tail", "-5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --tail must not be negative, got -5\n"

    def test_bad_alpha_table_exits_2(self, tmp_path):
        bad = tmp_path / "alpha.json"
        bad.write_text(json.dumps({"n": 2, "table": [0, 1, 1, 0]}))
        assert main(["simulate", "--protocol", "adaptive", "--alpha", str(bad)]) == 2

    @pytest.mark.parametrize(
        "obj", [{"n": 2, "table": [0, True, 1, 2]}, {"n": True, "table": [0, 1]}]
    )
    def test_boolean_alpha_level_or_n_exits_2(self, tmp_path, capsys, obj):
        bad = tmp_path / "alpha.json"
        bad.write_text(json.dumps(obj))
        assert main(["simulate", "--protocol", "adaptive", "--alpha", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integer" in captured.err

    @pytest.mark.parametrize("flag", ["--adversary", "--alpha"])
    def test_schedules_are_generated_as_runs_go(self, resilient_file, tmp_path, monkeypatch, capsys, flag):
        # each seed's schedule is built just before its run, not all up front
        model = resilient_file
        if flag == "--alpha":
            model = str(tmp_path / "wf3.json")
            (tmp_path / "wf3.json").write_text(json.dumps({"n": 3, "table": [0, 1, 1, 2, 1, 2, 2, 3]}))
        calls = []
        for name, tag in (
            ("generate_schedule", "generate"),
            ("generate_admissible_schedule", "generate"),
            ("run_to_quiescence", "run"),
        ):
            def logged(*args, _original=getattr(cli, name), _tag=tag, **kwargs):
                calls.append(_tag)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, logged)
        argv = ["simulate", "--protocol", "adaptive", flag, model, "--seeds", "3", "--budget", "48"]
        assert main(argv) == 0, capsys.readouterr().out
        assert calls == ["generate", "run"] * 3

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

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_universe_below_one_exits_2(self, capsys, n):
        assert main(["enumerate", "--n", n, "--steps", "1"]) == 2
        assert capsys.readouterr().err == f"error: universe size must be in 1..16, got {n}\n"

    @pytest.mark.parametrize(
        "protocol, fn, activations, tail",
        [
            ("adaptive", AgreementFunction.wait_free(3), 114_298, 82_438),
            ("alpha-setcons", AgreementFunction.k_concurrent(3, 2), 58_020, 26_160),
        ],
    )
    def test_activation_counts(self, tmp_path, capsys, protocol, fn, activations, tail):
        # every 3-process schedule with 3 steps each and at most 1 halt, default inputs and tail
        path = tmp_path / "fn.json"
        path.write_text(json.dumps(fn.to_json_obj()))
        argv = ["enumerate", "--n", "3", "--steps", "3", "--halts", "1", "--protocol", protocol]
        assert main(argv + ["--alpha", str(path), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["runs"], obj["failed"], set(obj["violations"].values())) == (3840, 0, {0})
        assert (obj["activations"], obj["tail_activations"]) == (activations, tail)

    @pytest.mark.parametrize(
        "argv, code, exhausted, checked",
        [
            # 28 of the 50 runs end with an undecided correct process when the tail runs out
            (
                ["--n", "2", "--steps", "3", "--halts", "1", "--protocol", "safe-agreement"],
                0,
                28,
                {"validity": 50, "k-agreement": 50, "termination": 22},
            ),
            (
                ["--n", "3", "--steps", "3", "--halts", "1", "--protocol", "adaptive", "--alpha", "WF3"],
                0,
                0,
                {"validity": 3840, "alpha-agreement": 3840, "termination": 3840},
            ),
            # a 5-step tail is too short for any run to finish
            (
                ["--n", "3", "--steps", "3", "--halts", "1", "--protocol", "adaptive", "--alpha", "WF3", "--tail", "5"],
                1,
                3840,
                {"validity": 3840, "alpha-agreement": 3840, "termination": 3840},
            ),
        ],
    )
    def test_tail_exhausted_and_checked_counts(self, tmp_path, capsys, argv, code, exhausted, checked):
        path = tmp_path / "wf3.json"
        path.write_text(json.dumps(AgreementFunction.wait_free(3).to_json_obj()))
        argv = [str(path) if a == "WF3" else a for a in argv]
        assert main(["enumerate"] + argv + ["--format", "json", "--out", str(tmp_path / "w")]) == code
        obj = json.loads(capsys.readouterr().out)
        assert (obj["tail_exhausted"], obj["checked"]) == (exhausted, checked)

    @pytest.mark.parametrize("protocol", [[], ["--protocol", "safe-agreement"]])
    def test_negative_tail_exits_2(self, capsys, protocol):
        assert main(["enumerate", "--n", "2", "--steps", "2", "--tail", "-5"] + protocol) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --tail must not be negative, got -5\n"


class TestModelLoading:
    """simulate and enumerate load --adversary and --alpha through one helper."""

    @pytest.fixture
    def wf2_file(self, tmp_path):
        path = tmp_path / "wf2.json"
        path.write_text(json.dumps({"n": 2, "table": [0, 1, 1, 2]}))
        return str(path)

    def test_enumerate_loads_adversary_beside_alpha(self, wf2_file, tmp_path, capsys):
        argv = ["enumerate", "--n", "2", "--steps", "2", "--protocol", "adaptive", "--alpha", wf2_file]
        assert main(argv + ["--adversary", str(tmp_path / "nonexistent.json")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")
        assert main(argv) == 0

    @pytest.mark.parametrize("protocol", ["safe-agreement", "cons23", "alpha-setcons", "adaptive"])
    def test_simulate_universe_mismatch_exits_2(self, wf2_file, resilient_file, capsys, protocol):
        argv = ["simulate", "--protocol", protocol, "--adversary", resilient_file, "--alpha", wf2_file]
        assert main(argv + ["--seeds", "3"]) == 2
        assert capsys.readouterr().err == "error: universe mismatch: --adversary has n=3, --alpha has n=2\n"

    def test_enumerate_count_only_reads_adversary(self, resilient_file, tmp_path, capsys):
        argv = ["enumerate", "--n", "3", "--steps", "2"]
        assert main(argv + ["--adversary", str(tmp_path / "nonexistent.json")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")
        assert main(argv + ["--adversary", resilient_file]) == 0
        assert capsys.readouterr().out == "schedules=90\n"

    def test_enumerate_count_only_universe_mismatch_exits_2(self, wf2_file, resilient_file, capsys):
        argv = ["enumerate", "--n", "2", "--steps", "2"]
        assert main(argv + ["--adversary", resilient_file]) == 2
        assert capsys.readouterr().err == "error: universe mismatch: --n has n=2, --adversary has n=3\n"
        assert main(argv + ["--alpha", wf2_file]) == 0
        assert capsys.readouterr().out == "schedules=6\n"

    def test_enumerate_universe_mismatch_exits_2(self, resilient_file, capsys):
        argv = ["enumerate", "--n", "2", "--steps", "2", "--protocol", "safe-agreement", "--adversary", resilient_file]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: universe mismatch: --n has n=2, --adversary has n=3\n"


class TestCheckCommand:
    @pytest.fixture
    def failing_trace(self, tmp_path):
        """A trace whose process 2 decides a value nobody proposed."""
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
        return str(path)

    def test_failing_trace_exits_1_with_witness(self, failing_trace, tmp_path):
        out_dir = tmp_path / "w"
        code = main(["check", "--trace", failing_trace, "--out", str(out_dir)])
        assert code == 1
        assert (out_dir / "witnesses.json").exists()

    def test_witness_file_over_a_directory_exits_2(self, failing_trace, tmp_path, capsys):
        taken = tmp_path / "w" / "witnesses.json"
        taken.mkdir(parents=True)
        assert main(["check", "--trace", failing_trace, "--out", str(tmp_path / "w")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {taken}: ")

    @pytest.mark.parametrize("obj", [{"n": 3}, [], {"n": 3, "schedule": []}, {"n": 3, "schedule": {"steps": 5}}])
    def test_malformed_trace_exits_2(self, tmp_path, capsys, obj):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(obj))
        assert main(["check", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad trace file") and "Traceback" not in err

    @pytest.fixture
    def three_process_trace(self, resilient_file, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        argv = ["simulate", "--protocol", "adaptive", "--adversary", resilient_file, "--seed", "2", "--seeds", "1"]
        assert main(argv + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        return str(out_dir / "trace-2.json")

    def test_alpha_of_another_universe_exits_2(self, three_process_trace, tmp_path, capsys):
        # the 2-process table used to raise IndexError here, or pass when the
        # participants fit inside it
        wf2 = tmp_path / "wf2.json"
        wf2.write_text(json.dumps({"n": 2, "table": [0, 1, 1, 2]}))
        assert main(["check", "--trace", three_process_trace, "--alpha", str(wf2)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: universe mismatch: trace {three_process_trace} has n=3, --alpha has n=2\n"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exits_2(self, three_process_trace, capsys, k):
        assert main(["check", "--trace", three_process_trace, "--k", k]) == 2
        assert capsys.readouterr().err == f"error: --k must be at least 1, got {k}\n"

    @pytest.mark.parametrize("among, pid", [("9", 9), ("0,2", 0), ("2,4", 4)])
    def test_among_outside_universe_exits_2(self, three_process_trace, capsys, among, pid):
        assert main(["check", "--trace", three_process_trace, "--among", among]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --among names process {pid} outside 1..3 of trace {three_process_trace}\n"

    def test_matching_arguments_still_pass(self, three_process_trace, tmp_path, capsys):
        wf3 = tmp_path / "wf3.json"
        wf3.write_text(json.dumps({"n": 3, "table": [0, 1, 1, 2, 1, 2, 2, 3]}))
        argv = ["check", "--trace", three_process_trace, "--alpha", str(wf3), "--k", "3", "--among", "1,2,3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "alpha-agreement=pass" in out and "k-agreement=pass" in out

    @pytest.mark.parametrize("edit", ["steps-and-decision", "halted_at", "inputs", "statuses"])
    def test_out_of_range_process_ids_exit_2(self, tmp_path, capsys, edit):
        trace = run_to_quiescence(EchoProtocol(3, default_inputs(3)), Schedule(3, (1, 2, 3, 1, 2, 3)), max_tail=0)
        obj = trace_to_json_obj(trace)
        if edit == "steps-and-decision":
            # process 7 steps, process 9 decides an input value: validity alone would pass
            obj["schedule"]["steps"].append(7)
            obj["decisions"].append({"step": 6, "process": 9, "value": 101})
        elif edit == "halted_at":
            obj["schedule"]["halted_at"]["9"] = -1
        else:
            obj[edit]["9"] = obj[edit]["1"]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(obj))
        assert main(["check", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad trace file") and "outside 1..3" in err

    @pytest.mark.parametrize("what", ["inputs", "statuses", "halted_at"])
    @pytest.mark.parametrize("key", ["01", " 2 ", "+3", "0_1"])
    def test_non_canonical_id_keys_exit_2(self, tmp_path, capsys, what, key):
        # every process halts after deciding, so each map has an entry for
        # each id; int() used to read the renamed key as the same id, and
        # "01" placed after "1" silently replaced process 1's entry
        sched = Schedule(3, (1, 2, 3, 1, 2, 3), {1: 3, 2: 4, 3: 5})
        obj = trace_to_json_obj(run_to_quiescence(EchoProtocol(3, default_inputs(3)), sched, max_tail=0))
        holder = obj["schedule"] if what == "halted_at" else obj
        pid = str(int(key))
        holder[what] = {key if p == pid else p: v for p, v in holder[what].items()}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(obj))
        assert main(["check", "--trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = f"{what} key {json.dumps(key)} is not a process id"
        assert captured.err == f"error: bad trace file {path}: ValueError: {reason}\n"

    @pytest.mark.parametrize(
        "what, field, value",
        [
            ("event process", ("events", 0, "process"), "2"),
            ("decision process", ("decisions", 0, "process"), 1.5),
            ("schedule step", ("schedule", "steps", 0), True),
            ("event step", ("events", 0, "step"), 0.0),
            ("decision step", ("decisions", 0, "step"), "24"),
            ("halt index", ("schedule", "halted_at", "3"), 71.0),
            ("correct_set entry", ("schedule", "correct_set", 0), "1"),
            ("n", ("n",), 3.0),
        ],
        ids=["event-process", "decision-process", "step", "event-step", "decision-step", "halt", "correct-set", "n"],
    )
    def test_non_integer_ids_exit_2(self, three_process_trace, tmp_path, capsys, what, field, value):
        # "2" used to crash check_alpha_agreement with a TypeError (exit 1), 1.5
        # went through int() to a termination violation, and true ran as process 1
        wf3 = tmp_path / "wf3.json"
        wf3.write_text(json.dumps({"n": 3, "table": [0, 1, 1, 2, 1, 2, 2, 3]}))
        with open(three_process_trace) as f:
            obj = json.load(f)
        assert obj["schedule"]["halted_at"] == {"3": 71} and obj["decisions"][0]["step"] == 24
        holder = obj
        for key in field[:-1]:
            holder = holder[key]
        holder[field[-1]] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        assert main(["check", "--trace", str(path), "--alpha", str(wf3), "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = f"{what} {json.dumps(value)} is not an integer"
        assert captured.err == f"error: bad trace file {path}: ValueError: {reason}\n"


class TestCampaignEngine:
    class SplitCons23(EchoProtocol):
        """Claims the cons23 policy but decides each process's own input."""

        name = "cons23"

    @pytest.mark.parametrize(
        "protocol, expected",
        [
            ("safe-agreement", {"validity", "k-agreement", "termination"}),
            ("alpha-setcons", {"validity", "k-agreement", "termination"}),
            ("adaptive", {"validity", "alpha-agreement", "termination"}),
            ("cons23", {"validity", "k-agreement", "termination"}),
        ],
    )
    def test_policy_table_properties(self, unfair_file, capsys, protocol, expected):
        argv = ["simulate", "--protocol", protocol, "--adversary", unfair_file, "--seeds", "8", "--budget", "72"]
        assert main(argv + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj["violations"]) == expected
        assert obj["failed"] == 0 and set(obj["violations"].values()) == {0}

    def test_policy_breach_is_recorded(self):
        schedule = Schedule(3, (2, 3, 1, 2, 3), {1: 2})
        result = cli.run_campaign(lambda: self.SplitCons23(3, default_inputs(3)), [("run-a", schedule)], None, 10)
        assert result.runs == 1
        assert result.violations == {"validity": 0, "k-agreement": 1, "termination": 0}
        assert result.failures == [
            {
                "run": "run-a",
                "property": "k-agreement",
                "witness": {"step": 4, "process": 3, "distinct": 2, "k": 1},
                "steps": [2, 3, 1, 2, 3],
                "halted_at": {"1": 2},
            }
        ]

    def test_checked_covers_violated_for_every_property(self):
        # every protocol, and one that breaks its policy, on every 3-process
        # schedule with 2 steps each and at most one halt, with tails from
        # none to ample: a property is reported exactly when it was checked,
        # on at least as many runs as it failed
        fn = AgreementFunction.wait_free(3)
        makers = [lambda name=name: cli.POLICIES[name].make(3, default_inputs(3), fn) for name in cli.POLICIES]
        makers.append(lambda: self.SplitCons23(3, default_inputs(3)))
        violated = set()
        for make in makers:
            for max_tail in (0, 3, 120):
                result = cli.run_campaign(make, enumerate(enumerate_schedules(3, 2, 1)), fn, max_tail)
                assert result.checked.keys() == result.violations.keys()
                assert result.checked["validity"] == result.runs
                for prop, count in result.violations.items():
                    assert result.checked[prop] >= count
                    if count:
                        violated.add(prop)
        assert {"k-agreement", "termination"} <= violated

    def test_policy_breach_exits_1_with_witnesses(self, resilient_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "Cons23", self.SplitCons23)
        out_dir = tmp_path / "w"
        argv = ["simulate", "--protocol", "cons23", "--adversary", resilient_file, "--seeds", "4", "--budget", "48"]
        assert main(argv + ["--out", str(out_dir)]) == 1
        assert "witness_file=" in capsys.readouterr().out
        witnesses = json.loads((out_dir / "witnesses.json").read_text())
        assert {w["property"] for w in witnesses} == {"k-agreement"}
        assert {w["run"] for w in witnesses} == {"1", "2", "3", "4"}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSharding:
    """A campaign split across processes gives what one process gives."""

    class StepFreeBeyondOne(EchoProtocol):
        """Process 1 echoes; any other process decides before its first write."""

        name = "cons23"

        def program(self, pid):
            if pid == 1:
                return (yield from super().program(pid))
            return pid

    @staticmethod
    def enumerated(n, steps, halts):
        return lambda k, shards: itertools.islice(enumerate(enumerate_schedules(n, steps, halts)), k, None, shards)

    @pytest.mark.parametrize(
        "protocol, size, max_tail",
        [("adaptive", (3, 3, 1), 120), ("adaptive", (3, 3, 1), 5), ("safe-agreement", (2, 3, 1), 1)],
        ids=["adaptive", "adaptive-tail-5", "safe-agreement-tail-1"],
    )
    def test_entry_point_merges_to_the_sequential_result(self, protocol, size, max_tail):
        n = size[0]
        fn = AgreementFunction.wait_free(n)
        make = lambda: cli.POLICIES[protocol].make(n, default_inputs(n), fn)
        results = []
        for shards in (1, 2, 3):
            results.append(cli._sharded_campaign(make, self.enumerated(*size), fn, max_tail, None, shards))
            assert_no_child_left()
        assert results[0] == results[1] == results[2]
        assert results[0] == cli.run_campaign(make, enumerate(enumerate_schedules(*size)), fn, max_tail)
        assert bool(results[0].failures) == (max_tail < 120)

    @staticmethod
    def outputs(monkeypatch, capsys, argv, out_root):
        """(exit code, stdout, files written under --out) per forced shard count 1, 2 and 3."""
        got = []
        for shards in (1, 2, 3):
            monkeypatch.setattr(cli, "_shard_count", lambda runs, shards=shards: shards)
            out = out_root / f"shards-{shards}"
            code = main(argv + ["--out", str(out)])
            assert_no_child_left()
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
            got.append((code, capsys.readouterr().out.replace(str(out), "OUT"), files))
        return got

    @pytest.mark.parametrize(
        "argv, code, failed",
        [
            (["--n", "3", "--steps", "3", "--halts", "1", "--protocol", "adaptive", "--alpha", "WF3"], 0, 0),
            (["--n", "3", "--steps", "3", "--halts", "1", "--protocol", "adaptive", "--alpha", "WF3", "--tail", "5"], 1, 3840),
            # too short a tail for 20 of the runs to terminate
            (["--n", "2", "--steps", "3", "--halts", "1", "--protocol", "safe-agreement", "--tail", "1"], 1, 20),
        ],
    )
    def test_enumerate_reports_are_byte_identical(self, wf3_file, tmp_path, monkeypatch, capsys, argv, code, failed):
        argv = ["enumerate"] + [wf3_file if a == "WF3" else a for a in argv] + ["--format", "json"]
        got = self.outputs(monkeypatch, capsys, argv, tmp_path)
        assert got[0] == got[1] == got[2]
        assert (got[0][0], json.loads(got[0][1])["failed"]) == (code, failed)
        assert sorted(got[0][2]) == (["witnesses.json"] if failed else [])

    def test_simulate_traces_are_byte_identical(self, wf3_file, tmp_path, monkeypatch, capsys):
        # above the sharding threshold, with a trace file per run
        seeds = 2 * cli.MIN_SHARD_RUNS
        argv = ["simulate", "--protocol", "adaptive", "--alpha", wf3_file, "--seeds", str(seeds), "--budget", "24"]
        for fmt in ("text", "json"):
            got = self.outputs(monkeypatch, capsys, argv + ["--format", fmt], tmp_path / fmt)
            assert got[0] == got[1] == got[2]
            assert got[0][0] == 0 and len(got[0][2]) == seeds

    def test_shard_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        runs = [1, cli.MIN_SHARD_RUNS - 1, 2 * cli.MIN_SHARD_RUNS, 3 * cli.MIN_SHARD_RUNS + 1, 10**6]
        assert [cli._shard_count(r) for r in runs] == [1, 1, 2, 3, 4]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli._shard_count(10**6) == 2

    def test_one_shard_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert cli._shard_count(10**6) == 2
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert cli._shard_count(10**6) == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_without_fork_the_campaign_runs_in_process(self, wf3_file, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert cli._shard_count(10**6) == 1
        argv = ["enumerate", "--n", "3", "--steps", "3", "--halts", "1", "--protocol", "adaptive", "--alpha", wf3_file]
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["runs"] == 3840

    @pytest.mark.parametrize(
        "errors, expected",
        [
            # each pair falls in two shards, the earlier run in the parent's with 2 and in a worker's with 3
            ({2: 3, 3: 2}, (ProtocolFault, "process 3 decided without taking a step")),
            # an error while generating a schedule belongs to that schedule's run
            ({4: 3, 5: "generate"}, (ProtocolFault, "process 3 decided without taking a step")),
            ({5: "generate", 7: 2}, (ValueError, "no schedule for run 5")),
        ],
    )
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_the_earliest_error_surfaces(self, shards, errors, expected):
        # run r with errors[r] = p starts with process p, which decides before its first
        # write; with errors[r] = "generate", building run r's schedule fails
        def stream(k, shards):
            for run in range(k, 12, shards):
                if errors.get(run) == "generate":
                    raise ValueError(f"no schedule for run {run}")
                first = errors.get(run)
                steps = (first, 1, 1) if first else (1, 1)
                yield run, Schedule(3, steps, {p: -1 for p in (2, 3) if p != first})

        make = lambda: self.StepFreeBeyondOne(3, default_inputs(3))
        with pytest.raises(expected[0], match=f"^{expected[1]}$"):
            cli._sharded_campaign(make, stream, None, 10, None, shards)
        assert_no_child_left()

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_trace_write_error_exits_2(self, wf3_file, tmp_path, monkeypatch, capsys, shards):
        out = tmp_path / "out"
        (out / "trace-7.json").mkdir(parents=True)
        monkeypatch.setattr(cli, "_shard_count", lambda runs: shards)
        argv = ["simulate", "--protocol", "adaptive", "--alpha", wf3_file, "--seeds", "12", "--budget", "24"]
        assert main(argv + ["--out", str(out)]) == 2
        assert_no_child_left()
        assert capsys.readouterr().err.startswith(f"error: cannot write {out / 'trace-7.json'}:")

    def test_workers_do_not_repeat_the_text_report(self, wf3_file, tmp_path):
        # simulate prints its seed= line before the campaign; on a block-buffered stdout
        # a worker that flushed its copy of the buffer would print it twice
        argv = ["simulate", "--protocol", "adaptive", "--alpha", wf3_file, "--seeds", "12", "--budget", "24"]
        reports = []
        for shards in (1, 3):
            with open(tmp_path / f"report-{shards}.txt", "wb+") as out:
                proc = run_in_interpreter(tmp_path, argv, out, shards=shards)
                out.seek(0)
                reports.append(out.read())
            assert (proc.returncode, proc.stderr) == (0, b"")
        assert reports[0] == reports[1]
        assert reports[0].startswith(b"seed=1 seeds=12 budget=24\nprotocol=adaptive\nruns=12\n")


def run_in_interpreter(cwd, argv, stdout, shards=None, unbuffered=False):
    """advlab's main in a fresh interpreter with stdout on the given file.

    stdout is block-buffered unless unbuffered; with shards, every campaign
    is split into that many shards.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    force = "" if shards is None else f"cli._shard_count = lambda runs: {shards}; "
    code = f"import sys; from advlab import cli; {force}sys.exit(cli.main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, cwd=cwd, timeout=60
    )


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

    def test_per_simulator_counts_match_the_records(self, fair_file, tmp_path, capsys):
        out_dir = tmp_path / "p"
        argv = ["bgg", "--adversary", fair_file, "--gate", "adaptive", "--halt", "2:30"]
        assert main(argv + ["--format", "json", "--out", str(out_dir)]) == 0
        obj = json.loads(capsys.readouterr().out)
        records = json.loads((out_dir / "bgg-history.json").read_text())["records"]
        expected = {}
        for sid in range(1, obj["simulators"] + 1):
            mine = [r for r in records if r["simulator"] == sid]
            expected[str(sid)] = {
                "rounds": len(mine),
                "gated": sum(r["gated"] for r in mine),
                "reselections": sum(r["reselected"] for r in mine),
                "fallbacks": sum(r["fallback"] for r in mine),
                "blocked": sum(r["result"] == "BLOCKED" for r in mine),
            }
        assert obj["per_simulator"] == expected
        assert expected["2"]["rounds"] == 30
        assert sum(c["rounds"] for c in expected.values()) == obj["rounds_recorded"] == len(records)
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        for sid, counts in expected.items():
            assert f"simulator={sid} " + " ".join(f"{k}={v}" for k, v in counts.items()) in lines

    def test_per_simulator_counts_pinned(self, tmp_path, capsys):
        path = tmp_path / "singletons.json"
        path.write_text(json.dumps({"n": 3, "live_sets": [[1], [1, 2, 3], [2], [3]]}))
        assert main(["bgg", "--adversary", str(path), "--gate", "adaptive", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["per_simulator"] == {
            "1": {"rounds": 600, "gated": 600, "reselections": 2, "fallbacks": 0, "blocked": 200},
            "2": {"rounds": 600, "gated": 600, "reselections": 1, "fallbacks": 0, "blocked": 0},
        }

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

    @pytest.mark.parametrize("budget", ["0", "-7"])
    def test_budget_below_one_exits_2(self, fair_file, tmp_path, capsys, budget):
        out_dir = tmp_path / "h"
        assert main(["bgg", "--adversary", fair_file, "--budget", budget, "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the bgg budget must be at least 1 round, got {budget}\n"
        assert not (out_dir / "bgg-history.json").exists()

    def test_verbatim_gate_deviation_witness(self, tmp_path, capsys):
        # ROADMAP item 5: under the verbatim gate, halting simulator 2 after
        # 206 rounds leaves simulator 1 gated out, so nothing is stepped late
        path = tmp_path / "singletons.json"
        path.write_text(json.dumps({"n": 3, "live_sets": [[1], [1, 2, 3], [2], [3]]}))
        out_dir = tmp_path / "w"
        argv = ["bgg", "--adversary", str(path), "--halt", "2:206", "--format", "json", "--out", str(out_dir)]
        assert main(argv) == 1
        obj = json.loads(capsys.readouterr().out)
        assert (obj["gate_mode"], obj["budget"]) == ("verbatim", 1200)
        assert [v["pass"] for v in obj["properties"]] == [True, True, True, False]
        assert [v["property"] for v in obj["properties"]] == [
            "participation-stability", "window-stability", "selection-feasibility", "liveset-coverage"
        ]
        witness = {"stepped": 0, "top": 1, "top_steps": []}
        assert json.loads((out_dir / "witnesses.json").read_text()) == [
            {"property": "liveset-coverage", "witness": witness}
        ]
        assert main(argv[:-2] + ["--gate", "adaptive"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [v["pass"] for v in obj["properties"]] == [True, True, True, True]


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

    def test_env_budget_below_one_exits_2(self, fair_file, capsys, monkeypatch):
        monkeypatch.setenv("ADVLAB_BUDGET", "0")
        assert main(["bgg", "--adversary", fair_file]) == 2
        assert capsys.readouterr().err.startswith("error: the bgg budget must be at least 1 round")

    @pytest.mark.parametrize(
        "argv",
        [
            ["alpha"],
            ["simulate", "--protocol", "adaptive", "--seeds", "2", "--budget", "24"],
            ["bgg", "--gate", "adaptive", "--budget", "10"],
        ],
    )
    def test_out_naming_a_file_exits_2(self, fair_file, tmp_path, capsys, argv):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert main(argv + ["--adversary", fair_file, "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot use {taken} as the output directory")
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_keeps_the_exit_code(self, tmp_path, unbuffered):
        # a reader that leaves before the report is written: no traceback, exit 0 after a clean run
        read, write = os.pipe()
        os.close(read)
        argv = ["enumerate", "--n", "2", "--steps", "3", "--halts", "1", "--protocol", "safe-agreement", "--format", "json"]
        try:
            proc = run_in_interpreter(tmp_path, argv, write, unbuffered=unbuffered)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_parser_is_built_once(self, fair_file, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        assert main(["setcon", "--adversary", fair_file]) == 0
        assert main(["enumerate", "--n", "2", "--steps", "2"]) == 0
        assert capsys.readouterr().out.endswith("schedules=6\n")

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
