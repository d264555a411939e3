"""Command-line interface: outputs, exit codes, file handling."""

import argparse
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import (
    Adversary,
    AgreementFunction,
    ProcessSet,
    adversary_from_json_obj,
    adversary_to_json_obj,
    agreement_function,
    all_nonempty,
    cli,
    fairness_counterexample,
    replay_witness,
    restrict,
    setcon_witness,
    t_resilient_adversary,
)
from advlab.adversary import restrict_intersecting
from advlab.bgg import power_within
from advlab import sim
from advlab.cli import main
from advlab.protocols import default_inputs
from advlab.sim import (
    ProtocolFault,
    Schedule,
    canonical_json,
    enumerate_schedules,
    generate_schedule,
    run_to_quiescence,
    trace_to_json_obj,
)

from oracles import EchoProtocol, all_families, cyclic_edge_closure


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


def assert_unrecognized(argv, flag, capsys):
    """argparse refuses flag in argv: exit 2 before any subcommand runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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

    def test_counterexample_numbers_match_the_region_tables(self, tmp_path, capsys):
        # the reported numbers, read off the fairness criterion, against the
        # two table lookups they replace, on every 3-process family
        path = tmp_path / "family.json"
        unfair = 0
        for masks in all_families(3):
            adv = Adversary(3, tuple(masks))
            path.write_text(json.dumps(adversary_to_json_obj(adv)))
            assert main(["classify", "--adversary", str(path), "--format", "json"]) == 0
            obj = json.loads(capsys.readouterr().out)
            if obj["fair"]:
                continue
            unfair += 1
            pair = obj["counterexample"]
            region = ProcessSet.of(3, pair["P"]).bits
            targets = ProcessSet.of(3, pair["Q"]).bits
            assert pair["setcon_PQ"] == adv.region_table(targets)[region]
            assert pair["bound"] == min(targets.bit_count(), adv.region_table(7)[region])
        assert unfair > 0

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


ALPHA_GOLDEN_DIGEST = "bfdf0f6a7d0a6e32919e3f96c82c89d8a9b95fbf24977b8658961108afedf68d"


class TestAlphaGolden:
    """Pins `setcon`, `classify` and `alpha`, text and JSON, and the
    `alpha --out` file, byte for byte on every 3-process family."""

    def test_outputs_digest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # relative paths keep "wrote tables/..." the same on every run
        path = Path("family.json")
        written = Path("tables") / "family.alpha.json"
        texts = []
        for masks in all_families(3):
            live = sorted([p for p in (1, 2, 3) if m >> (p - 1) & 1] for m in masks)
            path.write_text(json.dumps({"n": 3, "live_sets": live}))
            for command in ("setcon", "classify", "alpha"):
                for fmt in ("text", "json"):
                    argv = [command, "--adversary", str(path), "--format", fmt]
                    if command == "alpha":
                        argv += ["--out", "tables"]
                    assert main(argv) == 0
                    texts.append(capsys.readouterr().out)
                    if command == "alpha":
                        texts.append(written.read_text())
                        written.unlink()
        assert len(texts) == 128 * 8
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == ALPHA_GOLDEN_DIGEST


# sha256 of `setcon --format json` and `classify --format json` on four
# 16-process families, taken before the witness links and the fairness pair
# became masks.  star16, every set holding process 1 plus {2, 3}, is the
# unfair one: its classify output carries a counterexample.
GOLDEN_16_DIGESTS = {
    ("wf16", "setcon"): "c938c0c2272e303b576f5397175f78288b031e1d99ae3f84c17467cb3eb52d12",
    ("wf16", "classify"): "4f2d316b57b2677b45c73e43b0f37124e6850f5724c8a64fae3f7b78244d4f85",
    ("res8-16", "setcon"): "ccd514fc6667512338aa91a9f896575cbec30706bbf67b46f43325b77be68b55",
    ("res8-16", "classify"): "4f2d316b57b2677b45c73e43b0f37124e6850f5724c8a64fae3f7b78244d4f85",
    ("cycle16", "setcon"): "d50a1ca4345415861e0d1f14199de6b47eae76c8e0f30a34aa332715df84ab8e",
    ("cycle16", "classify"): "8d69267fda50126462330f5be27a42915e164881810cd1602cd348b1575d64f1",
    ("star16", "setcon"): "7572cb39c5d3df5d3f3c69257248b553dd472d51777d812a6ecec467546927c6",
    ("star16", "classify"): "1c612abaf14bc6890a2fee9c388860e4cd1b00f8d575db136bcc813ff68c0cfe",
}


@pytest.fixture(scope="module")
def wf16_obj():
    return adversary_to_json_obj(all_nonempty(16))


@pytest.fixture(scope="module")
def files16(tmp_path_factory, wf16_obj):
    """The adversary files of GOLDEN_16_DIGESTS, by family name."""
    families = {
        "res8-16": t_resilient_adversary(16, 8),
        "cycle16": cyclic_edge_closure(16),
        "star16": Adversary(16, tuple(m for m in range(1, 1 << 16) if m & 1 or m == 6)),
    }
    objs = {"wf16": wf16_obj, **{name: adversary_to_json_obj(a) for name, a in families.items()}}
    root = tmp_path_factory.mktemp("families16")
    paths = {}
    for name, obj in objs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return paths


class TestGolden16:
    """Pins `setcon` (the whole witness list) and `classify` JSON at n = 16."""

    @pytest.mark.parametrize("family, command", sorted(GOLDEN_16_DIGESTS))
    def test_outputs_digest(self, files16, capsys, family, command):
        assert main([command, "--adversary", str(files16[family]), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_16_DIGESTS[family, command]


@pytest.fixture
def sets_created(monkeypatch):
    """A list that gets one entry per ProcessSet created from here on."""
    created = []
    check = ProcessSet.__post_init__

    def counted(self):
        created.append(self.bits)
        check(self)

    monkeypatch.setattr(ProcessSet, "__post_init__", counted)
    return created


class TestLiveSetsAreMasks:
    """The 65,535 live sets of the wait-free 16-process file are read,
    printed and answered as masks: no ProcessSet per live set."""

    def test_parse_repr_and_file_form_create_no_process_set(self, wf16_obj, sets_created):
        adv = adversary_from_json_obj(wf16_obj)
        assert repr(adv).startswith("Adversary(16, [{1},{2},{1,2},{3},")
        assert adversary_to_json_obj(adv) == wf16_obj
        assert sets_created == []

    @pytest.mark.parametrize("command, most", [("setcon", 16), ("classify", 2), ("alpha", 0)])
    def test_handlers_create_at_most_their_reported_sets(self, files16, capsys, sets_created, command, most):
        # `most` is the number of sets each handler reports: setcon's 16 witness
        # links on wf16, classify's pair P, Q on star16, none for alpha.  The
        # handlers format masks, so they create no ProcessSet at all.
        family = "star16" if command == "classify" else "wf16"
        assert main([command, "--adversary", str(files16[family]), "--format", "json"]) == 0
        assert sets_created == []
        obj = json.loads(capsys.readouterr().out)
        assert len(obj.get("witness", ())) + 2 * ("counterexample" in obj) == most

    def test_alpha_and_bgg_layers_create_no_process_set(self, files16, sets_created):
        # what the adversary layer takes and hands out is a mask: a witness
        # chain, its replay, a fairness pair, both restrictions, Adversary.of
        # and bgg's power_within build no ProcessSet
        adversaries = [adversary_from_json_obj(json.loads(files16[name].read_text())) for name in ("wf16", "star16")]
        adversaries.append(Adversary.of(16, [[1], [2, 3], range(1, 17)]))
        for adv in adversaries:
            witness = setcon_witness(adv)
            assert replay_witness(adv, witness) == witness.value
            assert restrict(adv, 0b111).live_sets == restrict_intersecting(adv, 0b111, 0b111).live_sets
            assert power_within(adv, 0b111, 0b110) <= 2
        assert [fairness_counterexample(adv) for adv in adversaries] == [None, (0b1110, 0b1000), (0b011, 0b010)]
        assert sets_created == []


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

    def test_universe_mismatch_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(AgreementFunction.wait_free(2).to_json_obj()))
        b.write_text(json.dumps(AgreementFunction.wait_free(1).to_json_obj()))
        assert main(["compare", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: universe mismatch: 2 vs 1\n"


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

    def test_inputs_are_what_the_runs_decide_from(self, unfair_file, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        argv = ["simulate", "--protocol", "adaptive", "--adversary", unfair_file, "--inputs", "5,7,9"]
        assert main(argv + ["--seeds", "5", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        decided = set()
        for seed in range(1, 6):
            trace = json.loads((out_dir / f"trace-{seed}.json").read_text())
            assert trace["inputs"] == {"1": 5, "2": 7, "3": 9}
            decided |= {d["value"] for d in trace["decisions"]}
        assert decided and decided <= {5, 7, 9}

    def test_no_model_exits_2(self, capsys):
        assert main(["simulate", "--protocol", "adaptive", "--seeds", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: simulate needs --adversary or --alpha\n"

    @pytest.mark.parametrize("command", ["simulate", "enumerate"])
    def test_empty_inputs_exits_2(self, unfair_file, capsys, command):
        argv = {
            "simulate": ["simulate", "--protocol", "adaptive", "--adversary", unfair_file, "--seeds", "2"],
            "enumerate": ["enumerate", "--n", "2", "--steps", "2", "--protocol", "safe-agreement"],
        }[command]
        assert main(argv + ["--inputs", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad --inputs value ''\n"

    @pytest.mark.parametrize("flag", ["--alpha", "--adversary"])
    def test_empty_model_file_exits_2(self, unfair_file, capsys, flag):
        # an empty path names no file; it is not read as an absent flag
        argv = ["simulate", "--protocol", "adaptive", "--seeds", "2"]
        other = {"--alpha": ["--adversary", unfair_file], "--adversary": []}[flag]
        assert main(argv + other + [flag, ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read : ")

    def test_json_output_is_one_document(self, unfair_file, capsys):
        argv = ["simulate", "--protocol", "adaptive", "--adversary", unfair_file, "--seeds", "3", "--budget", "72"]
        assert main(argv + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["runs"], obj["failed"]) == (3, 0)
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("seed=1 seeds=3 budget=72\n")

    def test_json_output_carries_the_header(self, unfair_file, capsys):
        # the text header's seed, seeds and budget, the default budget included
        argv = ["simulate", "--protocol", "adaptive", "--adversary", unfair_file, "--seeds", "2", "--seed", "5"]
        assert main(argv) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert main(argv + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert header == f"seed={obj['seed']} seeds={obj['seeds']} budget={obj['budget']}"
        assert (obj["seed"], obj["seeds"], obj["runs"]) == (5, 2, 2)

    INPUT_ERRORS = {
        "inputs": "--inputs needs 3 comma-separated values, got 2",
        "budget": "budget must be at least 2n = 6",
        "no-live-sets": "cannot schedule against the empty adversary",
        "no-admitted-run": "the agreement function admits no runs at all",
        "out-is-a-file": "cannot use ",
        "constructor": "the pairwise protocol is defined over a 3-process universe",
    }

    @pytest.mark.parametrize("case", INPUT_ERRORS)
    def test_input_errors_print_nothing_and_fork_nothing(self, resilient_file, tmp_path, monkeypatch, capsys, case):
        # 1,000 seeds would be split across forked shards on two or more cores
        argv = ["simulate", "--protocol", "adaptive", "--adversary", resilient_file, "--seeds", "1000"]
        if case == "inputs":
            argv += ["--inputs", "1,2"]
        elif case == "budget":
            argv += ["--budget", "4"]
        elif case == "no-live-sets":
            argv[4] = str(tmp_path / "empty.json")
            (tmp_path / "empty.json").write_text(json.dumps({"n": 3, "live_sets": []}))
        elif case == "no-admitted-run":
            argv[3:5] = ["--alpha", str(tmp_path / "zero.alpha.json")]
            (tmp_path / "zero.alpha.json").write_text(json.dumps({"n": 3, "table": [0] * 8}))
        elif case == "constructor":
            argv[2:5] = ["cons23", "--alpha", str(tmp_path / "wf4.alpha.json")]
            (tmp_path / "wf4.alpha.json").write_text(json.dumps(AgreementFunction.wait_free(4).to_json_obj()))
        else:
            (tmp_path / "file").write_text("")
            argv += ["--out", str(tmp_path / "file")]

        def no_fork():
            raise AssertionError("a shard was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {self.INPUT_ERRORS[case]}") and captured.err.count("\n") == 1, captured.err

    def test_unknown_protocol_exits_2(self, unfair_file):
        assert main(["simulate", "--protocol", "nope", "--adversary", unfair_file]) == 2

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_below_one_exits_2(self, resilient_file, capsys, seeds):
        argv = ["simulate", "--protocol", "adaptive", "--adversary", resilient_file, "--seeds", seeds]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seeds must be at least 1, got {seeds}\n"

    @pytest.mark.parametrize("seed", ["-1", "-3"])
    def test_negative_seed_exits_2(self, resilient_file, capsys, seed):
        # Random(-s) seeds as Random(s) does, so --seed -3 --seeds 7 would run seeds 3..1 twice
        argv = ["simulate", "--protocol", "adaptive", "--adversary", resilient_file, "--seed", seed, "--seeds", "7"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed must not be negative, got {seed}\n"

    def test_seeded_counts_pinned(self, wf3_file, capsys):
        # Pinned in the CI's console-script step too, so every Python of the matrix checks the draws
        argv = ["simulate", "--protocol", "adaptive", "--alpha", wf3_file, "--seeds", "200", "--budget", "16"]
        assert main(argv + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["runs"], obj["activations"], obj["tail_activations"]) == (200, 3819, 619)
        assert (obj["seed"], obj["seeds"], obj["budget"]) == (1, 200, 16)

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
        assert main(["check", "--trace", str(trace), "--protocol", "cons23"]) == 0

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

    @pytest.mark.parametrize("flag", ["--alpha", "--adversary"])
    @pytest.mark.parametrize("protocol", [None, "adaptive"])
    def test_empty_model_file_exits_2(self, capsys, flag, protocol):
        # an empty path names no file; it is not read as an absent flag.
        # enumerate takes no --adversary, and without a protocol no --alpha.
        argv = ["enumerate", "--n", "2", "--steps", "2"] + (["--protocol", protocol] if protocol else [])
        if flag == "--adversary":
            assert_unrecognized(argv + [flag, ""], flag, capsys)
            return
        assert main(argv + [flag, ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if protocol is None:
            assert captured.err == "error: --alpha needs --protocol: enumerate without one only counts schedules\n"
        else:
            assert captured.err.startswith("error: cannot read : ")

    @pytest.mark.parametrize("flag, value", [("--inputs", "garbage"), ("--inputs", "1,2"), ("--out", "OUT")])
    def test_count_only_rejects_inputs_and_out(self, tmp_path, capsys, flag, value):
        # without a protocol nothing reads them, so they are refused rather than ignored
        out = tmp_path / "nonexistent" / "x"
        value = str(out) if value == "OUT" else value
        assert main(["enumerate", "--n", "2", "--steps", "2", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} needs --protocol: enumerate without one only counts schedules\n"
        assert not out.parent.exists()

    def test_constructor_error_prints_nothing_and_forks_nothing(self, monkeypatch, capsys):
        # 813,120 runs would be split across forked shards on two or more cores
        def no_fork():
            raise AssertionError("a shard was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert main(["enumerate", "--n", "4", "--steps", "3", "--halts", "1", "--protocol", "cons23"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the pairwise protocol is defined over a 3-process universe\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_universe_below_one_exits_2(self, capsys, n):
        assert main(["enumerate", "--n", n, "--steps", "1"]) == 2
        assert capsys.readouterr().err == f"error: universe size must be in 1..16, got {n}\n"

    @pytest.mark.parametrize("protocol", [[], ["--protocol", "safe-agreement"]])
    @pytest.mark.parametrize("n, steps", [("-2", "-8"), ("20", "1")])
    def test_bad_universe_is_named_before_the_step_bound(self, capsys, protocol, n, steps):
        # -2 * -8 = 16 steps would exceed the bound of 14; 20 * 1 would not
        assert main(["enumerate", "--n", n, "--steps", steps] + protocol) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: universe size must be in 1..16, got {n}\n"

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
    """simulate draws its schedules from --adversary or --alpha; enumerate and
    check take --alpha exactly where their protocol's policy reads it."""

    @pytest.fixture
    def wf2_file(self, tmp_path):
        path = tmp_path / "wf2.json"
        path.write_text(json.dumps({"n": 2, "table": [0, 1, 1, 2]}))
        return str(path)

    def test_enumerate_rejects_adversary_beside_alpha(self, wf2_file, tmp_path, capsys):
        argv = ["enumerate", "--n", "2", "--steps", "2", "--protocol", "adaptive", "--alpha", wf2_file]
        assert_unrecognized(argv + ["--adversary", str(tmp_path / "nonexistent.json")], "--adversary", capsys)
        assert main(argv) == 0

    @pytest.mark.parametrize("protocol", ["safe-agreement", "cons23", "alpha-setcons", "adaptive"])
    def test_simulate_universe_mismatch_exits_2(self, wf2_file, resilient_file, capsys, protocol):
        argv = ["simulate", "--protocol", protocol, "--adversary", resilient_file, "--alpha", wf2_file]
        assert main(argv + ["--seeds", "3"]) == 2
        assert capsys.readouterr().err == "error: universe mismatch: --adversary has n=3, --alpha has n=2\n"

    def test_enumerate_count_only_rejects_adversary(self, resilient_file, tmp_path, capsys):
        argv = ["enumerate", "--n", "3", "--steps", "2"]
        assert_unrecognized(argv + ["--adversary", str(tmp_path / "nonexistent.json")], "--adversary", capsys)
        assert_unrecognized(argv + ["--adversary", resilient_file], "--adversary", capsys)
        assert main(argv) == 0
        assert capsys.readouterr().out == "schedules=90\n"

    def test_enumerate_count_only_rejects_model_files(self, wf2_file, resilient_file, capsys):
        argv = ["enumerate", "--n", "2", "--steps", "2"]
        assert_unrecognized(argv + ["--adversary", resilient_file], "--adversary", capsys)
        assert main(argv + ["--alpha", wf2_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --alpha needs --protocol: enumerate without one only counts schedules\n"

    def test_enumerate_universe_mismatch_exits_2(self, wf3_file, capsys):
        for protocol in ("alpha-setcons", "adaptive"):
            argv = ["enumerate", "--n", "2", "--steps", "2", "--protocol", protocol, "--alpha", wf3_file]
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: universe mismatch: --n has n=2, --alpha has n=3\n"

    @pytest.mark.parametrize("given", [False, True], ids=["no-alpha", "alpha"])
    @pytest.mark.parametrize("command", ["enumerate", "check"])
    @pytest.mark.parametrize("protocol", sorted(cli.POLICIES))
    def test_alpha_is_given_exactly_where_the_policy_reads_it(self, wf3_file, tmp_path, capsys, protocol, command, given):
        policy = cli.POLICIES[protocol]
        if command == "enumerate":
            argv = ["enumerate", "--n", "3", "--steps", "1", "--protocol", protocol]
        else:
            # the protocol's own run on a wait-free 3-process schedule passes all its checks
            make = policy.make(3, default_inputs(3), AgreementFunction.wait_free(3))
            trace = run_to_quiescence(make, Schedule(3, (1, 2, 3) * 3), max_tail=120)
            path = tmp_path / "trace.json"
            path.write_text(json.dumps(trace_to_json_obj(trace)))
            argv = ["check", "--trace", str(path), "--protocol", protocol]
        code = main(argv + (["--alpha", wf3_file] if given else []))
        captured = capsys.readouterr()
        if given == policy.needs_fn:
            assert code == 0, captured
            return
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {protocol} {'does not read' if given else 'needs'} --alpha\n"

    def test_simulate_draws_from_adversary_and_checks_under_alpha(self, resilient_file, wf3_file, tmp_path, capsys):
        # --adversary A --alpha F: A's schedules, F's protocol and checks.  At
        # the default budget every run decides inside its schedule, so the
        # counts are the same under F and alpha_A; the traces tell them apart.
        argv = ["simulate", "--protocol", "adaptive", "--adversary", resilient_file, "--alpha", wf3_file]
        assert main(argv + ["--seeds", "50", "--format", "json", "--out", str(tmp_path / "cli")]) == 0
        obj = json.loads(capsys.readouterr().out)
        adversary = Adversary.of(3, [[1, 2], [1, 2, 3], [1, 3], [2, 3]])
        schedules = [(seed, generate_schedule(adversary, seed, cli.DEFAULT_SIM_BUDGET)) for seed in range(1, 51)]

        def campaign(fn, name):
            trace_dir = tmp_path / name
            trace_dir.mkdir()
            make = lambda: cli.POLICIES["adaptive"].make(3, default_inputs(3), fn)
            result = cli.run_campaign(make, schedules, fn, 400, trace_dir)
            traces = {path.name: path.read_text() for path in trace_dir.iterdir()}
            return (result.runs, result.violations, result.checked, result.activations, result.tail_activations), traces

        counts, traces = campaign(AgreementFunction.wait_free(3), "wait-free")
        assert (obj["runs"], obj["violations"], obj["checked"], obj["activations"], obj["tail_activations"]) == counts
        assert {path.name: path.read_text() for path in (tmp_path / "cli").iterdir()} == traces
        assert campaign(agreement_function(adversary), "alpha-a")[1] != traces


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
            ProcessSet(2, 0b11),
            {1: "running", 2: "decided"},
        )
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_to_json_obj(trace)))
        return str(path)

    def test_failing_trace_exits_1_with_witness(self, failing_trace, tmp_path):
        out_dir = tmp_path / "w"
        code = main(["check", "--trace", failing_trace, "--protocol", "safe-agreement", "--out", str(out_dir)])
        assert code == 1
        assert (out_dir / "witnesses.json").exists()

    def test_decisions_listed_out_of_step_order_pass(self, tmp_path, capsys):
        # process 2's decision at step 3 is listed before process 1's at step 1: in
        # time, each value is decided while the participation's level allows it
        kinds = [(1, "update"), (1, "snapshot"), (2, "update"), (2, "snapshot")]
        obj = {
            "n": 2,
            "schedule": {"steps": [1, 1, 2, 2], "halted_at": {}, "correct_set": [1, 2]},
            "inputs": {"1": 101, "2": 102},
            "events": [{"step": i, "process": p, "kind": k, "payload": None} for i, (p, k) in enumerate(kinds)],
            "decisions": [{"step": 3, "process": 2, "value": 102}, {"step": 1, "process": 1, "value": 101}],
            "statuses": {"1": "decided", "2": "decided"},
        }
        path, wf2 = tmp_path / "trace.json", tmp_path / "wf2.alpha.json"
        path.write_text(json.dumps(obj))
        wf2.write_text(json.dumps({"n": 2, "table": [0, 1, 1, 2]}))
        assert main(["check", "--trace", str(path), "--protocol", "adaptive", "--alpha", str(wf2)]) == 0
        assert f"{path}: alpha-agreement=pass" in capsys.readouterr().out

    def test_witness_file_over_a_directory_exits_2(self, failing_trace, tmp_path, capsys):
        taken = tmp_path / "w" / "witnesses.json"
        taken.mkdir(parents=True)
        argv = ["check", "--trace", failing_trace, "--protocol", "safe-agreement", "--out", str(tmp_path / "w")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {taken}: ")

    @pytest.mark.parametrize("obj", [{"n": 3}, [], {"n": 3, "schedule": []}, {"n": 3, "schedule": {"steps": 5}}])
    def test_malformed_trace_exits_2(self, tmp_path, capsys, obj):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(obj))
        assert main(["check", "--trace", str(path), "--protocol", "safe-agreement"]) == 2
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
        assert main(["check", "--trace", three_process_trace, "--protocol", "adaptive", "--alpha", str(wf2)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: universe mismatch: trace {three_process_trace} has n=3, --alpha has n=2\n"

    def test_matching_arguments_still_pass(self, three_process_trace, tmp_path, capsys):
        wf3 = tmp_path / "wf3.json"
        wf3.write_text(json.dumps({"n": 3, "table": [0, 1, 1, 2, 1, 2, 2, 3]}))
        out = ""
        for protocol in ("adaptive", "alpha-setcons"):
            assert main(["check", "--trace", three_process_trace, "--protocol", protocol, "--alpha", str(wf3)]) == 0
            out += capsys.readouterr().out
        assert "alpha-agreement=pass" in out and "k-agreement=pass" in out

    @pytest.mark.parametrize(
        "protocol, alpha, message",
        [
            ("adaptive", False, "adaptive needs --alpha"),
            ("cons23", True, "cons23 does not read --alpha"),
            ("nope", False, "unknown protocol 'nope' (choose from safe-agreement, alpha-setcons, adaptive, cons23)"),
        ],
    )
    def test_protocol_and_alpha_errors_exit_2(self, three_process_trace, wf3_file, capsys, protocol, alpha, message):
        argv = ["check", "--trace", three_process_trace, "--protocol", protocol]
        assert main(argv + (["--alpha", wf3_file] if alpha else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_empty_alpha_exits_2(self, three_process_trace, capsys):
        # an empty --alpha names no file: it used to stand for no --alpha at all
        assert main(["check", "--trace", three_process_trace, "--protocol", "adaptive", "--alpha", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read : ")

    def test_trace_the_protocol_cannot_produce_exits_2(self, failing_trace, capsys):
        # cons23 is defined over 3 processes only; this trace has 2
        assert main(["check", "--trace", failing_trace, "--protocol", "cons23"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the pairwise protocol is defined over a 3-process universe\n"

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
        assert main(["check", "--trace", str(path), "--protocol", "safe-agreement"]) == 2
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
        assert main(["check", "--trace", str(path), "--protocol", "safe-agreement"]) == 2
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
        assert main(["check", "--trace", str(path), "--protocol", "adaptive", "--alpha", str(wf3)]) == 2
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


class TestTransitionMemo:
    """A campaign that reads program transitions from a memo gives the result
    and the traces of one that resumes every program."""

    TABLES = {
        "k-concurrent-3-2": AgreementFunction.k_concurrent(3, 2),
        # criterion 07's five tables
        "unfair-triple": agreement_function(Adversary.of(3, [[1], [2, 3], [1, 2, 3]])),
        "fair-nonstructured": agreement_function(Adversary.of(3, [[1], [2], [3], [1, 3], [2, 3], [1, 2, 3]])),
        "one-resilient-3": agreement_function(t_resilient_adversary(3, 1)),
        "wait-free-3": AgreementFunction.wait_free(3),
        "t-resilient-3-1": AgreementFunction.t_resilient(3, 1),
    }

    @staticmethod
    def campaign(monkeypatch, make, size, fn, memo):
        """run_campaign's result over every schedule of size, and per run the
        digest of the trace's canonical JSON, its statuses and the memo's size
        when the run began."""
        runs = []

        def recording(*args, **kwargs):
            given = kwargs.get("memo")
            before = None if given is None else given.size
            trace = run_to_quiescence(*args, **kwargs)
            text = canonical_json(trace_to_json_obj(trace))
            runs.append((hashlib.sha256(text.encode()).hexdigest(), trace.statuses, before))
            return trace

        monkeypatch.setattr(cli, "run_to_quiescence", recording)
        result = cli.run_campaign(make, enumerate(enumerate_schedules(*size)), fn, 120, memo=memo)
        return result, runs

    @pytest.mark.parametrize(
        "protocol, table, size",
        [
            ("alpha-setcons", "k-concurrent-3-2", (3, 3, 1)),
            ("adaptive", "unfair-triple", (3, 3, 1)),
            ("adaptive", "fair-nonstructured", (3, 3, 1)),
            ("adaptive", "one-resilient-3", (3, 3, 1)),
            ("adaptive", "wait-free-3", (3, 3, 1)),
            ("adaptive", "t-resilient-3-1", (3, 3, 1)),
            ("safe-agreement", None, (2, 6, 1)),
            ("cons23", None, (3, 3, 1)),
        ],
    )
    def test_memo_gives_the_plain_campaign(self, monkeypatch, protocol, table, size):
        n = size[0]
        fn = self.TABLES.get(table)
        make = lambda: cli.POLICIES[protocol].make(n, default_inputs(n), fn)
        plain, plain_runs = self.campaign(monkeypatch, make, size, fn, memo=False)
        memoised, memo_runs = self.campaign(monkeypatch, make, size, fn, memo=True)
        assert memoised == plain
        assert [run[:2] for run in memo_runs] == [run[:2] for run in plain_runs]
        # a bound of a few transitions: the memo starts over between most runs
        monkeypatch.setattr(sim, "MEMO_TRANSITIONS", 3)
        bounded, bounded_runs = self.campaign(monkeypatch, make, size, fn, memo=True)
        assert bounded == plain
        assert [run[:2] for run in bounded_runs] == [run[:2] for run in plain_runs]
        assert sum(run[2] >= 3 for run in bounded_runs) > len(bounded_runs) // 2

    def test_failures_match(self, monkeypatch):
        # a 5-step tail leaves processes undecided, so termination fails
        fn = AgreementFunction.wait_free(3)
        make = lambda: cli.POLICIES["adaptive"].make(3, default_inputs(3), fn)
        schedules = list(enumerate(enumerate_schedules(3, 2, 1)))
        plain = cli.run_campaign(make, schedules, fn, 5)
        assert plain.failures
        assert cli.run_campaign(make, schedules, fn, 5, memo=True) == plain

    def test_enumerate_reads_a_memo_and_simulate_does_not(self, wf3_file, monkeypatch, capsys):
        memos = []

        def spy(*args, **kwargs):
            memos.append(kwargs.get("memo"))
            return run_to_quiescence(*args, **kwargs)

        monkeypatch.setattr(cli, "run_to_quiescence", spy)
        monkeypatch.setattr(cli, "_shard_count", lambda runs: 1)
        common = ["--protocol", "adaptive", "--alpha", wf3_file, "--format", "json"]
        assert main(["enumerate", "--n", "3", "--steps", "2", "--halts", "1"] + common) == 0
        enumerated = len(memos)
        assert enumerated > 1 and isinstance(memos[0], sim.TransitionMemo)
        assert all(memo is memos[0] for memo in memos[:enumerated])
        assert main(["simulate", "--seeds", "5", "--budget", "24"] + common) == 0
        assert memos[enumerated:] == [None] * 5
        capsys.readouterr()

    def test_program_that_decides_before_writing_is_a_fault_with_a_memo_too(self):
        memo = sim.TransitionMemo()
        for _ in range(2):
            with pytest.raises(ProtocolFault, match="process 2 decided without taking a step"):
                run_to_quiescence(TestSharding.StepFreeBeyondOne(2, default_inputs(2)), Schedule(2, (1, 2)), memo=memo)


class TestCheckRoundTrip:
    """`check --protocol P` gives the trace files of a `simulate --protocol P`
    campaign the verdicts the campaign gave their runs."""

    WAIT_FREE = [[1], [1, 2], [1, 2, 3], [1, 3], [2], [2, 3], [3]]
    RESILIENT = [[1, 2], [1, 2, 3], [1, 3], [2, 3]]
    UNFAIR = [[1], [1, 2, 3], [2, 3]]
    FAIR = [[1], [1, 2, 3], [1, 3], [2], [2, 3], [3]]

    @pytest.mark.parametrize(
        "protocol, live_sets, seeds, budget, split, termination",
        [
            # termination is checked only where no process halted in its unsafe window
            ("safe-agreement", RESILIENT, 100, 24, False, (53, 0)),
            ("cons23", WAIT_FREE, 50, 96, False, (50, 7)),
            # every run breaks k-agreement: SplitCons23 decides each process's own input
            ("cons23", RESILIENT, 4, 48, True, (4, 0)),
            # termination is checked only on the runs the agreement function admits
            ("adaptive", UNFAIR, 50, 24, False, (36, 0)),
            ("alpha-setcons", FAIR, 50, 24, False, (35, 0)),
        ],
        ids=["safe-agreement", "cons23", "cons23-split", "adaptive", "alpha-setcons"],
    )
    def test_check_gives_the_campaign_verdicts(
        self, tmp_path, capsys, monkeypatch, protocol, live_sets, seeds, budget, split, termination
    ):
        adversary = tmp_path / "adversary.json"
        adversary.write_text(json.dumps({"n": 3, "live_sets": live_sets}))
        runs = tmp_path / "runs"
        argv = ["simulate", "--protocol", protocol, "--adversary", str(adversary), "--seeds", str(seeds)]
        with monkeypatch.context() as patched:
            if split:
                patched.setattr(cli, "Cons23", TestCampaignEngine.SplitCons23)
            code = main(argv + ["--budget", str(budget), "--out", str(runs), "--format", "json"])
        campaign = json.loads(capsys.readouterr().out)
        assert (campaign["checked"]["termination"], campaign["violations"]["termination"]) == termination
        assert code == (1 if split else int(termination[1] > 0))

        argv = ["check", "--protocol", protocol, "--format", "json", "--out", str(tmp_path / "w")]
        if cli.POLICIES[protocol].needs_fn:
            assert main(["alpha", "--adversary", str(adversary), "--out", str(tmp_path)]) == 0
            capsys.readouterr()
            argv += ["--alpha", str(tmp_path / "adversary.alpha.json")]
        for seed in range(1, seeds + 1):
            argv += ["--trace", str(runs / f"trace-{seed}.json")]
        assert main(argv) == code
        checked: dict = {}
        violations: dict = {}
        for report in json.loads(capsys.readouterr().out)["reports"]:
            for verdict in report["verdicts"]:
                prop = verdict["property"]
                checked[prop] = checked.get(prop, 0) + 1
                violations[prop] = violations.get(prop, 0) + (not verdict["pass"])
        assert checked == campaign["checked"]
        assert violations == campaign["violations"]


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

    def test_a_lost_worker_reruns_the_campaign_in_process(self):
        parent = os.getpid()
        fn = AgreementFunction.wait_free(3)

        def make():
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return cli.POLICIES["adaptive"].make(3, default_inputs(3), fn)

        result = cli._sharded_campaign(make, self.enumerated(3, 2, 1), fn, 120, None, 2)
        assert_no_child_left()
        assert result == cli.run_campaign(make, enumerate(enumerate_schedules(3, 2, 1)), fn, 120)

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

    def test_no_live_sets_not_applicable(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 3, "live_sets": []}))
        argv = ["bgg", "--adversary", str(path), "--gate", "verbatim"]
        assert main(argv) == 0
        assert "properties=not-applicable (adversary has no live sets)" in capsys.readouterr().out.splitlines()
        assert main(argv + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["properties"], obj["rounds_recorded"], obj["warnings"]) == ("not-applicable", 0, 0)

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

    def test_history_file_over_a_directory_exits_2(self, fair_file, tmp_path, capsys):
        taken = tmp_path / "h" / "bgg-history.json"
        taken.mkdir(parents=True)
        assert main(["bgg", "--adversary", fair_file, "--gate", "adaptive", "--out", str(tmp_path / "h")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {taken}: ") and captured.err.count("\n") == 1

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
        # pinned in the CI workflow's console-script step too
        path = tmp_path / "singletons.json"
        path.write_text(json.dumps({"n": 3, "live_sets": [[1], [1, 2, 3], [2], [3]]}))
        argv = ["bgg", "--adversary", str(path), "--gate", "adaptive", "--format", "json"]
        for halt, blocked_1, rounds_2 in (([], 200, 600), (["--halt", "2:100"], 33, 100)):
            assert main(argv + halt) == 0
            obj = json.loads(capsys.readouterr().out)
            assert all(v["pass"] for v in obj["properties"]), halt
            assert obj["per_simulator"] == {
                "1": {"rounds": 600, "gated": 600, "reselections": 2, "fallbacks": 0, "blocked": blocked_1},
                "2": {"rounds": rounds_2, "gated": rounds_2, "reselections": 1, "fallbacks": 0, "blocked": 0},
            }, halt

    @pytest.mark.parametrize("halt", ["9:10", "2:10", "0:10", "1:-1", "1:2:3"])
    def test_bad_halt_exits_2(self, tmp_path, capsys, halt):
        path = tmp_path / "one-sim.json"
        path.write_text(json.dumps({"n": 3, "live_sets": [[1, 2, 3]]}))
        argv = ["bgg", "--adversary", str(path), "--gate", "verbatim"]
        assert main(argv + ["--halt", halt]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert main(argv + ["--halt", "1:10"]) == 0

    def test_halt_on_adversary_without_live_sets_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 3, "live_sets": []}))
        assert main(["bgg", "--adversary", str(path), "--gate", "verbatim", "--halt", "1:30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --halt 1:30: this adversary has no simulators (no live sets)\n"

    def test_repeated_halt_id_exits_2(self, fair_file, capsys):
        argv = ["bgg", "--adversary", fair_file, "--gate", "verbatim", "--halt", "2:5", "--halt", "2:900"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --halt 2:900: simulator 2 is already given --halt 2:5\n"

    def test_gate_is_required(self, fair_file, capsys):
        # ROADMAP item 8: the two polarities give different runs, so neither is a default
        with pytest.raises(SystemExit) as exc:
            main(["bgg", "--adversary", fair_file])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --gate" in captured.err

    @pytest.mark.parametrize("budget", ["0", "-7"])
    def test_budget_below_one_exits_2(self, fair_file, tmp_path, capsys, budget):
        out_dir = tmp_path / "h"
        argv = ["bgg", "--adversary", fair_file, "--gate", "verbatim", "--budget", budget, "--out", str(out_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the bgg budget must be at least 1 round, got {budget}\n"
        assert not (out_dir / "bgg-history.json").exists()

    def test_verbatim_gate_deviation_witness(self, tmp_path, capsys):
        # ROADMAP item 8: under the verbatim gate, halting simulator 2 after
        # 206 rounds leaves simulator 1 gated out, so nothing is stepped late
        path = tmp_path / "singletons.json"
        path.write_text(json.dumps({"n": 3, "live_sets": [[1], [1, 2, 3], [2], [3]]}))
        out_dir = tmp_path / "w"
        argv = ["bgg", "--adversary", str(path), "--halt", "2:206", "--format", "json"]
        assert main(argv + ["--gate", "verbatim", "--out", str(out_dir)]) == 1
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
        assert main(argv + ["--gate", "adaptive"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [v["pass"] for v in obj["properties"]] == [True, True, True, True]


class TestCommonMachinery:
    @pytest.mark.parametrize("command", ["setcon", "classify", "compare"])
    def test_out_is_rejected_where_nothing_is_written(self, fair_file, tmp_path, capsys, command):
        argv = [command] + ([fair_file, fair_file] if command == "compare" else ["--adversary", fair_file])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "command, content",
        [
            pytest.param(command, content, id=command if content == "deep" else f"{command}-{content}")
            for content in ("deep", "not-utf8", "long-int")
            for command in ("setcon", "compare", "check")
        ],
    )
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, command, content):
        # files that are not UTF-8 JSON: nested too deeply, not UTF-8, or an
        # integer literal past the interpreter's int-string limit
        if content == "deep":
            data = b"[" * 100_000 + b"]" * 100_000
        elif content == "not-utf8":
            data = b'{"n": 3, "live_sets": [["\xff"]]}'
        else:
            limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
            if not limit:
                pytest.skip("this interpreter has no int-string limit")
            data = b'{"n": ' + b"1" * (limit + 1) + b', "live_sets": []}'
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        argv = {
            "setcon": ["setcon", "--adversary", str(path)],
            "compare": ["compare", str(path), str(path)],
            "check": ["check", "--trace", str(path), "--protocol", "safe-agreement"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ") and captured.err.count("\n") == 1

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

    def test_library_value_error_is_not_an_input_error(self, fair_file, monkeypatch):
        # only InputError means exit 2; a ValueError raised inside a run is a fault of the program
        def broken_run(*args, **kwargs):
            raise ValueError("a fault inside the run")

        monkeypatch.setattr(cli, "run_to_quiescence", broken_run)
        argv = ["simulate", "--protocol", "adaptive", "--adversary", fair_file, "--seeds", "2", "--budget", "24"]
        with pytest.raises(ValueError, match="a fault inside the run"):
            main(argv)

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


# Random JSON documents; max_leaves bounds their size and depth.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "live_sets", "table", "schedule", "steps", "events", "value"]) | st.text(max_size=3),
        kids,
        max_size=4,
    ),
    max_leaves=12,
)


def _replace_node(obj, index: int, value):
    """obj with its index-th node (in pre-order, counted modulo the node count) replaced by value."""
    nodes = []

    def walk(node, parent, key):
        nodes.append((parent, key))
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for k, child in children:
            walk(child, node, k)

    walk(obj, None, None)
    parent, key = nodes[index % len(nodes)]
    if parent is None:
        return value
    parent[key] = value
    return obj


class TestFuzz:
    """Random files and small random argv values through every file-reading
    subcommand: exit 0, 1 or 2, never a traceback."""

    ADVERSARIES = JSON_VALUES | st.fixed_dictionaries(
        {
            "n": st.integers(-1, 5) | JSON_VALUES,
            "live_sets": st.lists(st.lists(st.integers(-1, 6) | JSON_VALUES, max_size=4), max_size=5),
        }
    )
    ALPHAS = JSON_VALUES | st.fixed_dictionaries(
        {"n": st.integers(-1, 4) | JSON_VALUES, "table": st.lists(st.integers(-1, 4) | JSON_VALUES, max_size=17)}
    )
    # Valid families over at most 3 processes: the argv fuzz runs either one of
    # them or the random documents above, so that it reaches the runs as well
    # as the file checks.
    FAMILIES = st.integers(1, 3).flatmap(
        lambda n: st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=7).map(
            lambda masks: Adversary(n, tuple(masks))
        )
    )
    PROTOCOLS = st.sampled_from(sorted(cli.POLICIES))
    INPUTS = st.none() | st.lists(st.integers(0, 3), min_size=1, max_size=4).map(lambda v: ",".join(map(str, v)))

    @staticmethod
    def base_trace() -> dict:
        schedule = Schedule(2, (1, 2, 1, 2), halted_at={2: 3})
        trace = run_to_quiescence(cli.POLICIES["safe-agreement"].make(2, default_inputs(2), None), schedule, max_tail=20)
        return trace_to_json_obj(trace)

    @staticmethod
    def run(tmp: Path, argv: list, files: dict) -> None:
        for name, obj in files.items():
            (tmp / name).write_text(json.dumps(obj))
        cwd = os.getcwd()
        os.chdir(tmp)  # a report without --out writes its witnesses to ./advlab-out
        try:
            code = main(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), (argv, files)

    @staticmethod
    def flags(**values) -> list[str]:
        """--name=value for each value that is not None: in this form argparse takes a value such as -1:3."""
        return [f"--{name}={value}" for name, value in values.items() if value is not None]

    @staticmethod
    def models(tmp: Path, which: str, family: Adversary, random_files) -> tuple[list[str], dict]:
        """The --adversary and --alpha arguments that `which` names, and the
        files a.json and f.json: the family and its agreement function, or the
        random documents (adversary, agreement function) when given."""
        if random_files is None:
            random_files = adversary_to_json_obj(family), agreement_function(family).to_json_obj()
        argv = {
            "none": [],
            "adversary": ["--adversary", str(tmp / "a.json")],
            "alpha": ["--alpha", str(tmp / "f.json")],
            "both": ["--adversary", str(tmp / "a.json"), "--alpha", str(tmp / "f.json")],
        }[which]
        return argv, dict(zip(("a.json", "f.json"), random_files))

    @settings(max_examples=60, deadline=None)
    @given(adversary=ADVERSARIES)
    def test_adversary_files(self, adversary):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = str(tmp / "a.json")
            for argv in (["setcon"], ["classify"], ["alpha", "--out", str(tmp / "o")]):
                self.run(tmp, argv + ["--adversary", path], {"a.json": adversary})

    @settings(max_examples=60, deadline=None)
    @given(a=ALPHAS, b=ALPHAS)
    def test_agreement_function_files(self, a, b):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            self.run(tmp, ["compare", str(tmp / "a.json"), str(tmp / "b.json")], {"a.json": a, "b.json": b})

    @settings(max_examples=100, deadline=None)
    @given(
        node=st.integers(0, 10**6),
        value=JSON_VALUES,
        protocol=PROTOCOLS,
        alpha=st.just(AgreementFunction.wait_free(2).to_json_obj()) | ALPHAS,
    )
    def test_trace_files(self, node, value, protocol, alpha):
        # --alpha goes with the protocols that read it: either the base trace's
        # wait-free table or a random document
        trace = _replace_node(self.base_trace(), node, value)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            argv = ["check", "--trace", str(tmp / "t.json"), "--protocol", protocol, "--out", str(tmp / "o")]
            files = {"t.json": trace}
            if cli.POLICIES[protocol].needs_fn:
                argv += ["--alpha", str(tmp / "f.json")]
                files["f.json"] = alpha
            self.run(tmp, argv, files)

    @settings(max_examples=100, deadline=None)
    @given(
        protocol=PROTOCOLS,
        which=st.sampled_from(["adversary", "alpha", "both"]),
        family=FAMILIES,
        random_files=st.none() | st.tuples(ADVERSARIES, ALPHAS),
        budget=st.none() | st.integers(-1, 30),
        tail=st.none() | st.integers(-1, 30),
        seed=st.none() | st.integers(-1, 3),
        seeds=st.sampled_from([5, 1, 0]),
        inputs=INPUTS,
    )
    def test_simulate_argv(self, protocol, which, family, random_files, budget, tail, seed, seeds, inputs):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            model_argv, files = self.models(tmp, which, family, random_files)
            argv = ["simulate", "--protocol", protocol, "--out", str(tmp / "o")] + model_argv
            argv += self.flags(budget=budget, tail=tail, seed=seed, seeds=seeds, inputs=inputs)
            self.run(tmp, argv, files)

    @settings(max_examples=100, deadline=None)
    @given(
        protocol=st.none() | PROTOCOLS,
        which=st.sampled_from(["none", "alpha"]),
        family=FAMILIES,
        random_files=st.none() | st.tuples(ADVERSARIES, ALPHAS),
        n=st.none() | st.integers(-1, 3),
        steps=st.integers(1, 2) | st.sampled_from([-1, 0, 8]),
        halts=st.none() | st.integers(-1, 3),
        tail=st.none() | st.integers(-1, 30),
        inputs=INPUTS,
        out=st.booleans(),
    )
    def test_enumerate_argv(self, protocol, which, family, random_files, n, steps, halts, tail, inputs, out):
        n = family.n if n is None else n
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            model_argv, files = self.models(tmp, which, family, random_files)
            argv = ["enumerate"] + model_argv + (["--protocol", protocol] if protocol else [])
            argv += self.flags(n=n, steps=steps, halts=halts, tail=tail, inputs=inputs, out=tmp / "o" if out else None)
            self.run(tmp, argv, files)

    @settings(max_examples=100, deadline=None)
    @given(
        family=FAMILIES,
        random_files=st.none() | st.tuples(ADVERSARIES, ALPHAS),
        gate=st.sampled_from(["verbatim", "adaptive"]),
        budget=st.none() | st.integers(-1, 30),
        halts=st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 40)).map(lambda h: f"{h[0]}:{h[1]}"), max_size=2)
        | st.sampled_from([["x"], ["1"], ["1:2:3"]]),
        out=st.booleans(),
    )
    def test_bgg_argv(self, family, random_files, gate, budget, halts, out):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            model_argv, files = self.models(tmp, "adversary", family, random_files)
            argv = ["bgg", "--gate", gate] + model_argv + self.flags(budget=budget, out=tmp / "o" if out else None)
            argv += [f"--halt={h}" for h in halts]
            self.run(tmp, argv, files)
