"""Smoke test of the benchmark itself, at tiny job sizes (about a minute).

    python3 perfbench/test_smoke.py          # or: python3 -m pytest perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric is printed with its unit,
that traced counts agree with the untraced outputs and repeat exactly, that
the speed probe leaves no job time out, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pace
import run
import tracing
import workloads

ROOT = run.ROOT
BENCH = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench-out" / "smoke"


def bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed(lines: list[str], workload: str) -> dict[str, str]:
    """metric -> unit, from the human-readable block of one workload."""
    start = lines.index(next(line for line in lines if line.startswith(f"workload {workload}:")))
    out = {}
    for line in lines[start + 1:]:
        if not line.startswith("  ") or line.startswith("  FAILED"):
            break
        parts = line.split()
        if len(parts) >= 3 and parts[0] in run.metric_units(True) | run.metric_units(False):
            out[parts[0]] = parts[2]
    return out


def test_end_to_end_metrics_printed_with_units():
    lines, result = bench("--workload", "all", "--size", "tiny", "--seconds", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name in workloads.WORKLOADS:
        assert printed(lines, name) == dict(run.END_TO_END), name
        for metric in run.RESULT_END_TO_END:
            entry = result["metrics"][f"{name}.{metric}"]
            assert entry["unit"] == dict(run.END_TO_END)[metric] and entry["value"] > 0, (name, metric)
    assert any(line.startswith("  commit:") for line in lines)
    assert any(line.startswith("  load average at end:") for line in lines)


def test_per_layer_metrics_printed_with_units():
    lines, result = bench("--workload", "bgg", "--size", "tiny", "--trace", "1")
    expected = run.metric_units(True)
    assert printed(lines, "bgg") == expected
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["bgg.rounds"]["value"] > 0


def test_traced_counts_match_untraced_outputs_and_repeat():
    counts = [m for m, (kind, _) in tracing.LAYER_METRICS.items() if kind in ("calls", "count")]
    for name in workloads.WORKLOADS:
        first = run.measure_traced(name, 1, "tiny")
        second = run.measure_traced(name, 1, "tiny")
        assert first["failed"] == 0, first["messages"]
        assert not [line for line in first["info"] if "WARNING" in line], first["info"]
        assert {m: first["metrics"][m] for m in counts} == {m: second["metrics"][m] for m in counts}, name
        if name in ("campaign", "exhaustive"):
            assert first["metrics"]["sim.runs"] == first["crosscheck"]["cli_runs"] > 0
        if name == "bgg":
            assert first["metrics"]["bgg.rounds"] == first["crosscheck"]["bgg_records"] > 0
        if name == "campaign":
            assert first["metrics"]["sim.activations"] == campaign_trace_steps()


def campaign_trace_steps() -> int:
    """Summed schedule lengths of the traces `advlab simulate --out` writes for the tiny campaign."""
    sys.path.insert(0, str(ROOT / "src"))
    from advlab import cli

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    job = workloads.prepare("campaign", 1, "tiny", SCRATCH)
    total = 0
    for index, (argv, units) in enumerate(job.calls):
        out = SCRATCH / f"traces-{index}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(out)]) == 0
        traces = list(out.glob("trace-*.json"))
        assert len(traces) == units
        total += sum(len(json.loads(p.read_text())["schedule"]["steps"]) for p in traces)
    shutil.rmtree(SCRATCH)
    return total


def test_speed_probe_counts_all_job_time_once():
    with pace.SpeedProbe() as probe:
        a = pace.clock()
        while pace.clock() - a < 0.5:
            pass
        b = pace.clock()
    inside = sum(t for start, t in zip(probe.starts, probe.times) if a <= start < b)
    assert len(probe.times) >= 5
    assert abs(probe.wall(a, b) - (b - a - inside)) < 1e-9
    # Half the stretch is half the job time, whichever half.
    mid = (a + b) / 2
    assert abs(probe.wall(a, mid) + probe.wall(mid, b) - probe.wall(a, b)) < 1e-9
    assert abs(probe.corrected(a, mid) + probe.corrected(mid, b) - probe.corrected(a, b)) < 1e-9
    assert probe.corrected(a, b) > 0


def test_refuses_without_program_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "algebra", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    failures = 0
    for test in [value for key, value in sorted(globals().items()) if key.startswith("test_")]:
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
    sys.exit(1 if failures else 0)
