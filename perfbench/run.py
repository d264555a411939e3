"""advlab benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                # every workload, one after another
    python3 perfbench/run.py --workload bgg --trace 1      # per-layer metrics

Run from anywhere; the checkout is the directory above this file, and advlab
is imported from its `src/`.  Every job runs in a fresh interpreter
(`child.py`), one at a time, so the program's memo starts cold as it does
for every CLI call.  With `--trace 0` the job repeats in fresh interpreters
until `--seconds` would be exceeded (at least once) and the medians are
reported; set-up is measured in at least SETUP_SAMPLES interpreters.
Every end-to-end time is at the nominal CPU speed (see `pace.py`); the
plain wall times are printed beside them.  With `--trace 1` the job runs
once untraced and once traced, and the traced run's overhead is reported
against the untraced job's wall time.  The last stdout line is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
DEFAULT_SEED = 1
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # a workload run ends well inside the 180 s every run is allowed

UNIT_NAMES = {
    "algebra": "family reports",
    "campaign": "checked runs",
    "exhaustive": "schedules covered",
    "bgg": "selection runs",
}
END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("throughput_per_s", "units/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("failed_share", "ratio"),
)
# failed_share is 0 whenever the program is correct, so it is printed and
# folded into `failed`/`attempted` but is not a metric of the result line.
RESULT_END_TO_END = tuple(name for name, _ in END_TO_END if name != "failed_share")


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, size: str, mode: str, deadline: float) -> dict:
    """Run one child interpreter; its set-up time is scaled by a reference interpreter started just before."""
    if deadline - time.monotonic() <= 0:
        raise BenchError(f"{workload}: out of time before a {mode} interpreter")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        start_s = pace.time_interpreter(ROOT, env)
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"{workload}: the reference interpreter failed: {exc}") from exc
    t0 = time.monotonic()
    remaining = deadline - t0
    argv = [sys.executable, str(CHILD), str(ROOT), workload, str(seed), size, mode, repr(t0)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {mode} interpreter exceeded the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {mode} interpreter exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload}: unreadable {mode} result: {proc.stdout[-500:]!r}") from exc
    result["wall_s"] = time.monotonic() - t0
    result["setup_s"] = result["setup_wall_s"] * pace.NOMINAL_START_S / start_s
    return result


def quantiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (statistics.quantiles, exclusive method)."""
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def measure(workload: str, seed: int, size: str, seconds: float) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps = []
    while True:
        reps.append(spawn(workload, seed, size, "job", deadline))
        per_rep = statistics.median(r["wall_s"] for r in reps)
        if time.monotonic() - start + per_rep > seconds:
            break
    setups = [(r["setup_s"], r["setup_wall_s"]) for r in reps]
    while len(setups) < SETUP_SAMPLES:
        extra = spawn(workload, seed, size, "setup", deadline)
        setups.append((extra["setup_s"], extra["setup_wall_s"]))

    units = reps[0]["units"]
    job_s = statistics.median(r["job_s"] for r in reps)
    wall_s = statistics.median(r["job_wall_s"] for r in reps)
    slowdown = statistics.median(r["slowdown"] for r in reps)
    failed = sum(r["failed_units"] for r in reps)
    attempted = units * len(reps)
    if reps[0]["latencies"] is None:
        p50 = p90 = 1000 * job_s / units
        latency_note = f"mean of {units} units run inside the CLI calls; not timed one by one"
    else:
        # Each unit's latency is its median over the repetitions.
        per_unit = [statistics.median(ls) for ls in zip(*(r["latencies"] for r in reps))]
        p50, p90 = (1000 * q for q in quantiles(per_unit))
        latency_note = f"{len(per_unit)} units, each the median of {len(reps)} repetitions"
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "job_s": job_s,
        "throughput_per_s": units / job_s,
        "unit_ms_p50": p50,
        "unit_ms_p90": p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "failed_share": failed / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setups)} interpreters, at the nominal speed",
        "job_s": f"median of {len(reps)} repetitions, at the nominal speed",
        "throughput_per_s": f"{units} {UNIT_NAMES[workload]} / job_s",
        "unit_ms_p50": latency_note,
        "unit_ms_p90": latency_note,
        "peak_rss_mb": f"ru_maxrss, median of {len(reps)} interpreters",
        "failed_share": f"{failed} of {attempted} units failed a check",
    }
    setup_wall_s = statistics.median(w for _, w in setups)
    info = [f"uncorrected: set-up {setup_wall_s:.4f} s, job {wall_s:.4f} s wall; "
            f"reference loop {slowdown:.3f} x its nominal time during the job (medians)"]
    messages = [m for r in reps for m in r["messages"]]
    return {"units": units, "attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes,
            "info": info, "messages": messages, "crosscheck": reps[0]["crosscheck"]}


def measure_traced(workload: str, seed: int, size: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = spawn(workload, seed, size, "job", deadline)
    traced = spawn(workload, seed, size, "trace", deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["job_wall_s"] - plain["job_wall_s"]
    notes = {
        "trace.overhead_s": f"traced job {traced['job_wall_s']:.4f} s - untraced job {plain['job_wall_s']:.4f} s (wall)",
        "bgg.step_success_ratio": f"base: {traced['stepped_rounds']} stepped rounds",
    }
    spans = traced["spans"]
    info = [f"spans: {spans['stored']} stored in {spans['file']}, {spans['summed']} in all"]
    if traced["missing_hooks"]:
        info.append(f"WARNING: hooks not installed, attribute gone: {', '.join(traced['missing_hooks'])}")
    return {"units": plain["units"], "attempted": 2 * plain["units"],
            "failed": plain["failed_units"] + traced["failed_units"], "metrics": metrics, "notes": notes,
            "info": info, "messages": plain["messages"] + traced["messages"], "crosscheck": plain["crosscheck"]}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "advlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def metric_units(trace: bool) -> dict[str, str]:
    if trace:
        units = {name: tracing.metric_unit(name) for name in tracing.LAYER_METRICS}
        units["trace.overhead_s"] = "s"
        return units
    return dict(END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's job sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "advlab" / "__init__.py").is_file():
        print(f"error: no advlab sources under {ROOT / 'src'}; run from an advlab checkout", file=sys.stderr)
        return 2

    print("perfbench advlab")
    print(f"  commit: {commit()}  source digest: {source_digest()}")
    print(f"  python: {platform.python_version()} ({platform.python_implementation()})  nproc: {os.cpu_count()}")
    print(f"  load average at start: {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    print(f"  seed: {args.seed}  seconds: {args.seconds:g}  trace: {args.trace}  size: {args.size}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = metric_units(bool(args.trace))
    results = {}
    for name in names:
        try:
            if args.trace:
                results[name] = measure_traced(name, args.seed, args.size)
            else:
                results[name] = measure(name, args.seed, args.size, args.seconds)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        print(f"workload {name}: {res['units']} {UNIT_NAMES[name]} per job")
        for metric, value in res["metrics"].items():
            note = res["notes"].get(metric)
            print(f"  {metric:32s} {value:>14.6g} {units[metric]:8s} {note or ''}".rstrip())
        for line in res["info"]:
            print(f"  {line}")
        for message in res["messages"][:10]:
            print(f"  FAILED CHECK: {message}")

    print(f"  load average at end: {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    counts = ", ".join(f"{name}={res['units']}" for name, res in results.items())
    print(f"  units per job: {counts}")
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, value in res["metrics"].items():
            if args.trace or metric in RESULT_END_TO_END:
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
