"""One measured interpreter: set up one workload, optionally run its job, report JSON.

Run by `run.py`, never by hand:

    python3 perfbench/child.py ROOT WORKLOAD SEED SIZE MODE T0

MODE is `setup` (stop when the inputs are built), `job` (run the job under
`pace.SpeedProbe` and report its times also at the nominal CPU speed) or
`trace` (run the job with the per-layer hooks of `tracing`).  T0 is the
parent's `time.monotonic()` just before it started this interpreter, so
set-up time covers interpreter start, `import advlab` and building the
inputs.  The last stdout line is one JSON object.
"""

import json
import resource
import shutil
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, workload, seed, size, mode, t0 = argv
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import advlab
    from advlab import bgg, cli  # noqa: F401  (import cost belongs to set-up)

    if not Path(advlab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"advlab imported from {advlab.__file__}, not from {src}")

    import pace
    import workloads

    workdir = Path(root) / ".perfbench-out" / f"work-{workload}-{seed}-{mode}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job = workloads.prepare(workload, int(seed), size, workdir)
        result = {"setup_wall_s": time.monotonic() - float(t0), "units": job.units}
        if mode == "job":
            with pace.SpeedProbe() as probe:
                job.run(pace.clock)
            result.update(
                job_s=probe.corrected(*job.span),
                job_wall_s=probe.wall(*job.span),
                slowdown=probe.slowdown(),
                latencies=None if job.unit_spans is None
                else [probe.corrected(a, b) / units for a, b, units in job.unit_spans],
            )
        elif mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                job.run(time.perf_counter)
            finally:
                undo()
            result["job_wall_s"] = job.span[1] - job.span[0]
        if mode != "setup":
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            failed, messages = job.check()
            result.update(failed_units=failed, messages=messages[:5], crosscheck=job.crosscheck())
            if mode == "trace":
                out = Path(root) / ".perfbench-out" / f"spans-{workload}"
                result["layers"] = tracer.layer_metrics()
                result["spans"] = tracer.write(out)
                result["missing_hooks"] = tracer.missing
                result["stepped_rounds"] = tracer.counts["bgg.stepped"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
