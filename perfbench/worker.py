"""One benchmark process: import fhsforge, load a workload's inputs, run it.

run.py starts this in a fresh interpreter for every pass, so each pass pays
the import and the cold field and factor-table set-up, as a CLI user does.

    worker.py MODE WORKLOAD SEED WORKDIR RESULT_JSON SPAWN_TIME

MODE is "setup" (stop once the inputs are loaded), "pass" (run the
operations), "traced" (run them with spans, see tracing.py), "memory" (the
same with tracemalloc peaks) or "selftest" (check the paper-verify
transform).  SPAWN_TIME is the `time.monotonic()` at which run.py started
this process.  The result file gets the set-up time from SPAWN_TIME to the
end of set-up, raw and in reference seconds (speed.py), and per operation
its time both ways, its problems and its detail.
"""

import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parent.parent / "src"


def run_ops(ops, probe, tracer=None):
    results = []
    for op in ops:
        traced = tracer is not None
        if traced:
            tracer.run_id = op.name
        start = time.monotonic()
        try:
            with tracer.span("op") if traced else contextlib.nullcontext():
                value = op.run(traced)
        except Exception as exc:
            end = time.monotonic()
            problems, detail = [f"{type(exc).__name__}: {exc}"], None
        else:
            end = time.monotonic()
            try:
                problems, detail = op.check(value)
            except Exception as exc:
                problems, detail = [f"check raised {type(exc).__name__}: {exc}"], None
        results.append({"name": op.name, "start": start, "end": end,
                        "problems": problems, "detail": detail})
    for op in results:
        op["seconds"] = op["end"] - op["start"]
        op["ref_seconds"] = probe.reference_seconds(op.pop("start"), op.pop("end"))
    return results


def main():
    mode, workload, seed, workdir, result_path, spawned = sys.argv[1:]
    seed, spawned = int(seed), float(spawned)
    probe = speed.SpeedProbe()
    probe.start()
    # imported here, under the probe, because their import is set-up time
    import fhsforge
    import workloads

    if SRC not in Path(fhsforge.__file__).resolve().parents:
        sys.exit(f"fhsforge was imported from {fhsforge.__file__}, not from {SRC}")
    if mode == "selftest":
        result = {"problems": workloads.selftest(seed)}
    else:
        ops = workloads.load(workload, seed, Path(workdir))
        ready = time.monotonic()
        result = {"setup_raw_s": ready - spawned,
                  "setup_s": probe.reference_seconds(spawned, ready)}
        if mode == "memory":  # tracemalloc slows the probe, and times are unused
            probe.stop()
        if mode != "setup":
            tracer = None
            if mode in ("traced", "memory"):
                import tracing

                tracer = tracing.Tracer(watch_memory=mode == "memory")
                tracing.install(tracer)
            result["ops"] = run_ops(ops, probe, tracer)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if probe.durations:
                result["probe_ms"] = {
                    "count": len(probe.durations),
                    "p5": 1e3 * sorted(probe.durations)[len(probe.durations) // 20],
                    "median": 1e3 * statistics.median(probe.durations)}
            if tracer:
                result["layers"] = tracer.layer_metrics(probe.reference_seconds)
                result["spans"] = tracer.spans
    probe.stop()
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
