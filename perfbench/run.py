"""Run one workload of the fhsforge benchmark, check it and print its metrics.

    python3 perfbench/run.py --workload paper-build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Every pass runs in a fresh worker process (worker.py) with cold library
caches and a pinned environment.  Passes repeat while another one fits in
--seconds; there is always at least one.  With --trace 0 the run also starts
set-up-only processes and reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it runs one untraced pass, then replays it with spans and
once more with tracemalloc, and reports the per-layer metrics, plus the
tracing overhead.  Times are in reference seconds (speed.py).  The last
line of stdout is the JSON result; the full record, with the machine and
the spans, goes to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper-build", "paper-verify", "orbit-oracle")
SETUP_PROCESSES = 4  # set-up-only processes per untraced run, besides the passes
DEADLINE_S = 170  # every run must end within 180 s


class BenchError(Exception):
    pass


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FHSFORGE_CAP", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def machine() -> dict:
    def read(path, prefix=""):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": read("/proc/cpuinfo", "model name"),
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        result = Path(tmp) / "result.json"
        start = time.monotonic()
        argv = [sys.executable, str(WORKER), mode, workload, str(seed), tmp, str(result),
                repr(start)]
        proc = subprocess.Popen(argv, cwd=ROOT, env=pinned_env(),
                                stdin=subprocess.DEVNULL, stdout=sys.stderr.fileno())
        try:
            code = proc.wait(timeout=max(deadline - start, 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process passed the {DEADLINE_S} s deadline")
        finally:
            if proc.poll() is None:  # timed out, or run.py itself was stopped
                proc.kill()
                proc.wait()
        if code != 0 or not result.is_file():
            raise BenchError(f"{mode} process exited with code {code}")
        data = json.loads(result.read_text())
    for unit in ("seconds", "ref_seconds") if "ops" in data else ():
        times = [op[unit] for op in data["ops"]]
        suffix = "s" if unit == "seconds" else "ref_s"
        data[f"wall_{suffix}"] = sum(times)
        data[f"max_item_{suffix}"] = max(times)
    return data


def summarize(values: list[float]) -> dict:
    return {"value": statistics.median(values), "samples": len(values),
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "fhsforge" / "__init__.py").is_file():
        print(f"error: no fhsforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    def run(mode: str) -> dict:
        return spawn(mode, args.workload, args.seed, deadline)

    problems = []
    if args.workload == "paper-verify":
        problems += run("selftest")["problems"]
    setups = [] if args.trace else [run("setup") for _ in range(SETUP_PROCESSES)]
    passes = []
    begin = time.monotonic()
    while True:
        passes.append(run("pass"))
        longest = max(p["wall_s"] for p in passes)
        if args.trace or time.monotonic() - begin + longest > args.seconds:
            break
    setups += passes
    replays = [run("traced"), run("memory")] if args.trace else []

    checked = passes + replays
    ops = [op for p in checked for op in p["ops"]]
    failures = [op for op in ops if op["problems"]]
    for replay in replays:
        for plain, again in zip(passes[0]["ops"], replay["ops"]):
            if plain["detail"] != again["detail"]:
                problems.append(f"traced replay of {plain['name']} differs from the "
                                "untraced run's output")

    measured = {name: summarize([p[name] for p in setups])
                for name in ("setup_s", "setup_raw_s")}
    for name in ("wall_ref_s", "max_item_ref_s", "peak_rss_mb", "wall_s", "max_item_s"):
        measured[name] = summarize([p[name] for p in passes])
    if replays:
        traced, memory = replays
        layers = traced["layers"] | {name: value for name, value in memory["layers"].items()
                                     if name.endswith("_peak_mb")}
        measured = {name: {"value": value, "samples": 1} for name, value in layers.items()}
        measured["trace.overhead_s"] = {
            "value": traced["wall_ref_s"] - passes[0]["wall_ref_s"], "samples": 1}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}

    host = machine()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in host.items()))
    shown = wanted if args.trace else wanted + [
        {"name": name, "unit": "s"} for name in ("setup_raw_s", "wall_s", "max_item_s")]
    for m in shown:
        got = measured[m["name"]]
        print(f"  {m['name']:28} {got['value']:>14.6g} {m['unit']:6} "
              f"median of {got['samples']}")
    print(f"  {'failed_frac':28} {len(failures) / len(ops):>14.6g} {'':6} "
          f"{len(failures)} of {len(ops)} operations")
    for op in failures:
        print(f"FAILED {op['name']}: {'; '.join(op['problems'])}")
    for problem in problems:
        print(f"FAILED {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": host, "measured": measured, "problems": problems,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in checked],
        "spans": replays[0]["spans"] if replays else None,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))

    print(json.dumps({"correct": not failures and not problems, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
