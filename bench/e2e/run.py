#!/usr/bin/env python3
"""Builds bench_e2e and runs the end-to-end benchmark.

Each workload runs in its own process. Every metric is printed as
`<workload> <metric> <value> <unit>`. Each run's full record, with a host
fingerprint, is written as one JSON file under --out-dir. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
It holds the end-to-end metrics of BENCHMARK.json, or its per-layer metrics
with --trace 1.

  python3 bench/e2e/run.py --seed 1                   # all four workloads
  python3 bench/e2e/run.py --workload pull_cold --seed 3
  python3 bench/e2e/run.py --workload explore --trace # per-layer + trace file
  python3 bench/e2e/run.py --smoke                    # tiny corpus, 2 s each

Exits non-zero if the build fails, the program's source no longer defines a
registry counter the bench reads, a workload fails, any output is wrong, or
a metric could not be measured (printed as null).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / "build-e2e"
WORKLOADS = ["pull_hot", "pull_cold", "explore", "ingest"]
# A workload process that outlives this is killed and the run fails.
WORKLOAD_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else {}


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return (BUILD_DIR / "bench_e2e").exists()


def undefined_registry_names():
    """Registry names bench_e2e reads that no file under src/ spells out.

    The program registers a counter at its first event, so the bench reads
    a name it cannot find as zero events. This check keeps a renamed
    counter from reading as zero forever.
    """
    try:
        out = subprocess.run([str(BUILD_DIR / "bench_e2e"),
                              "--list-registry-names"],
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return ["(bench_e2e --list-registry-names did not run)"]
    names = out.stdout.split()
    if out.returncode or not names:
        return ["(bench_e2e --list-registry-names failed)"]
    source = "".join(path.read_text(errors="replace")
                     for path in sorted((ROOT / "src").rglob("*"))
                     if path.suffix in (".cc", ".h"))
    return [name for name in names if f'"{name}"' not in source]


def cmake_cache(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.exists():
        return ""
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip() or "unknown"
    return sha + ("-dirty" if dirty.stdout.strip() else "")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint(record, seed):
    return {
        "nproc": os.cpu_count(),
        "hardware_threads": record.get("hardware_threads"),
        "cpu_model": cpu_model(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": os.path.basename(cmake_cache("CMAKE_CXX_COMPILER")) +
                    " " + str(record.get("compiler", "")),
        "git_sha": git_sha(),
        "seed": seed,
    }


def run_workload(workload, args, out_dir):
    trace_file = out_dir / f"trace_{workload}.json"
    command = [str(BUILD_DIR / "bench_e2e"), f"--workload={workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--work={BUILD_DIR / 'work'}"]
    if args.trace:
        command += ["--trace", f"--trace-out={trace_file}"]
    if args.smoke:
        command.append("--smoke")
    started = time.time()
    log(f"run.py: {workload} seed={args.seed} seconds={args.seconds}"
        f"{' traced' if args.trace else ''}")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} timed out after {WORKLOAD_TIMEOUT_S}s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {workload} printed no result (exit {proc.returncode})")
        return None
    record["exit_code"] = proc.returncode
    record["started_unix"] = started
    record["host"] = host_fingerprint(record, args.seed)
    kind = "trace" if args.trace else "run"
    path = out_dir / f"{workload}_seed{args.seed}_{kind}_{int(started * 1000)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    log(f"run.py: wrote {path}")
    return record


def sample_note(record, metric):
    """Percentile and sample counts behind a latency metric."""
    if metric not in ("p50_ms", "tail_ms"):
        return ""
    ops = record.get("ops", {})
    ingest = record.get("workload") == "ingest"
    types = ["cycle"] if ingest else [t for t in ("pull", "bounds", "query")
                                      if t in ops]
    pct = "p50" if metric == "p50_ms" else ("p75" if ingest else "p99")
    counts = ", ".join(f"{t} n={int(ops[t].get('count', 0))}" for t in types)
    prefix = "geometric mean of " if len(types) > 1 else ""
    return f"  ({prefix}{pct}; {counts})"


def format_value(value):
    return "null" if value is None else f"{value:.6g}"


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(bench.get("run_seconds", 15)))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="traced run: print per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, 2 s per workload, same checks")
    parser.add_argument("--out-dir", default=str(BUILD_DIR / "results"),
                        help="where the per-run JSON records go")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 2.0

    if not build():
        log("run.py: build failed")
        return 1
    undefined = undefined_registry_names()
    if undefined:
        log("run.py: the program no longer defines these registry names "
            "the benchmark reads: " + " ".join(undefined))
        return 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    section = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in bench.get(section, [])]
    workloads = [args.workload] if args.workload else WORKLOADS
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        record = run_workload(workload, args, out_dir)
        if record is None:
            return 1
        measured = record.get(section, {})
        names = declared or list(measured)
        for name in names:
            if name not in measured:
                log(f"run.py: {workload} did not report {name}")
                correct = False
                continue
            value, unit = measured[name]["value"], measured[name]["unit"]
            print(f"{workload} {name} {format_value(value)} {unit}"
                  f"{sample_note(record, name)}")
            if value is None:
                log(f"run.py: {workload} measured no value for {name}")
                correct = False
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
        for message in record.get("failures", []) + record.get("guards", []):
            print(f"{workload} FAILED {message}")
        correct = correct and bool(record.get("correct")) and \
            record.get("exit_code") == 0
        attempted += int(record.get("attempted", 0))
        failed += int(record.get("failed", 0))
        print(f"{workload} failed_ops {int(record.get('failed', 0))} of "
              f"{int(record.get('attempted', 0))}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
