#!/usr/bin/env python3
"""The repo's benchmark: builds upi_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout. The engine and the benchmark program
are compiled with CMake into perfbench/ under the directory named by
CARGO_TARGET_DIR (default .bench_build); write-ahead logs and span files of
the run go to its runs/ subdirectory.
The program's report (every metric by name and unit, diagnostics, span
tables) is echoed; the last line printed is one JSON object with
`correct`, `attempted`, `failed` and the metrics BENCHMARK.json lists:
its `end_to_end` metrics with --trace 0, its `per_layer` ones with --trace 1.
Exits non-zero when the build fails, an answer is wrong, or a listed metric
is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["point_resident", "analytic_evicting", "ingest_durable", "fleet_sessions"]
# One run, set-ups included, must end well inside three minutes.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    """The benchmark's own directory under CARGO_TARGET_DIR (or .bench_build)."""
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def scratch_env(out):
    """The environment for child processes, with temporary files kept under
    `out` so that a run writes nothing outside the checkout."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out):
    """Configures (once) and builds upi_perfbench; returns the binary path."""
    cache = os.path.join(out, "CMakeCache.txt")
    configured = os.path.exists(cache) and any(
        os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile"))
    if configured:
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        configured = bool(home) and home[0].split("=", 1)[1].strip() == HERE
    if not configured:  # never configured, failed, or for another tree
        shutil.rmtree(out, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=scratch_env(out)).returncode != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "upi_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=scratch_env(out)).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(out, "upi_perfbench")


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, work_dir, args, workload):
    """Runs one workload; echoes its report; returns (exit code, result)."""
    cmd = [
        binary,
        f"--workload={workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--work_dir={work_dir}",
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=scratch_env(os.path.dirname(work_dir)))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny data and op counts (the benchmark's own test)")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    out = build_dir()
    try:
        binary = build(out)
    except RuntimeError as e:
        log(str(e))
        return 1
    wanted = listed_metrics(args.trace == 1)
    work_dir = os.path.join(out, "runs")
    os.makedirs(work_dir, exist_ok=True)

    status = 0
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        code, result = run_workload(binary, work_dir, args, workload)
        if result is None:
            log(f"{workload}: exited {code} without a result")
            return code or 1
        missing = [m for m in wanted if m not in result["metrics"]]
        if missing:
            log(f"{workload}: metrics missing from the report: {missing}")
            return 1
        result["metrics"] = {m: result["metrics"][m] for m in wanted}
        print(json.dumps(result), flush=True)
        if code != 0 or not result["correct"]:
            status = code or 1
    return status


if __name__ == "__main__":
    sys.exit(main())
