#!/usr/bin/env python3
"""Runs one workload of the repository benchmark described in BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload label|train|serve --seed N \\
        --seconds S --trace 0|1

Builds the library and the perfbench binary from source into .bench_build/
(incrementally after the first run), pins AIRCH_THREADS, runs the
workload and checks its result against BENCHMARK.json. Standard output
ends with two lines: a stamp ({"env": {...}, "timings": {...},
"figures": {...}, "failures": [...]}: machine, compiler, build type,
source revision, threads and seed; the median, highest supported
percentile and count of the samples behind the metrics; the workload's
own per-case figures; the first gate failures), then one JSON object
with exactly the keys correct, attempted, failed and metrics. Every
workload reports the same metrics. With --trace 0 they are the
end-to-end metrics from an untraced run; with --trace 1 the per-layer
metrics from a traced run, and the spans are written to
.bench_build/traces/. Exits non-zero, without a result,
when the sources are missing, the build fails or the workload errors.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
TEST_BINARY = BUILD_DIR / "perfbench_test"
# AIRCH_THREADS for every workload. One, not nproc: on a shared 4-vCPU
# host, a second kernel thread bought `train` and `serve` nothing
# (training ran 5-15% faster on one thread, closed-loop serving 30-50%),
# while the extra vCPU time it asked for drew host steal that tracked the
# run-to-run spread; only `label`'s cold phase ran faster on two threads
# (about 1.3x).
KERNEL_THREADS = 1
# A run must end within 180 s; the binary gets what is left after the build.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found under " + str(ROOT / "src"))
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed; full log in " + str(log_path))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """Git commit when run in a clone, plus a digest of the sources built,
    which identifies the code in a checkout that is not a git repository."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return git_rev, digest.hexdigest()


def check_metrics(spec, result, trace):
    """The run must emit exactly the metrics BENCHMARK.json declares for
    the section it reports, each in its declared unit."""
    section = spec["per_layer" if trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    emitted = {name: metric.get("unit") for name, metric in result["metrics"].items()}
    if emitted != declared:
        fail("metrics %s do not match BENCHMARK.json's %s" %
             (sorted(emitted.items()), "per_layer" if trace else "end_to_end"))


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    threads = min(KERNEL_THREADS, os.cpu_count() or 1)
    env = dict(os.environ, AIRCH_THREADS=str(threads))
    workdir = BUILD_ROOT / ("work-%d" % os.getpid())
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload exited with code %d" % proc.returncode)
    report = json.loads(lines[-1])
    check_metrics(spec, report, args.trace)

    git_rev, source_sha256 = source_revision()
    report_env = report["env"]
    report_env.update({"nproc": os.cpu_count(), "cpu_model": cpu_model(), "git_rev": git_rev,
                       "source_sha256": source_sha256, "workload": args.workload,
                       "seconds": args.seconds, "trace": args.trace})
    print(json.dumps({"env": report_env, "timings": report["timings"],
                      "figures": report["figures"], "failures": report["failures"]}))
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
