#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload wire_serve --seed 1 --seconds 20 --trace 0

Builds the qpc library, the qpc_serverd daemon and the perfbench load
generator from the sources next to this directory (Release, into
.bench_build/), runs the workload, and prints its result as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

The line before it is a "# stamp {...}" record of the host, build and
source the numbers were measured on; the stamp and the result are also
written to .bench_out/result-<workload>-<seed>-trace<0|1>.json. Compare
absolute timings only between results whose stamps match.

Exits non-zero without a result line when the sources are missing, the
build fails, or the workload does not finish.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"
WORKLOADS = ("wire_serve", "wire_pulses", "grape_cold", "vqe_adaptive")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; tool output goes to
    stderr so stdout stays the result channel."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("qpc sources not found next to perfbench/ "
             "(run from the root of a full checkout)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache) and \
            f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in open(cache).read():
        # A build tree configured for another checkout cannot be reused.
        shutil.rmtree(BUILD)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "qpc_serverd"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def cpu_flags():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model, flags


def source_digest():
    """sha256 over the library, daemon and benchmark sources: the
    revision stamp when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for sub in ("src", "examples", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    # Only the checkout's own repository: never one found above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def stamp(args):
    model, flags = cpu_flags()
    native = "OFF"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("QPC_NATIVE:"):
                    native = line.strip().split("=", 1)[1]
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "build_type": BUILD_TYPE,
        "qpc_native": native,
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args):
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(BUILD, "qpc", "examples", "qpc_serverd"),
           "--out", os.path.relpath(OUT, ROOT)]
    # Own process group: a timeout takes the spawned daemons down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last output line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("the result line has unexpected keys")
    return lines[:-1], lines[-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    build()
    notes, result_line, result = run(args)
    record = stamp(args)
    record["wall_s"] = round(time.monotonic() - started, 3)
    for line in notes:
        print(line)
    print("# stamp " + json.dumps(record, sort_keys=True))
    path = os.path.join(
        OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"stamp": record, "notes": notes, "result": result}, f,
                  indent=1)
    print(result_line, flush=True)


if __name__ == "__main__":
    main()
