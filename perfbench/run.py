#!/usr/bin/env python3
"""Update-window benchmark: build the engine in Release, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload nightly --seed 1 --seconds 20 --trace 0

Workloads are nightly, served and beyond_ram (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit status is non-zero when a window
or a read failed, the build failed, or the engine sources are missing.

The first run configures and builds into .bench_build/ (a few minutes);
later runs only re-check the build.  Scratch files (journal, page images)
go to .bench_work/ and are removed at exit; trace files go to .bench_out/.
Extra flags (--sf, --inject-corruption) are for the self-tests in
perfbench/tests/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "wuw_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["nightly", "served", "beyond_ram"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sf", type=float)
    p.add_argument("--inject-corruption", action="store_true")
    return p.parse_args()


def source_digest():
    """sha256 over the engine and benchmark sources, for the result stamp."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", BUILD, "--target", "wuw_perfbench",
                    "-j", jobs])


def run_build_step(cmd):
    # Build output goes to stderr: stdout's last line is the result.
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def main():
    args = parse_args()
    knobs = sorted(k for k in os.environ if k.startswith("WUW_"))
    if knobs:
        fail("refusing to run with engine knobs set: " + ", ".join(knobs))
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources at ./src; run from the repository root")
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(WORK, str(os.getpid())),
           "--out-dir", OUT, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    if args.sf is not None:
        cmd += ["--sf", str(args.sf)]
    if args.inject_corruption:
        cmd.append("--inject-corruption")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(WORK, str(os.getpid())),
                      ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    sys.exit(code if code >= 0 else 3)


if __name__ == "__main__":
    main()
