#!/usr/bin/env python3
"""The repo benchmark: one run of one workload.

    python3 perfbench/run.py --workload rpc-small --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds the server (mspctl) and the
load generator from source in Release mode under $CARGO_TARGET_DIR
(default .bench_build), prints a provenance line, then runs the load
generator, whose last stdout line is the result JSON. --self-test runs
the benchmark's own checks and requires a run whose oracle was told to
forget one acked update to fail. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
TARGETS = ["mspctl", "perfbench_loadgen", "perfbench_check", "perfbench_awake"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures and builds the targets; returns the cache dict.
    Configuring every time picks up targets added since the build
    directory was made (a no-op otherwise)."""
    cache_path = os.path.join(out, "CMakeCache.txt")
    subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + TARGETS,
                   check=True, stdout=sys.stderr)
    cache = {}
    with open(cache_path) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def git_sha():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return sha, bool(dirty)
    except (OSError, subprocess.CalledProcessError):
        return None, None


def source_digest():
    """sha256 over every source file the benchmark builds, for checkouts
    that are not git repositories (there is no commit to name)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def filesystem_of(path):
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            fields = line.split()
            mount = fields[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def fsync_probe(directory, records=200):
    """Appends 4 KiB records, fsyncing each, and times the fsyncs."""
    path = os.path.join(directory, "fsync-probe")
    times = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        block = b"\0" * 4096
        for _ in range(records):
            os.write(fd, block)
            start = time.perf_counter()
            os.fsync(fd)
            times.append((time.perf_counter() - start) * 1e6)
    finally:
        os.close(fd)
        os.unlink(path)
    return statistics.median(times), max(times)


def provenance(cache, run_dir):
    sha, dirty = git_sha()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = compiler
    fsync_p50, fsync_max = fsync_probe(run_dir)
    stamp = {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": version,
        "wal_fs": filesystem_of(run_dir),
        "fsync_probe_p50_us": round(fsync_p50, 3),
        "fsync_probe_max_us": round(fsync_max, 3),
    }
    if sha is None:
        stamp["source_sha256"] = source_digest()
    return stamp


def run_loadgen(out, args, extra=()):
    run_dir = os.path.join(out, "runs", "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [os.path.join(out, "perfbench_loadgen"), "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%s" % args.seconds,
               "--trace=%d" % args.trace, "--mspctl=" + os.path.join(out, "msp", "mspctl"),
               "--awake=" + os.path.join(out, "perfbench_awake"),
               "--out-dir=" + run_dir] + list(extra)
    # The load generator and the server it spawns share a process group
    # of their own, so nothing outlives the run even if the generator
    # dies before stopping the server.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: run exceeded %d s" % RUN_TIMEOUT_S)
        stdout = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if stdout is None:
        return 1, None, run_dir
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    return child.returncode, (lines[-1] if result is not None else None), run_dir


def self_test(out):
    check = subprocess.run([os.path.join(out, "perfbench_check")], stdout=sys.stderr)
    if check.returncode != 0:
        log("self-test: FAIL (benchmark checks)")
        return 1
    args = argparse.Namespace(workload="rpc-small", seed=1, seconds=2, trace=0)
    code, line, _ = run_loadgen(out, args, ["--inject-drop-ack"])
    failed = code != 0 and line is not None and json.loads(line)["correct"] is False
    log("self-test: %s (a run whose oracle forgot one acked update %s)"
        % ("PASS" if failed else "FAIL", "failed" if failed else "did NOT fail"))
    return 0 if failed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("error: the repository sources (CMakeLists.txt, src/) are not beside perfbench/")
        return 2
    out = build_dir()
    try:
        cache = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log("error: build failed: %s" % e)
        return 2
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        log("error: refusing to report from a '%s' build" % cache.get("CMAKE_BUILD_TYPE"))
        return 2
    if args.self_test:
        return self_test(out)

    os.makedirs(os.path.join(out, "runs"), exist_ok=True)
    stamp = provenance(cache, os.path.join(out, "runs"))
    print("provenance " + json.dumps(stamp, sort_keys=True), flush=True)
    code, line, run_dir = run_loadgen(out, args)
    if args.trace == 1:
        log("spans: %s" % os.path.join(run_dir, "spans.json"))
    if line is None:
        log("error: the run printed no result")
        return code or 1
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
