#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
algoprof library from src/) into .bench_build/, runs one workload in its
own process, checks the reference profile digests committed in
perfbench/digests.json when the seed matches, and prints the result as
the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace to .bench_out/). Extra options: --jobs N
overrides the worker count of the pooled workloads; --write-digests
records this run's reference digests in perfbench/digests.json.
Exit status 0 when every output was correct, 1 otherwise.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("corpus_batch", "sweep_eager", "daemon_sessions", "all_elements")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: no algoprof sources next to perfbench/ (src/ missing)")
        sys.exit(1)
    os.makedirs(BUILD, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--write-digests", action="store_true")
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"error: build failed: {e}")
        return 1

    os.makedirs(OUT, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--commit", commit()]
    if a.jobs:
        cmd += ["--jobs", str(a.jobs)]
    if a.trace == "1":
        cmd += ["--trace-out",
                os.path.join(".bench_out", f"trace-{a.workload}-{a.seed}.json")]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {a.workload} ran longer than {RUN_TIMEOUT_S} s")
        return 1
    lines = p.stdout.splitlines()
    if not lines:
        log(f"error: benchmark printed nothing (exit {p.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"error: last line is not a result: {lines[-1][:200]}")
        return 1
    for line in lines[:-1]:
        print(line)

    refs = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[:2] == ["#", "ref"]:
            refs[parts[2]] = parts[3]

    committed = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS) as f:
            committed = json.load(f)
    if a.write_digests:
        committed["seed"] = a.seed
        committed.setdefault("workloads", {})[a.workload] = refs
        with open(DIGESTS, "w") as f:
            json.dump(committed, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"wrote {len(refs)} digests for {a.workload} to {DIGESTS}")
    elif committed.get("seed") == a.seed:
        want = committed.get("workloads", {}).get(a.workload, {})
        for key in sorted(set(want) | set(refs)):
            result["attempted"] += 1
            if want.get(key) != refs.get(key):
                result["failed"] += 1
                result["correct"] = False
                log(f"FAILED: {key}: reference digest {refs.get(key)} "
                    f"!= committed {want.get(key)}")

    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and p.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
