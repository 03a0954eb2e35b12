#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Checks, in about a minute on four cores:
  - BENCHMARK.json against the benchmark contract (keys, names, limits);
  - a smoke-sized pass of every workload, traced and untraced: the
    result line's schema, every metric BENCHMARK.json names printed with
    its unit, correct outputs, and a trace file Perfetto can load;
  - corpus_batch profile digests equal across --jobs 1 and --jobs nproc,
    and equal to the serial references;
  - run.py failing fast in a directory that holds only BENCHMARK.json
    and the benchmark's own files.
Exit status 0 when every check passed.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(isinstance(spec["command"], list) and
          1 <= len(spec["command"]) <= 32 and
          all(isinstance(c, str) and len(c) <= 200 and not c.startswith("/")
              and ".." not in c.split("/") for c in spec["command"]),
          "command is a list of relative strings")
    check(1 <= len(spec["paths"]) <= 16 and
          all(PATH.match(p) and not p.startswith("/") and ".." not in p
              for p in spec["paths"]), "paths")
    rs = spec["run_seconds"]
    check(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds in 1..60")
    check(2 <= len(spec["workloads"]) <= 8 and
          all(set(w) == {"name", "why"} and NAME.match(w["name"]) and
              0 < len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "workloads")
    check(1 <= len(spec["end_to_end"]) <= 16 and
          all(set(m) == {"name", "unit", "better", "bound"} and
              0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "end_to_end metrics with bounds <= 0.25")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and
              m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s is an end-to-end metric")
    check(1 <= len(spec["per_layer"]) <= 128 and
          all(set(m) == {"name", "unit", "better"}
              for m in spec["per_layer"]), "per_layer metrics")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in
                                            spec["workloads"]]
    check(all(NAME.match(n) for n in names) and
          len(names) == len(set(names)), "names are valid and unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
              for m in metrics), "units and directions")
    check(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json <= 64 KiB")


def run(workload, trace, seconds="1", extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", seconds, "--trace", trace,
           *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.splitlines()
    return p, lines, json.loads(lines[-1]) if lines else None


def check_result(workload, trace, spec):
    p, lines, r = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    check(p.returncode == 0 and r is not None, f"{tag}: exits 0 with a result")
    if r is None:
        print(p.stderr[-2000:])
        return
    check(set(r) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys")
    check(r["correct"] is True and r["failed"] == 0 and
          isinstance(r["attempted"], int) and r["attempted"] >= 1,
          f"{tag}: correct, attempted >= 1, failed 0")
    want = spec["end_to_end" if trace == "0" else "per_layer"]
    got = r["metrics"]
    check(set(got) == {m["name"] for m in want},
          f"{tag}: prints exactly the metrics BENCHMARK.json names")
    check(all(m["name"] in got and got[m["name"]]["unit"] == m["unit"] and
              isinstance(got[m["name"]]["value"], (int, float)) and
              math.isfinite(got[m["name"]]["value"]) for m in want),
          f"{tag}: every metric has a finite value and its unit")
    if trace == "0":
        check(all(got[m]["value"] != 0 for m in got),
              f"{tag}: no end-to-end metric is 0")
    else:
        path = os.path.join(ROOT, ".bench_out", f"trace-{workload}-1.json")
        try:
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            ok = len(events) > 0 and all(
                {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(e)
                for e in events)
        except (OSError, ValueError, KeyError):
            ok = False
        check(ok, f"{tag}: trace file is Chrome trace-event JSON")


def digest_lines(lines, kind):
    return {l.split()[2]: l.split()[3] for l in lines
            if l.startswith(f"# {kind} ") and len(l.split()) == 4}


def check_jobs_invariance():
    outs = []
    for jobs in ("1", str(os.cpu_count() or 1)):
        p, lines, r = run("corpus_batch", "0", "0.3", ["--jobs", jobs])
        outs.append((digest_lines(lines, "out"), digest_lines(lines, "ref")))
    check(len(outs[0][0]) == 31 and outs[0][0] == outs[1][0],
          "corpus_batch: profile digests equal at --jobs 1 and --jobs nproc")
    check(outs[0][0] == outs[0][1],
          "corpus_batch: batch profiles equal their references")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "sweep_eager", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    check(p.returncode != 0 and not p.stdout.strip(),
          "run.py fails without a result when the sources are absent")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            check_result(w["name"], trace, spec)
    check_jobs_invariance()
    check_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
