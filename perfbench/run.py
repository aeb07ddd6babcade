#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (and with it the engine library from ../src) into
.bench_build/ at the root of the checkout, runs the pgch_perfbench binary
with every PGCH_* variable removed from its environment, and prints:

  * with --trace 0, every end-to-end metric by name with its unit;
  * with --trace 1, every per-layer metric by name with its unit and the
    last traced job's layer breakdown (the binary also writes a Chrome
    trace-event file under .bench_build/traces/);
  * as the last stdout line, {"correct", "attempted", "failed", "metrics"}.

Metric units come from BENCHMARK.json at the root of the checkout. The
full record (metrics, samples, the config the job ran, host, source
revision) is appended as one JSON line to .bench_build/results.jsonl, or
to --out; perfbench/compare.py compares two such files.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pgch_perfbench")
# Every run must finish within 180 s of its start (the build excepted).
RUN_DEADLINE_S = 175.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("PGCH_")}


def build():
    """Configure once, then build incrementally. Build output -> stderr."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", BUILD, "--target", "pgch_perfbench",
                 "-j", "4"])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=clean_env())
        if proc.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def read_text(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        return ""


def host_info():
    cpu = ""
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = read_text(os.path.join(BUILD, "CMakeCache.txt"))
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    compiler = ""
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        text = read_text(path)
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            compiler = cid.group(1) + " " + ver.group(1)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": build_type.group(1) if build_type else "",
        "kernel": platform.release(),
    }


def source_revision():
    """Git revision when the checkout is a repository, plus a digest of
    the sources the binary was built from (a checkout without .git still
    gets an identity)."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".pyc")]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return {"git_rev": rev, "source_digest": digest.hexdigest()[:16]}


def declared_metrics(trace):
    """{name: unit} BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values, declared):
    """The binary's {name: value} as {name: {value, unit}}, in declared
    order. A channel the program does not register has no bytes, so a
    missing core.channel_bytes.* reads 0; any other missing or unexpected
    name is an error."""
    values = dict(values)
    for name in declared:
        if name.startswith("core.channel_bytes."):
            values.setdefault(name, 0)
    if set(values) != set(declared):
        raise ValueError("the binary's metrics do not match BENCHMARK.json: "
                         f"missing {sorted(set(declared) - set(values))}, "
                         f"unexpected {sorted(set(values) - set(declared))}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()}


def run_binary(args, deadline):
    cmd = [BINARY] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, env=clean_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: the run did not finish in time")
        return None, None
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSONL file "
                    "(default: .bench_build/results.jsonl)")
    ap.add_argument("--selftest", action="store_true",
                    help="tiny-scale self-test of the benchmark itself")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not build():
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(BUILD, "work")

    if args.selftest:
        code, out = run_binary(["--selftest", "--workdir", workdir], deadline)
        if out:
            sys.stdout.write(out)
        return 1 if code is None else code

    code, out = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", workdir], deadline)
    if code != 0 or not out or not out.strip():
        log(f"perfbench: pgch_perfbench exited with {code}")
        return 3
    lines = out.strip().splitlines()
    record = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    declared = declared_metrics(bool(args.trace))
    if record["correct"]:
        try:
            metrics = with_units(record["metrics"], declared)
        except ValueError as e:
            log(f"perfbench: {e}")
            return 4
    else:
        metrics = {name: {"value": value, "unit": declared.get(name, "")}
                   for name, value in record["metrics"].items()}
    record["metrics"] = metrics

    record["host"] = host_info()
    record.update(source_revision())
    out_path = args.out or os.path.join(BUILD, "results.jsonl")
    with open(out_path, "a") as f:
        f.write(json.dumps(record) + "\n")

    samples = record["samples"]
    jobs = len(samples["traced_cpu_s" if args.trace else "job_cpu_s"])
    kind = "traced" if args.trace else "timed"
    print(f"{record['workload']} seed {record['seed']} ({record['input']}), "
          f"median of {jobs} {kind} jobs:")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    wall = sum(samples["wall_s"])
    if wall > 0:
        steal = sum(h["steal_s"] for h in samples["job_host"])
        cpu = sum(samples["job_cpu_s"])
        print(f"  untraced jobs: {cpu:.3f} s process CPU, {wall:.3f} s wall, "
              f"{steal:.3f} s host steal")
    if record["errors"]:
        for e in record["errors"]:
            log("perfbench: " + e)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
