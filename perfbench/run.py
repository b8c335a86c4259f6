#!/usr/bin/env python3
"""Campaign benchmark: builds acf_perfbench from the repository's sources and
runs one workload.  See perfbench/README.md.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--only METRIC[,METRIC...]]
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --record-digests

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
BENCHMARK.json's end_to_end set, with --trace 1 its per_layer set.  Each run
also writes the result with its build provenance under
.bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = REPO / ".bench_build" / "perfbench"
BINARY = BUILD / "acf_perfbench"
DIGESTS = HERE / "digests.json"

# Set-up is timed this many times per allowed CPU and run, each time in a
# separate process.
SETUP_PROBES_PER_CPU = 25
# digests.json records these seeds for every workload.
RECORDED_SEEDS = range(100)
# A run must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        return json.loads((REPO / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def build(target="acf_perfbench"):
    """Configures (once) and builds `target`; build logs go to stderr."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target, "-j",
                  str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def setup_seconds(workload, seed):
    """Entry into main to the pool's first world request, timed by each
    probe process itself.  Like the timed rounds, the probes rotate over the
    allowed CPUs.  Host interference only ever slows a probe, so the result
    is the fastest probe."""
    allowed = sorted(os.sched_getaffinity(0))
    samples = []
    try:
        for probe in range(SETUP_PROBES_PER_CPU * len(allowed)):
            os.sched_setaffinity(0, {allowed[probe % len(allowed)]})  # the probe inherits it
            result = subprocess.run(
                [str(BINARY), "--workload", workload, "--seed", str(seed), "--setup-probe"],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if result.returncode != 0:
                fail(f"set-up probe failed: {result.stderr.strip()}")
            samples.append(int(result.stdout.split()[-1]) / 1e9)
    finally:
        os.sched_setaffinity(0, allowed)
    return min(samples)


def source_digest():
    """sha256 over the library sources, for provenance in checkouts that are
    not git repositories."""
    sha = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*")):
        if path.is_file():
            sha.update(str(path.relative_to(REPO)).encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()


def git_commit():
    if not (REPO / ".git").exists():
        return None
    result = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def recorded_digest(workload, seed):
    try:
        table = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return None
    return table.get(workload, {}).get(str(seed))


def run(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}' (known: {', '.join(names)})", 2)
    section = "end_to_end" if args.trace == 0 else "per_layer"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    only = None
    if args.only is not None:
        only = [name for name in args.only.split(",") if name]
        unknown = [name for name in only if name not in declared]
        if not only or unknown:
            fail(f"unknown {section} metric(s) for --trace {args.trace}: "
                 f"{', '.join(unknown) or '(none given)'}", 2)

    build()
    setup_s = setup_seconds(args.workload, args.seed) if args.trace == 0 else None

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    expected = recorded_digest(args.workload, args.seed)
    if expected:
        command += ["--expect-digest", expected]
    if args.trace == 1:
        command += ["--trace-out", str(results / f"{stem}.spans.jsonl")]
    try:
        child = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(child.stderr)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        fail(f"acf_perfbench exited with {child.returncode}")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    metrics = report["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    produced = {name: m["unit"] for name, m in metrics.items()}
    if produced != declared:
        fail(f"metrics do not match BENCHMARK.json's {section} set: "
             f"missing {sorted(set(declared) - set(produced))}, "
             f"extra {sorted(set(produced) - set(declared))}, or units differ")
    if only is not None:
        metrics = {name: metrics[name] for name in only}

    provenance = dict(report["provenance"])
    provenance.update({"git_commit": git_commit(), "src_sha256": source_digest(),
                       "digest": report["digest"], "recorded_digest": expected,
                       "run_seconds": args.seconds, "trace": args.trace})
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    (results / f"{stem}.json").write_text(
        json.dumps(dict(result, provenance=provenance), indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


def self_test():
    build("perfbench_tests")
    result = subprocess.run([str(BUILD / "perfbench_tests")])
    sys.exit(result.returncode)


def record_digests(bench):
    """Rewrites digests.json with every workload's digest for every recorded
    seed."""
    build()
    table = {}
    for workload in (w["name"] for w in bench["workloads"]):
        table[workload] = {}
        for seed in RECORDED_SEEDS:
            result = subprocess.run(
                [str(BINARY), "--workload", workload, "--seed", str(seed), "--digest-only"],
                capture_output=True, text=True)
            if result.returncode != 0:
                fail(f"{workload} seed {seed}: {result.stderr.strip()}")
            table[workload][str(seed)] = result.stdout.strip()
            print(f"{workload} seed {seed}: {table[workload][str(seed)]}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--only", help="comma-separated metric names to report")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        self_test()
    bench = load_benchmark()
    if args.record_digests:
        record_digests(bench)
        return
    missing = [flag for flag, value in (("--workload", args.workload), ("--seed", args.seed),
                                        ("--seconds", args.seconds), ("--trace", args.trace))
               if value is None]
    if missing:
        parser.error(f"missing {', '.join(missing)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    run(args, bench)


if __name__ == "__main__":
    main()
