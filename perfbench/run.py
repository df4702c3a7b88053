#!/usr/bin/env python3
"""End-to-end benchmark of the fgpm engine and query server.

Builds the benchmark binary from this checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), runs one workload in its own
process and prints, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The line before it is a stamp (seed,
git sha, source digest, nproc, build type, FGPM_OBS, thread/shard counts,
pool and cache sizes, database vs pool pages). Progress and a readable
summary go to standard error.

    python3 perfbench/run.py --workload xmark_paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest     # all workloads at tiny sizes

Exit status: 0 on a correct run; 1 when a result disagreed with its
reference or, in a traced run, a predicted bypass (PREDICTIONS) did not
hold (the result line says correct: false), or the build failed; 3 when
the measurement was invalid (no result line).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Predictions the traced run can check (workload, metric, test, text).
PREDICTIONS = [
    ("serve_zipf", "exec.bind_ms", lambda v: v == 0, "no WCOJ binds (every pattern is a tree)"),
    ("serve_zipf", "core.plan_cache_misses", lambda v: v == 0, "no plan-cache misses after warm-up"),
    ("serve_zipf", "storage.page_reads", lambda v: v == 0, "no page reads after warm-up"),
    ("heavy_parallel", "storage.page_reads", lambda v: v == 0, "no page reads after warm-up"),
    ("xmark_paper", "sched.steals", lambda v: v == 0, "no scheduler steals (one thread)"),
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "--build", out, "--target", "fgpm_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "fgpm_perfbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (works without git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        return r.returncode or 1, None
    try:
        return r.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return r.returncode or 1, None


def check_metrics(result, expected):
    """Returns a list of problems: every (name, unit) of `expected` must
    be present with that unit and a finite value."""
    problems = []
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got.get('value')} is not finite")
    return problems


def failed_predictions(result):
    """The predicted bypasses a traced result contradicts, as problems."""
    failed = []
    for workload, name, test, text in PREDICTIONS:
        if workload == result["workload"] and name in result["metrics"]:
            holds = test(result["metrics"][name]["value"])
            log(f"   prediction {name}: {text}: "
                f"{'holds' if holds else 'DOES NOT HOLD'}")
            if not holds:
                failed.append(f"prediction does not hold: {name}: {text}")
    return failed


def summarize(result, trace):
    log(f"== {result['workload']} seed {result['seed']} "
        f"({'traced' if trace else 'untraced'}): correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}")
    for e in result.get("errors", []):
        log(f"   error: {e}")
    for name, m in result["metrics"].items():
        log(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")


def run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"perfbench: unknown workload {args.workload}")
        return 2
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    code, result = run_binary(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    if result is None:
        log(f"perfbench: the workload produced no result (exit {code})")
        return code or 1
    if result.get("valid") is not True:
        log(f"perfbench: invalid measurement: {result.get('valid')}")
        return 3
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    summarize(result, args.trace)
    problems = check_metrics(result, expected)
    if args.trace:
        problems += failed_predictions(result)
    for p in problems:
        log(f"perfbench: {p}")
    correct = bool(result["correct"]) and not problems and code == 0
    stamp = dict(result.get("stamp", {}))
    stamp.update(workload=args.workload, seed=args.seed, trace=args.trace,
                 git_sha=git_sha(), source_digest=source_digest())
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in expected
                    if m["name"] in result["metrics"]},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


def selftest():
    """Every workload at tiny sizes, untraced and traced: all end-to-end
    metrics (plus error_rate) and per-layer metrics present with their
    units and finite values, every result correct, error_rate 0, and the
    predicted bypasses hold."""
    spec = load_spec()
    binary = build()
    if binary is None:
        log("selftest: build failed")
        return 1
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result = run_binary(binary, w["name"], 7, 2, trace, tiny=True)
            tag = f"{w['name']} trace={trace}"
            if result is None or code != 0 or result.get("valid") is not True:
                failures.append(f"{tag}: no valid result (exit {code})")
                continue
            expected = spec["per_layer"] if trace else \
                spec["end_to_end"] + [{"name": "error_rate", "unit": "fraction"}]
            problems = check_metrics(result, expected)
            if not trace and result["metrics"].get("error_rate", {}).get("value") != 0:
                problems.append("error_rate is not 0")
            if trace:
                problems += failed_predictions(result)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} attempted="
                                f"{result['attempted']} failed={result['failed']}")
            failures += [f"{tag}: {p}" for p in problems]
            log(f"selftest: {tag}: {'ok' if not problems else 'FAILED'}")
    for f in failures:
        log(f"selftest: {f}")
    log("selftest: " + ("PASS" if not failures else "FAIL"))
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload or args.seconds <= 0:
        p.error("--workload and a positive --seconds are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
