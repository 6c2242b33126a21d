#!/usr/bin/env python3
"""Build and run one workload of the cmags benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out <dir>]

Run it from the repository root. It builds `perfbench/` (a cargo package
of its own, built against the library crates by path) in release mode,
runs the workload once, writes the full record (result plus the envelope:
git rev, source digest, date, CPU model, available_parallelism, seed,
build profile) to `--out`, and prints as its last line one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, measured
with no tracing; `--trace 1` reports the per-layer metrics from a traced
run and writes its spans next to the record. See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("braun_cma", "grid_wide", "grid_faulty")
# The per-run wall-time limit of the benchmark contract, less a margin.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the library sources and manifests the binary builds from."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml")))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def build(env):
    """Builds the release binary; cargo's output goes to stderr."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "results", "latest"),
                        help="directory receiving the run's record (and spans)")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no library sources under {ROOT}: run from a full checkout")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    binary = build(env)

    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(args.out, stem + ".spans.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    result = json.loads(lines[-1])

    names = expected_metrics(args.trace)
    missing = [n for n in names if n not in result["metrics"]]
    extra = [n for n in result["metrics"] if n not in names]
    if missing or extra:
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")

    record = {
        "envelope": {
            "git_rev": git_rev(),
            "source_digest": source_digest(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "cpu_model": cpu_model(),
            "available_parallelism": result.pop("available_parallelism"),
            "build_profile": result.pop("build_profile"),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "result": result,
    }
    with open(os.path.join(args.out, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)

    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    summary["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
