#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one
workload in its own process, and prints a provenance block followed by
one JSON result line.

    python3 perfbench/run.py --workload http_tenants --seed 1 \
        --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics (host time, tracing off);
--trace 1 runs with spans on and prints the per-layer metrics, and
writes the spans to .bench_build/traces/<workload>.json.

Extra switches for the sensitivity records in README.md:
    --lockdep off      build with -DCUBICLE_LOCKDEP=OFF (own build dir)
    --mode unikraft    run the deployment in IsolationMode::kUnikraft
    --selftest         check that the workload checkers catch faults
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(lockdep):
    """Configures (once) and builds the perfbench target; its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no CubicleOS source tree at {ROOT / 'src'}; run from a "
             "full checkout")
    bdir = BUILD_ROOT / ("perfbench" if lockdep else "perfbench-nolockdep")
    log = sys.stderr
    if not (bdir / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
               "-DCUBICLE_LOCKDEP=" + ("ON" if lockdep else "OFF")]
        if subprocess.run(cfg, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed", 1)
    return bdir


def source_digest():
    """SHA-256 over src/ and perfbench/ (paths and bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=20).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--",
             "src", "perfbench"],
            capture_output=True, text=True, timeout=20).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (sha or "unknown") + ("+dirty" if dirty else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["http_tenants", "http_bulk", "sql_oltp",
                             "xcall_mt"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--lockdep", choices=["on", "off"], default="on")
    ap.add_argument("--mode", choices=["full", "unikraft"], default="full")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    bdir = build(args.lockdep == "on")
    exe = bdir / "perfbench"
    if args.selftest:
        r = subprocess.run([str(exe), "--selftest"], timeout=RUN_TIMEOUT_S)
        sys.exit(r.returncode)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", args.mode]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.json")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {r.returncode}", 1)
    raw = json.loads(lines[-1])

    prov = raw["provenance"]
    print("provenance:")
    for key, val in [
            ("git_sha", git_sha()),
            ("source_sha256", source_digest()),
            ("build_type", prov["build_type"]),
            ("lockdep", "on" if prov["lockdep"] else "off"),
            ("sanitizer", "none"),
            ("nproc", os.cpu_count()),
            ("hardware_concurrency", prov["hardware_concurrency"]),
            ("workload", args.workload),
            ("mode", prov["mode"]),
            ("seed", args.seed),
            ("run_seconds", args.seconds),
            ("setups", prov["setups"]),
            ("trace", args.trace),
            ("completed", raw["completed"])]:
        print(f"  {key}: {val}")
    for err in raw["errors"]:
        print(f"  check failed: {err}")

    if args.trace:
        metrics = raw["per_layer"]
    else:
        metrics = {name: {"value": raw["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    sys.exit(0 if raw["correct"] else 1)


if __name__ == "__main__":
    main()
