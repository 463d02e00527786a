#!/usr/bin/env python3
"""Build and run the gcaching benchmark.

    python3 gcbench/run.py --workload sweep-grid --seed 1 --seconds 40 --trace 0

Run it from the repository root. It builds the library from src/ and the
benchmark binary from gcbench/src/ into .bench_build/, then runs one
workload: sweep-grid, gcached-hot or gcached-fill. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics and writes the spans next to the build. gcbench/METRICS.md
describes every workload and metric. Exits non-zero when a build step fails,
when an output check fails, or when the library sources are missing.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-grid", "gcached-hot", "gcached-fill")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"gcbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "gcbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            die(f"build step timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")
    return out / "gcbench"


def git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the library and benchmark sources (path and content)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb one measured output; the run must fail")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources at {ROOT / 'src'}: run from a full checkout")

    golden = json.loads((HERE / "golden.json").read_text())
    digests = golden["sweep_grid_digest"]
    golden_seed = str(args.seed) if str(args.seed) in digests \
        else str(golden["primary_seed"])

    out = ROOT / ".bench_build"
    exe = build(out)

    # Only a repository rooted here describes these sources.
    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    commit = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain") if commit else None
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--golden", f"{golden_seed}:{digests[golden_seed]}",
           "--commit", commit or "unknown (not a git checkout)",
           "--dirty", "unknown" if status is None else str(int(bool(status))),
           "--src-digest", source_digest(), "--out-dir", str(out)]
    if args.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
