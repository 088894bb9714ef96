#!/usr/bin/env python3
"""Build mpbench from source and run one workload of it.

Run from the root of a checkout:

    python3 mpbench/run.py --workload bulk_dense --seed 1 --seconds 10 --trace 0

The first run configures and builds into the directory named by
CARGO_TARGET_DIR (default .bench_build); later runs reuse that build. The
benchmark's output is passed through, so the last line of standard output is
its JSON result: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (the Chrome trace then goes to <build>/trace-<workload>-<seed>.json).
The metric names are checked against BENCHMARK.json. The exit status is
nonzero when the build fails, a correctness check fails or the names drift.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> None:
    build_dir.mkdir(parents=True, exist_ok=True)
    # Serializes concurrent first runs on one checkout.
    with open(build_dir / ".build-lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "Makefile").exists():  # written only by a configure that succeeded
            subprocess.run(
                ["cmake", "-S", str(root / "mpbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(build_dir), "--target", "mpbench", "-j", jobs],
                       check=True, stdout=sys.stderr)


def expected_names(root: Path, trace: bool) -> set:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the full result file here")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(build_dir / "mpbench"), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--data-dir={build_dir / 'data'}"]
    if args.trace:
        cmd.append(f"--trace={build_dir / f'trace-{args.workload}-{args.seed}.json'}")
    if args.json:
        cmd.append(f"--json={args.json}")
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: mpbench ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    drift = expected_names(root, bool(args.trace)) ^ set(result["metrics"])
    if drift:
        sys.stderr.write(proc.stdout)
        print(f"run.py: metric names differ from BENCHMARK.json: {sorted(drift)}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
