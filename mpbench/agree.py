#!/usr/bin/env python3
"""Compare two sets of mpbench result files, one row per workload x metric.

    python3 mpbench/agree.py SET_A SET_B

Each set is a directory of result files (written by `mpbench --json=...` or
`run.py --json ...`) or a single file. Only untraced runs count. For every
workload and end-to-end metric of BENCHMARK.json the script prints each set's
median and quartiles (statistics.quantiles, n=4), the metric's bound, and a
verdict:

  unresolved  a set's spread (quartile distance / median) exceeds the bound
  disagree    the medians differ by more than the bound (relative to set A)
  agree       otherwise

It refuses (exit 2) to compare results whose host fingerprints differ or
whose seeds differ per workload, and exits 1 on any disagreement.
"""
import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "simd_detected", "simd_active", "native", "l2_bytes", "llc_bytes",
             "build_type")


def load(arg: str):
    """Returns [(host fingerprint, run)] for every untraced run in the set."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        data = json.loads(f.read_text())
        host = {k: data["fingerprint"][k] for k in HOST_KEYS}
        runs += [(host, r) for r in data["runs"] if not r["trace"]]
    if not runs:
        sys.exit(f"agree.py: no untraced runs in {arg}")
    return runs


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    sets = [load(a) for a in sys.argv[1:]]

    hosts = {json.dumps(h, sort_keys=True) for s in sets for h, _ in s}
    if len(hosts) != 1:
        print("agree.py: refusing to compare different host fingerprints:", file=sys.stderr)
        for h in sorted(hosts):
            print(f"  {h}", file=sys.stderr)
        return 2
    print(f"host {hosts.pop()}")

    by_workload = [{} for _ in sets]
    for i, s in enumerate(sets):
        for _, run in s:
            by_workload[i].setdefault(run["workload"], []).append(run)
    failed = False
    disagreements = unresolved = 0
    print(f"{'workload':14} {'metric':10} {'set':3} {'median':>13} {'q1':>13} {'q3':>13} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(by_workload[0]) | set(by_workload[1])):
        runs = [w.get(workload, []) for w in by_workload]
        seeds = [sorted(r["seed"] for r in rs) for rs in runs]
        if seeds[0] != seeds[1]:
            print(f"agree.py: {workload}: seeds differ ({seeds[0]} vs {seeds[1]})",
                  file=sys.stderr)
            return 2
        failed |= any(not r["correct"] for rs in runs for r in rs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in rs]) for rs in runs]
            if max(s[3] for s in stats) > bound:
                verdict = "unresolved"
                unresolved += 1
            elif abs(stats[1][0] - stats[0][0]) > bound * abs(stats[0][0]):
                verdict = "disagree"
                disagreements += 1
            else:
                verdict = "agree"
            for label, (med, q1, q3, spread) in zip("AB", stats):
                print(f"{workload:14} {name:10} {label:3} {med:13.6g} {q1:13.6g} {q3:13.6g} "
                      f"{spread:7.3f} {bound:6.3f}  {verdict if label == 'B' else ''}")
    print(f"{disagreements} disagree, {unresolved} unresolved")
    if failed:
        print("agree.py: some runs failed their correctness checks", file=sys.stderr)
    return 1 if disagreements or failed else 0


if __name__ == "__main__":
    sys.exit(main())
