#!/usr/bin/env python3
"""Lists the deterministic per-layer counts that moved between two traced runs.

    python3 simbench/run.py --workload fig05_fast --trace 1 > before.txt  # parent
    python3 simbench/run.py --workload fig05_fast --trace 1 > after.txt   # change
    python3 simbench/count_diff.py before.txt after.txt

Each file holds the stdout of one or more traced runs (outputs of several
workloads may be concatenated). Runs pair up by workload and seed. Every
count a traced run prints on its `simbench-counts` line is compared exactly:
the workload-wide per-layer counts and the per-run outcome of each roster
entry. Host times are never compared.

Exit status: 0 when no count moved, 1 when any moved, 2 when the inputs
hold no traced run or do not pair up.
"""
import json
import sys

PREFIX = "simbench-counts "


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith(PREFIX):
                rec = json.loads(line[len(PREFIX):])
                runs[(rec["workload"], rec["seed"])] = rec["counts"]
    return runs


def fmt(v):
    return "absent" if v is None else f"{v:.17g}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[1]), load(argv[2])
    if not before or not after:
        print("count_diff: no simbench-counts line in one of the inputs", file=sys.stderr)
        return 2
    unpaired = sorted(set(before) ^ set(after))
    for workload, seed in unpaired:
        side = argv[1] if (workload, seed) in before else argv[2]
        print(f"count_diff: {workload} seed {seed} only in {side}", file=sys.stderr)
    moved_any = False
    for key in sorted(set(before) & set(after)):
        a, b = before[key], after[key]
        names = list(a) + [n for n in b if n not in a]
        moved = [(n, a.get(n), b.get(n)) for n in names if a.get(n) != b.get(n)]
        moved_any = moved_any or bool(moved)
        print(f"{key[0]} (seed {key[1]}): {len(moved)} of {len(names)} counts moved")
        for name, x, y in moved:
            rel = f"  ({(y - x) / x:+.4%})" if x and y is not None else ""
            print(f"  {name:44s} {fmt(x)} -> {fmt(y)}{rel}")
    if unpaired:
        return 2
    return 1 if moved_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
