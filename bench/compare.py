#!/usr/bin/env python3
"""Set two saved outputs of bench/run.py side by side.

    python3 bench/run.py --workload smooth --seed 1 --seconds 30 --trace 0 > base.txt
    python3 bench/run.py --workload smooth --seed 1 --seconds 30 --trace 0 > new.txt
    python3 bench/compare.py base.txt new.txt

Refuses, with exit code 2, when the two records differ in workload, trace
mode, run length or size, or in the machine (CPU count, CPU model, Python,
numpy or scipy version).  Otherwise prints every metric with both values
and new/base.  One pair of runs claims nothing; bench/README.md says how
many runs a claim needs.
"""

from __future__ import annotations

import json
import sys

SAME_SETTINGS = ("workload", "seconds", "trace", "toy")


def load(path: str) -> tuple[dict, dict]:
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_rec, base), (new_rec, new) = load(argv[0]), load(argv[1])
    differ = [k for k in SAME_SETTINGS if base_rec[k] != new_rec[k]]
    differ += [f"machine.{k}" for k, v in base_rec["machine"].items()
               if new_rec["machine"].get(k) != v]
    if differ:
        print("refused: the records differ in " + ", ".join(differ), file=sys.stderr)
        return 2
    print(f"{'metric':42s} {'unit':6s} {'base':>12s} {'new':>12s} {'new/base':>9s}")
    for name, b in base["metrics"].items():
        n = new["metrics"][name]
        ratio = f"{n['value'] / b['value']:.3f}" if b["value"] else "-"
        print(f"{name:42s} {b['unit']:6s} {b['value']:12.6g} {n['value']:12.6g} {ratio:>9s}")
    print(f"correct: base {base['correct']}, new {new['correct']}; failed: "
          f"base {base['failed']}/{base['attempted']}, new {new['failed']}/{new['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
