#!/usr/bin/env python3
"""SHA-256 of every CSV and manifest that the benchmark's invocations write.

    python3 tools/csv_digests.py TREE OUT.json
    python3 tools/csv_digests.py --compare A.json B.json

The first form imports `ergostat` from TREE/src, runs every invocation of
bench/workloads.py (all workloads, full size, seed offset 0) through
`ergostat.cli.run` into a temporary directory, and writes
{"<workload>/<index>-<subcommand>/<file>": sha256} to OUT.json for every
CSV and every manifest.  A manifest is digested without the fields that
differ between two runs of the same code, or that name the numpy it ran
on (`VOLATILE`).  It exits 1 when an invocation does not exit 0.  The
second form lists the files whose digests differ between two such
records, or that only one of them has, and exits 1 if there are any.  A refactor that must leave every CSV and manifest
byte-identical is checked by recording the parent tree and the changed tree
and comparing the two records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
# the wall time, the config hash, which covers the temporary output_dir, and
# the numpy version, which an upgrade that moves no digit changes
VOLATILE = ("wall_time_s", "config_hash", "numpy_version")


def digest(path: Path) -> str:
    """SHA-256 of a CSV's bytes, or of a manifest without its VOLATILE fields."""
    if path.suffix != ".json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = json.loads(path.read_text())
    for key in VOLATILE:
        manifest.pop(key, None)
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def record(tree: Path) -> tuple[dict[str, str], list[str]]:
    """(digests, failed invocations) of every benchmark invocation against tree/src."""
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(BENCH))
    from ergostat.cli import run
    from ergostat.config import parse_config
    from workloads import DEFAULT_SEED, WORKLOADS, seed_offset

    digests, failed = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for workload, make in WORKLOADS.items():
            for i, inv in enumerate(make()):
                name = f"{workload}/{i:02d}-{inv.subcommand}"
                out = Path(tmp) / name
                code = run(inv.subcommand, parse_config(inv.config_text(str(out))),
                           seed_offset=seed_offset(DEFAULT_SEED))
                if code != 0:
                    failed.append(f"{name} exited {code}")
                for path in sorted([*out.glob("*.csv"), *out.glob("*-manifest.json")]):
                    digests[f"{name}/{path.name}"] = digest(path)
    return digests, failed


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The files whose digests differ, or that one record lacks."""
    return sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="compare two records instead of making one")
    parser.add_argument("first", help="TREE, or the first record with --compare")
    parser.add_argument("second", help="OUT.json, or the second record with --compare")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
        moved = compare(a, b)
        for f in moved:
            print(f"differs: {f}")
        for kind, suffix in (("CSVs", ".csv"), ("manifests", ".json")):
            n_moved = sum(f.endswith(suffix) for f in moved)
            n_all = sum(f.endswith(suffix) for f in a.keys() | b.keys())
            print(f"{n_moved} of {n_all} {kind} differ")
        return 1 if moved else 0
    digests, failed = record(Path(args.first).resolve())
    Path(args.second).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    for line in failed:
        print(line, file=sys.stderr)
    n_csv = sum(f.endswith(".csv") for f in digests)
    print(f"{n_csv} CSVs and {len(digests) - n_csv} manifests recorded in {args.second}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
