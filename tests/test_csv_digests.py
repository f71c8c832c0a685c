"""tools/csv_digests.py: the comparison of two digest records, which every
same-bytes check of the benchmark CSVs and manifests ends in, and the digest
of a manifest."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "csv_digests", Path(__file__).resolve().parent.parent / "tools" / "csv_digests.py")
csv_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(csv_digests)

RECORD = {"symbolic/00-density/density-1.csv": "aa" * 32,
          "symbolic/03-asclt/asclt-1.csv": "bb" * 32,
          "smooth/05-maxima/maxima-1.csv": "cc" * 32,
          "symbolic/06-erdos-renyi/erdos-renyi-manifest.json": "ee" * 32}


def _compare_files(tmp_path, a, b):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, rec in zip(paths, (a, b)):
        path.write_text(json.dumps(rec))
    return csv_digests.main(["--compare", *map(str, paths)])


def test_equal_records_compare_clean(tmp_path, capsys):
    assert csv_digests.compare(RECORD, dict(RECORD)) == []
    assert _compare_files(tmp_path, RECORD, dict(RECORD)) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 3 CSVs differ",
                                                    "0 of 1 manifests differ"]


@pytest.mark.parametrize("change", ["digest", "only-first", "only-second"])
def test_a_moved_or_missing_csv_exits_1(tmp_path, capsys, change):
    name = "symbolic/03-asclt/asclt-1.csv"
    other = dict(RECORD)
    if change == "digest":
        other[name] = "dd" * 32
    else:
        del other[name]
    a, b = (other, RECORD) if change == "only-second" else (RECORD, other)
    assert csv_digests.compare(a, b) == [name]
    assert _compare_files(tmp_path, a, b) == 1
    assert capsys.readouterr().out.splitlines() == [f"differs: {name}", "1 of 3 CSVs differ",
                                                    "0 of 1 manifests differ"]


def test_a_moved_manifest_field_exits_1(tmp_path, capsys):
    # the wall time and the config hash (it covers the temporary output
    # directory) differ between two runs of the same code; phi does not
    manifest = {"subcommand": "erdos-renyi", "alpha": 0.2, "phi": 0.0822, "beta": 0.847,
                "wall_time_s": 0.25, "config_hash": "ab" * 32}
    path = tmp_path / "erdos-renyi-manifest.json"
    digests = []
    for change in ({}, {"wall_time_s": 0.5, "config_hash": "cd" * 32},
                   {"phi": 0.0822000000001}):
        path.write_text(json.dumps({**manifest, **change}, indent=2))
        digests.append(csv_digests.digest(path))
    assert digests[0] == digests[1] != digests[2]
    name = "symbolic/06-erdos-renyi/erdos-renyi-manifest.json"
    assert _compare_files(tmp_path, RECORD, {**RECORD, name: digests[2]}) == 1
    assert capsys.readouterr().out.splitlines() == [f"differs: {name}", "0 of 3 CSVs differ",
                                                    "1 of 1 manifests differ"]
