"""tools/csv_digests.py: the comparison of two digest records, which every
same-bytes check of the benchmark CSVs ends in."""

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
          "smooth/05-maxima/maxima-1.csv": "cc" * 32}


def _compare_files(tmp_path, a, b):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, rec in zip(paths, (a, b)):
        path.write_text(json.dumps(rec))
    return csv_digests.main(["--compare", *map(str, paths)])


def test_equal_records_compare_clean(tmp_path, capsys):
    assert csv_digests.compare(RECORD, dict(RECORD)) == []
    assert _compare_files(tmp_path, RECORD, dict(RECORD)) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 3 CSVs differ"]


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
    assert capsys.readouterr().out.splitlines() == [f"differs: {name}", "1 of 3 CSVs differ"]
