"""Smoke test of the benchmark itself, kept apart from the program's suite:

    python3 -m pytest -q bench/test_bench.py

Runs every workload at toy size, plain and traced, and checks the result
line against BENCHMARK.json; checks that the tracer puts back every
function it replaced and that traced counts repeat exactly; and checks that
the benchmark refuses to run where there is no program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, toy=True):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace)] + (["--toy"] if toy else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_toy_size(workload, trace):
    result = result_of(run_bench(workload, trace))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert self_total == pytest.approx(values["trace.wall_s"], rel=1e-3)
    else:
        assert values["ok_frac"] == 1.0
        assert all(v > 0 for v in values.values())


COUNTER_RATIOS = ("transfer.ulam_matrix.repeat_frac", "measures.kantorovich.atoms_per_atom",
                  "entropy.return_times_upto.useful_frac")


def test_traced_counts_repeat():
    def counts():
        metrics = result_of(run_bench("many-seeds", 1))["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] == "count" or k in COUNTER_RATIOS}
    first = counts()
    assert first["maps.symbol_chunks.symbols"] > 0
    assert counts() == first


def _functions_by_owner():
    import ergostat.maps
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "ergostat" or name.startswith("ergostat.")]
    owners += [ergostat.maps.PiecewiseMap, ergostat.maps.Branch]
    return {(owner, attr): value for owner in owners
            for attr, value in list(vars(owner).items()) if callable(value)}


def test_tracer_restores_originals():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import ergostat.cli  # noqa: F401
        from spans import TARGETS, Tracer
        before = _functions_by_owner()
        tracer = Tracer()
        tracer.install()
        try:
            during = _functions_by_owner()
            replaced = {attr for (owner, attr), fn in before.items()
                        if during[(owner, attr)] is not fn}
            assert {attr for _, attr, _, _ in TARGETS} <= replaced
        finally:
            tracer.uninstall()
        after = _functions_by_owner()
        assert all(after[key] is value for key, value in before.items())
    finally:
        del sys.path[:2]


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("smooth", 0, cwd=tmp_path, toy=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
