#!/usr/bin/env python3
"""ergostat benchmark: closed-loop passes through the public CLI.

Run from the repository root:

    python3 bench/run.py --workload smooth --seed 1 --seconds 30 --trace 0

A pass starts a fresh interpreter (bench/pass_runner.py), which imports
`ergostat.cli`, parses the workload's configs and runs every invocation
through `ergostat.cli.main`, one after another, with `threads = 1`.  The
workload seed reaches the program only as `--seed-offset`.  After each
pass the artifacts are checked (bench/checks.py) and deleted.

`--trace 0` repeats passes until `--seconds` is used up (at least three)
and reports the median of each end-to-end metric over the passes.  Its
passes are sampled (bench/speed.py): each invocation's time, and each
pass's set-up, is reported at reference speed, scaled by the reference
loop timed during it, so that other tenants' load on a shared host does
not show as a change of the program.  Raw times go to stderr.
`--trace 1` runs one plain pass, one traced pass (bench/spans.py), one pass
with ERGOSTAT_THREADS=2 and, for another seed than the default, one plain
pass at the default seed whose CSVs are compared with digests.json; it
reports the per-layer metrics.

Standard output ends with a record line (workload, settings, machine) and
then the result line: {"correct", "attempted", "failed", "metrics"}, each
metric with its unit from BENCHMARK.json.  Per-pass figures go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import checks
import speed
from workloads import DEFAULT_SEED, GROUPS, WORKLOADS, seed_offset

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "ergostat" / "cli.py"
WORK_ROOT = ROOT / ".bench_work"

MIN_PASSES = 3
PASS_TIMEOUT_S = 60
# no pass starts that would end past this, so a run stays well inside 180 s
RUN_CAP_S = 100
THREAD_PROBE = "2"


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


class Bench:
    """Configs of one workload in a scratch directory, and its passes."""

    def __init__(self, workdir: Path, workload: str, toy: bool):
        self.workdir = workdir
        self.invocations = WORKLOADS[workload](toy)
        self.out = workdir / "out"
        self.configs = []
        for i, inv in enumerate(self.invocations):
            path = workdir / f"{i}-{inv.subcommand}.cfg"
            path.write_text(inv.config_text(str(self.out / f"{i}-{inv.subcommand}")))
            self.configs.append(str(path))

    def run_pass(self, offset: int, trace: bool = False, threads: str | None = None,
                 digests: bool = False, sample: bool = False) -> dict:
        """One pass in a fresh process; returns its timings and failures."""
        shutil.rmtree(self.out, ignore_errors=True)
        plan = self.workdir / "plan.json"
        result = self.workdir / "result.json"
        result.unlink(missing_ok=True)
        plan.write_text(json.dumps({
            "src": str(ROOT / "src"), "trace": trace, "sample": sample,
            "invocations": [[inv.subcommand, cfg, offset]
                            for inv, cfg in zip(self.invocations, self.configs)]}))
        env = {k: v for k, v in os.environ.items() if k != "ERGOSTAT_THREADS"}
        if threads:
            env["ERGOSTAT_THREADS"] = threads
        pre = speed.pre_samples() if sample else []
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "pass_runner.py"), str(plan), str(result)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
            crashed = proc.returncode != 0 or not result.is_file()
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            crashed, stderr = True, f"pass timed out after {PASS_TIMEOUT_S} s"
        if crashed:
            print(f"pass failed:\n{stderr[-2000:]}", file=sys.stderr)
            return {"failed": len(self.invocations), "crashed": True}
        res = json.loads(result.read_text())
        res["setup_s"] = res["ready"] - started
        if sample:
            res["setup_s"] -= res["setup_sampler_s"]
            res["setup_reference_s"] += pre
        res["failed"] = 0
        for i, (inv, rec) in enumerate(zip(self.invocations, res["invocations"])):
            if rec["rc"] != 0:
                problems = [f"{inv.subcommand}: exit code {rec['rc']}"]
            else:
                problems = checks.check_invocation(
                    inv, self.out / f"{i}-{inv.subcommand}", offset)
            if problems:
                res["failed"] += 1
                print(f"invocation {i} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        if res["failed"]:
            print(proc.stderr[-2000:], file=sys.stderr)
        if digests:
            res["digests"] = checks.csv_digests(self.out)
        shutil.rmtree(self.out, ignore_errors=True)
        return res

    def timings(self, res: dict) -> dict[str, float]:
        """A sampled pass's times at reference speed, and its peak RSS."""
        times = dict.fromkeys(GROUPS, 0.0)
        for inv, rec in zip(self.invocations, res["invocations"]):
            times[inv.group] += speed.at_reference_speed(rec["wall_s"], rec["reference_s"])
        setup = speed.at_reference_speed(res["setup_s"], res["setup_reference_s"])
        return {"wall_s": sum(times.values()), "setup_s": setup,
                "peak_rss_mb": res["peak_rss_mb"], **{f"{g}_s": t for g, t in times.items()}}


def end_to_end(bench: Bench, offset: int, seconds: float) -> tuple[list[dict], dict]:
    passes, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(bench.run_pass(offset, sample=True))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        expected_end = elapsed + statistics.median(durations)
        if passes[-1].get("crashed") or expected_end > RUN_CAP_S:
            break
        if len(passes) >= MIN_PASSES and expected_end > seconds:
            break
    done = [p for p in passes if not p.get("crashed")]
    if not done:
        return passes, {}
    samples = [bench.timings(p) for p in done]
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    for name in samples[0]:
        values = ", ".join(f"{s[name]:.4g}" for s in samples)
        print(f"{name}: median {metrics[name]:.6g} over {len(samples)} passes [{values}]",
              file=sys.stderr)
    for name in ("wall_s", "setup_s"):
        values = ", ".join(f"{p[name]:.4g}" for p in done)
        print(f"raw {name}: [{values}]", file=sys.stderr)
    refs = [r for p in done for rec in p["invocations"] for r in rec["reference_s"]]
    print(f"reference loop: median {statistics.median(refs):.4g} s over {len(refs)} samples",
          file=sys.stderr)
    attempted = len(bench.invocations) * len(passes)
    metrics["ok_frac"] = 1.0 - sum(p["failed"] for p in passes) / attempted
    return passes, metrics


def per_layer(bench: Bench, offset: int, workload: str, toy: bool) -> tuple[list[dict], dict]:
    default = seed_offset(DEFAULT_SEED)
    base = bench.run_pass(offset, digests=offset == default)
    traced = bench.run_pass(offset, trace=True)
    threaded = bench.run_pass(offset, threads=THREAD_PROBE)
    ref = base if offset == default else bench.run_pass(default, digests=True)
    passes = [base, traced, threaded] + ([] if ref is base else [ref])
    if any(p.get("crashed") for p in passes):
        return passes, {}

    metrics = dict(traced["trace"])
    for sub in checks.HEADERS:
        metrics[f"cli.{sub}.wall_s"] = sum(
            r["wall_s"] for r in traced["invocations"] if r["subcommand"] == sub)
    expected = {} if toy else json.loads((HERE / "digests.json").read_text())[workload]
    same = sum(ref["digests"].get(path) == digest for path, digest in expected.items())
    metrics["cli.csv_identical_frac"] = same / len(expected) if expected else 0.0
    metrics["cli.thread_speedup"] = base["wall_s"] / threaded["wall_s"]
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
    for name in ("wall_s", "setup_s"):
        print(f"{name}: plain {base[name]:.4g}, traced {traced[name]:.4g}, "
              f"{THREAD_PROBE} threads {threaded[name]:.4g}", file=sys.stderr)
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not PROGRAM.is_file():
        print(f"no program to measure: {PROGRAM.relative_to(ROOT)} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "machine": machine_record(),
              "loadavg_start": os.getloadavg()}

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        bench = Bench(workdir, args.workload, args.toy)
        offset = seed_offset(args.seed)
        if args.trace:
            passes, metrics = per_layer(bench, offset, args.workload, args.toy)
        else:
            passes, metrics = end_to_end(bench, offset, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass                     # another run is still using it
    record["loadavg_end"] = os.getloadavg()
    record["passes"] = len(passes)

    if not metrics:
        print("no pass completed; nothing to report", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    attempted = len(bench.invocations) * len(passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
