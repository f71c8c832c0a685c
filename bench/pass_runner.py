"""One benchmark pass in a fresh interpreter: import the CLI, parse the
pass's configs, then run every invocation through `ergostat.cli.main`,
one after another.

    python3 bench/pass_runner.py PLAN.json RESULT.json

PLAN.json holds `src` (the directory to import ergostat from), `trace`
(bool), `sample` (bool) and `invocations` (a list of [subcommand, config
path, seed offset]).  RESULT.json receives the monotonic time at which
set-up ended, the wall time of every invocation and of the whole pass, the
pass's peak RSS and, when traced, the span metrics of bench/spans.py.

A sampled pass runs the speed sampler of bench/speed.py from its first
line on: set-up and every invocation get the reference timings taken
during them (`setup_reference_s`, `reference_s`), and the sampler's own
time is taken out of their wall times (for set-up it is reported as
`setup_sampler_s`).  A traced pass is not sampled.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import speed


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sampler = speed.Sampler() if plan["sample"] else None
    if sampler:
        sampler.start()
    sys.path.insert(0, plan["src"])
    from ergostat.cli import main as cli_main
    from ergostat.config import parse_config

    invocations = plan["invocations"]
    for _sub, cfg_path, _offset in invocations:
        parse_config(Path(cfg_path).read_text())
    tracer = None
    if plan["trace"]:
        from spans import CLI_SPAN, PASS_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    result = {"ready": ready}
    if sampler:
        result["setup_reference_s"], result["setup_sampler_s"] = sampler.take()

    records = []
    start = time.perf_counter()
    try:
        with tracer.span(PASS_SPAN) if tracer else nullcontext():
            for sub, cfg_path, offset in invocations:
                if sampler:
                    pre = speed.pre_samples()
                    sampler.take()           # samples taken during pre_samples
                t0 = time.perf_counter()
                argv = [sub, "--config", cfg_path, "--seed-offset", str(offset)]
                if tracer:
                    tracer.begin_invocation()
                try:
                    with tracer.span(CLI_SPAN) if tracer else nullcontext():
                        rc = cli_main(argv)
                except Exception:    # a crash fails this invocation, not the pass
                    traceback.print_exc()
                    rc = -1
                record = {"subcommand": sub, "rc": rc, "wall_s": time.perf_counter() - t0}
                if sampler:
                    samples, spent = sampler.take()
                    record["wall_s"] -= spent
                    record["reference_s"] = pre + samples
                records.append(record)
        wall = (time.perf_counter() - start if tracer
                else sum(r["wall_s"] for r in records))
    finally:
        if tracer:
            tracer.uninstall()
        if sampler:
            sampler.stop()

    result.update({
        "wall_s": wall,
        "invocations": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer:
        result["trace"] = tracer.metrics()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
