"""The benchmark tracer against the program it traces.

bench/spans.py wraps program functions by name, and its hooks read their
arguments by name: `ulam_matrix(pmap, u, beta, N, quad_points)`, `n` of
`asclt_run`, `maxima_run`, `smb_run` and `ow_run`, and `emp` of
`kantorovich`.  bench/test_bench.py lies outside this suite, so a
signature change in the program could break a traced benchmark pass while
every test here stays green.  This test runs the ten subcommands once under
the tracer, on perturbed doubling with the sawtooth observable at the
sizes of test_golden.py.
"""

import sys
from pathlib import Path

from ergostat.cli import SUBCOMMANDS, run
from ergostat.config import parse_config
from test_golden import MAPS, SIZES

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def test_tracer_hooks_bind_program_signatures(tmp_path):
    sys.path.insert(0, BENCH)
    try:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            codes = {}
            for sub in SUBCOMMANDS:
                tracer.begin_invocation()
                text = MAPS["perturbed-sawtooth"] + SIZES.format(outdir=tmp_path / sub)
                codes[sub] = run(sub, parse_config(text))
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(BENCH)
    assert codes == {sub: 0 for sub in SUBCOMMANDS}
    counts = tracer.counts
    assert counts["transfer.ulam_matrix.calls"] > 0
    assert counts["measures.kantorovich.calls"] > 0
    assert counts["measures.kantorovich.atoms_generated"] > 0


def test_every_benchmark_config_parses(tmp_path):
    sys.path.insert(0, BENCH)
    try:
        from workloads import WORKLOADS
        configs = [inv.config_text(str(tmp_path)) for make in WORKLOADS.values()
                   for toy in (True, False) for inv in make(toy=toy)]
    finally:
        sys.path.remove(BENCH)
    assert len(configs) > 2 * len(WORKLOADS)
    for text in configs:
        assert parse_config(text).get("run", "threads") == 1
