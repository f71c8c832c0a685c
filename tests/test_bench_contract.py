"""The benchmark tracer against the program it traces.

bench/spans.py wraps program functions by name, and its hooks read their
arguments by name: `ulam_matrix(pmap, u, beta, N, quad_points)`, `n` of
`asclt_run`, `maxima_run`, `smb_run` and `ow_run`, and `emp` of
`kantorovich`.  bench/test_bench.py lies outside this suite, so a
signature change in the program could break a traced benchmark pass while
every test here stays green.  The first test runs the ten subcommands once
under the tracer, on perturbed doubling with the sawtooth observable at the
sizes of test_golden.py, and checks that the `transfer.legendre` span,
which the tracer also wraps by name, times the rate solve; the second checks the point and Kantorovich counts
of one symbolic (doubling) asclt run.  The last one parses every
benchmark config and builds its map and observable.
"""

import sys
from pathlib import Path

from ergostat.cli import SUBCOMMANDS, run
from ergostat.config import build_map, build_observable, parse_config
from test_golden import MAPS, config_text

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
                text = config_text(MAPS["perturbed-sawtooth"], sub, tmp_path / sub)
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
    # the merged orbit, symbol and exceedance layers still feed their hooks
    assert counts["erdos_renyi.ld_probability_mc.trials"] > 0
    assert counts["erdos_renyi.er_law_check.windows"] > 0
    assert counts["maps.symbol_chunks.symbols"] > 0
    assert counts["maps.orbit_value_chunks.values"] > 0
    # the rate solve that erdos-renyi and ld-check call stays inside its span
    assert tracer.self_s["transfer.legendre"] > 0
    # the rate curve draws its orbit inside the estimator's span
    assert tracer.self_s["erdos_renyi.rate_estimator"] > 0


def test_traced_doubling_asclt_counts_points_and_ladder_calls(tmp_path):
    # the symbolic path: every orbit point comes from points_from_symbols
    # (quadrature sigma^2 reads no orbit), and every checkpoint of every
    # seed is one kantorovich call on that checkpoint's atoms
    sys.path.insert(0, BENCH)
    try:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            text = config_text(MAPS["doubling-sawtooth"], "asclt", tmp_path).replace(
                "method = orbit", "method = quadrature")
            cfg = parse_config(text)
            code = run("asclt", cfg)
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(BENCH)
    assert code == 0
    seeds, horizon = cfg.get("run", "seeds"), cfg.get("run", "horizon")
    checkpoints = cfg.get("run", "checkpoints")
    counts = tracer.counts
    assert counts["maps.points_from_symbols.points"] == horizon * len(seeds)
    assert counts["measures.kantorovich.calls"] == len(checkpoints) * len(seeds)
    assert counts["measures.kantorovich.atoms_sorted"] == sum(checkpoints) * len(seeds)


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
        cfg = parse_config(text)
        assert cfg.get("run", "threads") == 1
        # the constructors read these configs' keys as the benchmark means them
        pmap = build_map(cfg)
        build_observable(cfg, pmap)
