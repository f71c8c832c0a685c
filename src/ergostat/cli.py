"""Experiment orchestration: subcommands, CSV artifacts, manifests.

Every subcommand validates its configuration, runs the experiment per
seed, and writes `<subcommand>-<seed>.csv` files plus a JSON manifest
(config hash, package and library versions, wall time).  CSV numbers are
written with 17 significant digits so reruns are byte-identical and
reimports are lossless.  Exit codes: 0 success, 2 configuration error,
3 numeric failure (degenerate variance, convergence, domain), 4 budget
cap hit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import (
    BudgetExceededError,
    ConfigError,
    ConvergenceError,
    DegenerateVarianceError,
    DomainError,
    ErgostatError,
    MapDefinitionError,
)
from .config import ExperimentConfig, build_map, build_observable, parse_config
from .maps import orbit_value_chunks
from .transfer import (
    autocovariance_series,
    green_kubo_sigma2,
    invariant_density,
    legendre,
    pressure_curve,
)
from .asclt import asclt_run, default_checkpoints, maxima_run
from .erdos_renyi import (
    decoupling_check,
    er_law_check,
    ld_probability_mc,
    rate_estimator,
)
from .entropy import ow_run, smb_run

SUBCOMMANDS = (
    "density", "pressure", "sigma2", "asclt", "maxima", "erdos-renyi",
    "rate-curve", "ld-check", "entropy-smb", "entropy-ow",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(outdir: Path, subcommand: str, cfg: ExperimentConfig,
                    wall: float, extra: dict) -> None:
    manifest = {
        "subcommand": subcommand,
        "config_hash": cfg.hash(),
        "ergostat_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "wall_time_s": round(wall, 3),
        **extra,
    }
    path = outdir / f"{subcommand.replace(' ', '')}-manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _seeds(cfg: ExperimentConfig, seed_offset: int) -> list[int]:
    return sorted(int(s) + seed_offset for s in cfg.get("run", "seeds"))


def _threads(cfg: ExperimentConfig) -> int:
    env = os.environ.get("ERGOSTAT_THREADS")
    return int(env) if env else cfg.get("run", "threads")


def _sigma2(cfg: ExperimentConfig, pmap, u) -> float:
    override = cfg.get("sigma2", "value")
    if not math.isnan(override):
        return float(override)
    return green_kubo_sigma2(
        pmap, u, method=cfg.get("sigma2", "method"),
        N=cfg.get("ulam", "resolution"),
        orbit_length=cfg.get("sigma2", "orbit_length"))


def _rate_function(cfg: ExperimentConfig, pmap, u):
    grid = np.linspace(-cfg.get("pressure", "beta_max"),
                       cfg.get("pressure", "beta_max"),
                       cfg.get("pressure", "beta_points"))
    curve = pressure_curve(pmap, u, grid, N=cfg.get("ulam", "resolution"))
    alphas = np.linspace(cfg.get("rate", "alpha_min"), cfg.get("rate", "alpha_max"),
                         cfg.get("rate", "alpha_points"))
    return curve, legendre(curve, alphas)


def _map_over_seeds(fn, seeds, threads):
    """Evaluate fn per seed, in parallel when asked, results in seed order."""
    if threads <= 1 or len(seeds) <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, seeds))


# -- runners ------------------------------------------------------------------

def _run_density(cfg, outdir, seeds):
    N = cfg.get("ulam", "resolution")
    h = invariant_density(build_map(cfg), N)
    rows = [(i, (i + 0.5) / N, h[i]) for i in range(N)]
    for s in seeds:
        _write_csv(outdir / f"density-{s}.csv", ["cell", "midpoint", "density"], rows)
    return {"resolution": N}


def _run_pressure(cfg, outdir, seeds):
    pmap = build_map(cfg)
    u = build_observable(cfg, pmap)
    grid = np.linspace(-cfg.get("pressure", "beta_max"),
                       cfg.get("pressure", "beta_max"),
                       cfg.get("pressure", "beta_points"))
    curve = pressure_curve(pmap, u, grid, N=cfg.get("ulam", "resolution"))
    rows = list(zip(curve.beta_grid, curve.F_values))
    for s in seeds:
        _write_csv(outdir / f"pressure-{s}.csv", ["beta", "pressure"], rows)
    return {"beta_points": len(curve.beta_grid)}


def _run_sigma2(cfg, outdir, seeds):
    pmap = build_map(cfg)
    u = build_observable(cfg, pmap)
    method = cfg.get("sigma2", "method")
    out = {}
    for s in seeds:
        c0, cj = autocovariance_series(
            pmap, u, method, N=cfg.get("ulam", "resolution"),
            orbit_length=cfg.get("sigma2", "orbit_length"), seed=s)
        partial = c0 + 2.0 * np.cumsum(np.concatenate([[0.0], cj]))
        rows = [(0, c0, partial[0])] + [
            (j + 1, cj[j], partial[j + 1]) for j in range(len(cj))]
        _write_csv(outdir / f"sigma2-{s}.csv",
                   ["lag", "covariance", "partial_sigma2"], rows)
        out[f"sigma2_seed_{s}"] = float(partial[-1])
    return out


def _run_asclt(cfg, outdir, seeds, running_max=False):
    pmap = build_map(cfg)
    u = build_observable(cfg, pmap)
    sigma2 = _sigma2(cfg, pmap, u)
    horizon = cfg.get("run", "horizon")
    checkpoints = cfg.get("run", "checkpoints") or default_checkpoints(horizon)
    runner = maxima_run if running_max else asclt_run
    name = "maxima" if running_max else "asclt"

    def one(seed):
        return runner(pmap, u, horizon, seed, checkpoints=checkpoints, sigma2=sigma2)

    for diag in _map_over_seeds(one, seeds, _threads(cfg)):
        rows = [(diag.seed, int(n), k, r) for n, k, r in
                zip(diag.checkpoints, diag.kappa_values, diag.normalized_rates)]
        _write_csv(outdir / f"{name}-{diag.seed}.csv",
                   ["seed", "n", "kappa", "normalized_rate"], rows)
    return {"sigma2": sigma2, "horizon": horizon}


def _run_erdos_renyi(cfg, outdir, seeds):
    pmap = build_map(cfg)
    u = build_observable(cfg, pmap)
    _, rate = _rate_function(cfg, pmap, u)
    alpha = cfg.get("erdos_renyi", "alpha")
    k_grid = cfg.get("erdos_renyi", "k_grid")
    cap = cfg.get("erdos_renyi", "length_cap")

    def one(seed):
        return seed, er_law_check(pmap, u, alpha, rate, k_grid, seed, length_cap=cap)

    for seed, ser in _map_over_seeds(one, seeds, _threads(cfg)):
        rows = [(int(k), m, fl, -ser.band, ser.band) for k, m, fl in
                zip(ser.k_values, ser.M_values, ser.fluctuations)]
        _write_csv(outdir / f"erdos-renyi-{seed}.csv",
                   ["k", "M_k", "fluctuation", "band_lo", "band_hi"], rows)
    return {"alpha": alpha, "beta": rate.beta(alpha), "phi": rate.phi(alpha)}


def _run_rate_curve(cfg, outdir, seeds):
    pmap = build_map(cfg)
    u = build_observable(cfg, pmap)
    N = cfg.get("rate_curve", "trajectory_length")
    k_grid = cfg.get("rate_curve", "k_grid") or \
        np.unique(np.geomspace(20, 200, 15).astype(int)).tolist()
    know_phi = (cfg.get("observable", "name") == "coin" and pmap.dyadic_exact
                and pmap.n_branches == 2)

    def cramer(a):
        return (0.5 + a) * math.log1p(2 * a) + (0.5 - a) * math.log1p(-2 * a)

    for s in seeds:
        vals = np.concatenate(list(orbit_value_chunks(pmap, u, s, N)))
        est = rate_estimator(vals, k_grid)
        if know_phi:
            rows = [(m, r, cramer(min(abs(m), 0.499)))
                    for m, r in zip(est.levels, est.rate_estimates)]
            header = ["m_k", "logN_over_k", "phi_true"]
        else:
            rows = list(zip(est.levels, est.rate_estimates))
            header = ["m_k", "logN_over_k"]
        _write_csv(outdir / f"rate-curve-{s}.csv", header, rows)
    return {"trajectory_length": N, "k_grid": list(map(int, k_grid))}


def _run_ld_check(cfg, outdir, seeds):
    pmap = build_map(cfg)
    u = build_observable(cfg, pmap)
    _, rate = _rate_function(cfg, pmap, u)
    alpha = cfg.get("ld", "alpha")
    trials = cfg.get("ld", "trials")
    k_grid = cfg.get("ld", "k_grid")
    r_grid = cfg.get("ld", "r_grid")

    for s in seeds:
        rows = []
        for k in k_grid:
            est = ld_probability_mc(pmap, u, alpha, int(k), trials, s, rate)
            rows.append((int(k), est.p_hat, est.ci_lo, est.ci_hi, est.normalized_ratio))
        if r_grid:
            dk = cfg.get("ld", "decoupling_k")
            for row in decoupling_check(pmap, u, alpha, dk, r_grid, trials, s, rate):
                rows.append((row.r, row.joint_p, row.ci_lo, row.ci_hi,
                             row.product_ratio))
        _write_csv(outdir / f"ld-check-{s}.csv",
                   ["k_or_r", "p_hat", "ci_lo", "ci_hi", "normalized_ratio"], rows)
    return {"alpha": alpha, "trials": trials}


def _run_entropy(cfg, outdir, seeds, kind):
    pmap = build_map(cfg)
    if kind == "smb":
        n = cfg.get("run", "horizon")
    else:
        n = cfg.get("entropy", "depth")
    checkpoints = cfg.get("run", "checkpoints") or default_checkpoints(n)
    eps = cfg.get("entropy", "epsilon")
    cap = cfg.get("entropy", "cap")
    resolution = cfg.get("ulam", "resolution")
    extra = {}

    def one(seed):
        if kind == "smb":
            return smb_run(pmap, n, seed, checkpoints=checkpoints, eps=eps,
                           resolution=resolution)
        return ow_run(pmap, n, seed, checkpoints=checkpoints, eps=eps,
                      resolution=resolution, cap=cap)

    for diag in _map_over_seeds(one, seeds, _threads(cfg)):
        h = diag.h_rokhlin
        ks = diag.k_values
        if kind == "smb":
            rows = [(int(k), mlm, a) for k, mlm, a in
                    zip(ks, diag.minus_log_mu, diag.atoms)]
            _write_csv(outdir / f"entropy-smb-{diag.seed}.csv",
                       ["k", "minus_log_mu", "smb_atom"], rows)
        else:
            rows = []
            for i, k in enumerate(ks):
                if diag.log_returns is None or not np.isfinite(diag.log_returns[i]):
                    continue      # censored
                smb_atom = (diag.minus_log_mu[i] - k * h) / math.sqrt(k)
                ok = 1 if (i == 0 or bool(diag.sandwich_ok[i - 1])) else 0
                rows.append((int(k), diag.minus_log_mu[i], diag.log_returns[i],
                             smb_atom, diag.atoms[i], ok))
            _write_csv(outdir / f"entropy-ow-{diag.seed}.csv",
                       ["k", "minus_log_mu", "log_Rk", "smb_atom", "ow_atom",
                        "sandwich_ok"], rows)
            extra[f"censored_seed_{diag.seed}"] = diag.censored
        extra[f"kappa_final_seed_{diag.seed}"] = float(diag.kappa_values[-1])
        extra["h_rokhlin"] = diag.h_rokhlin
        extra["sigma"] = diag.sigma_used
    return extra


def run(subcommand: str, cfg: ExperimentConfig, seed_offset: int = 0) -> int:
    """Execute one subcommand; returns the process exit code."""
    if subcommand not in SUBCOMMANDS:
        print(f"unknown subcommand {subcommand!r}; choose from {', '.join(SUBCOMMANDS)}",
              file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(cfg.get("run", "output_dir"))
    outdir.mkdir(parents=True, exist_ok=True)
    seeds = _seeds(cfg, seed_offset)
    start = time.perf_counter()
    try:
        if subcommand == "density":
            extra = _run_density(cfg, outdir, seeds)
        elif subcommand == "pressure":
            extra = _run_pressure(cfg, outdir, seeds)
        elif subcommand == "sigma2":
            extra = _run_sigma2(cfg, outdir, seeds)
        elif subcommand == "asclt":
            extra = _run_asclt(cfg, outdir, seeds)
        elif subcommand == "maxima":
            extra = _run_asclt(cfg, outdir, seeds, running_max=True)
        elif subcommand == "erdos-renyi":
            extra = _run_erdos_renyi(cfg, outdir, seeds)
        elif subcommand == "rate-curve":
            extra = _run_rate_curve(cfg, outdir, seeds)
        elif subcommand == "ld-check":
            extra = _run_ld_check(cfg, outdir, seeds)
        elif subcommand == "entropy-smb":
            extra = _run_entropy(cfg, outdir, seeds, "smb")
        else:
            extra = _run_entropy(cfg, outdir, seeds, "ow")
    except BudgetExceededError as exc:
        print(f"budget cap: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DegenerateVarianceError, ConvergenceError, DomainError,
            MapDefinitionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ErgostatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_manifest(outdir, subcommand, cfg, time.perf_counter() - start,
                    {"seeds": seeds, **extra})
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergostat",
        description="statistical-law experiments for expanding interval maps")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--seed-offset", type=int, default=0,
                        help="added to every configured seed")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for ln, msg in exc.issues:
            where = f"line {ln}: " if ln else ""
            print(f"config error: {where}{msg}", file=sys.stderr)
        return EXIT_CONFIG
    return run(args.subcommand, cfg, seed_offset=args.seed_offset)


if __name__ == "__main__":
    sys.exit(main())
