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
import sys
import time
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
    center_observable,
    green_kubo_sigma2,
    invariant_density,
    legendre,
    pressure_curve,
    ulam_matrix,
)
from .asclt import asclt_run, checkpoint_ladder, maxima_run
from .erdos_renyi import (
    decoupling_check,
    er_law_check,
    ld_probability_mc,
    rate_estimator,
)
from .entropy import entropy_constants, ow_run, smb_run

SUBCOMMANDS = (
    "density", "pressure", "sigma2", "asclt", "maxima", "erdos-renyi",
    "rate-curve", "ld-check", "entropy-smb", "entropy-ow",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4


def _column_format(column) -> str:
    """%d for a column of integers, %.17g for one of floats; a mixed column
    is refused, since %d would silently truncate its floats."""
    kinds = {issubclass(t, (int, np.integer)) for t in set(map(type, column))}
    if len(kinds) > 1:
        raise TypeError("a CSV column mixes integers and floats")
    return "%d" if True in kinds else "%.17g"


def _write_csv(path: Path, header: list[str], rows) -> None:
    rows = [tuple(row) for row in rows]
    lines = [",".join(header)]
    if rows:
        fmt = ",".join(_column_format(col) for col in zip(*rows))
        lines += [fmt % row for row in rows]
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


def _operator(cfg: ExperimentConfig, pmap):
    """The map's beta = 0 Ulam operator: one assembly per invocation."""
    return ulam_matrix(pmap, None, 0.0, cfg.get("ulam", "resolution"))


def _setup(cfg: ExperimentConfig, reads_operator: bool = True):
    """(map, beta = 0 operator, observable centred against it when
    `[observable] center` is set).  No operator is built (None) when
    neither the subcommand nor the centring reads it."""
    pmap = build_map(cfg)
    u = build_observable(cfg, pmap)
    center = cfg.get("observable", "center")
    op = _operator(cfg, pmap) if reads_operator or center else None
    u = center_observable(op, u) if center else u
    return pmap, op, u


def _pressure_curve(cfg: ExperimentConfig, op, u):
    beta_max = cfg.get("pressure", "beta_max")
    grid = np.linspace(-beta_max, beta_max, cfg.get("pressure", "beta_points"))
    return pressure_curve(op, u, grid)


def _rate_function(cfg: ExperimentConfig, op, u):
    curve = _pressure_curve(cfg, op, u)
    alphas = np.linspace(cfg.get("rate", "alpha_min"), cfg.get("rate", "alpha_max"),
                         cfg.get("rate", "alpha_points"))
    return curve, legendre(curve, alphas)


# -- runners ------------------------------------------------------------------

def _run_density(cfg, outdir, seeds):
    N = cfg.get("ulam", "resolution")
    h = invariant_density(_operator(cfg, build_map(cfg)))
    rows = [(i, (i + 0.5) / N, h[i]) for i in range(N)]
    for s in seeds:
        _write_csv(outdir / f"density-{s}.csv", ["cell", "midpoint", "density"], rows)
    return {"resolution": N}


def _run_pressure(cfg, outdir, seeds):
    _, op, u = _setup(cfg)
    curve = _pressure_curve(cfg, op, u)
    rows = list(zip(curve.beta_grid, curve.F_values))
    for s in seeds:
        _write_csv(outdir / f"pressure-{s}.csv", ["beta", "pressure"], rows)
    return {"beta_points": len(curve.beta_grid)}


def _run_sigma2(cfg, outdir, seeds):
    quadrature = cfg.get("sigma2", "method") == "quadrature"
    pmap, op, u = _setup(cfg, quadrature)
    source = op if quadrature else pmap
    out = {}
    for s in seeds:
        if s == seeds[0] or not quadrature:   # the seed does not enter the quadrature
            c0, cj = autocovariance_series(
                source, u, orbit_length=cfg.get("sigma2", "orbit_length"), seed=s)
            partial = c0 + 2.0 * np.cumsum(np.concatenate([[0.0], cj]))
            rows = [(0, c0, partial[0])] + [
                (j + 1, cj[j], partial[j + 1]) for j in range(len(cj))]
        _write_csv(outdir / f"sigma2-{s}.csv",
                   ["lag", "covariance", "partial_sigma2"], rows)
        out[f"sigma2_seed_{s}"] = float(partial[-1])
    return out


def _run_asclt(cfg, outdir, seeds, running_max=False):
    horizon = cfg.get("run", "horizon")
    # a refused ladder exits before any sigma^2 work
    checkpoints = checkpoint_ladder(horizon, cfg.get("run", "checkpoints") or None)
    sigma2 = cfg.get("sigma2", "value")            # NaN: compute it
    quadrature = cfg.get("sigma2", "method") == "quadrature"
    pmap, op, u = _setup(cfg, quadrature and math.isnan(sigma2))
    if math.isnan(sigma2):
        sigma2 = green_kubo_sigma2(op if quadrature else pmap, u,
                                   orbit_length=cfg.get("sigma2", "orbit_length"))
    runner = maxima_run if running_max else asclt_run
    name = "maxima" if running_max else "asclt"
    for s in seeds:
        diag = runner(pmap, u, horizon, s, checkpoints=checkpoints, sigma2=sigma2)
        rows = [(diag.seed, int(n), k, r) for n, k, r in
                zip(diag.checkpoints, diag.kappa_values, diag.normalized_rates)]
        _write_csv(outdir / f"{name}-{s}.csv",
                   ["seed", "n", "kappa", "normalized_rate"], rows)
    return {"sigma2": sigma2, "horizon": horizon}


def _run_erdos_renyi(cfg, outdir, seeds):
    pmap, op, u = _setup(cfg)
    _, rate = _rate_function(cfg, op, u)
    alpha = cfg.get("erdos_renyi", "alpha")
    k_grid = cfg.get("erdos_renyi", "k_grid")
    cap = cfg.get("erdos_renyi", "length_cap")
    for s in seeds:
        ser = er_law_check(pmap, u, alpha, rate, k_grid, s, length_cap=cap)
        rows = [(int(k), m, fl, -ser.band, ser.band) for k, m, fl in
                zip(ser.k_values, ser.M_values, ser.fluctuations)]
        _write_csv(outdir / f"erdos-renyi-{s}.csv",
                   ["k", "M_k", "fluctuation", "band_lo", "band_hi"], rows)
    return {"alpha": alpha, "beta": rate.beta(alpha), "phi": rate.phi(alpha)}


def _run_rate_curve(cfg, outdir, seeds):
    pmap, _, u = _setup(cfg, False)
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
    pmap, op, u = _setup(cfg)
    _, rate = _rate_function(cfg, op, u)
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
    consts = entropy_constants(pmap, _operator(cfg, pmap))
    if kind == "smb":
        n = cfg.get("run", "horizon")
    else:
        n = cfg.get("entropy", "depth")
    checkpoints = cfg.get("run", "checkpoints") or None
    eps = cfg.get("entropy", "epsilon")
    cap = cfg.get("entropy", "cap")
    extra = {"h_rokhlin": consts.h, "sigma": consts.sigma}
    for s in seeds:
        if kind == "smb":
            diag = smb_run(pmap, consts, n, s, checkpoints=checkpoints)
            rows = [(int(k), mlm, a) for k, mlm, a in
                    zip(diag.k_values, diag.minus_log_mu, diag.atoms)]
            _write_csv(outdir / f"entropy-smb-{s}.csv",
                       ["k", "minus_log_mu", "smb_atom"], rows)
        else:
            diag = ow_run(pmap, consts, n, s, checkpoints=checkpoints, eps=eps, cap=cap)
            rows = []
            for i, k in enumerate(diag.k_values):
                if diag.log_returns is None or not np.isfinite(diag.log_returns[i]):
                    continue      # censored
                smb_atom = (diag.minus_log_mu[i] - k * consts.h) / math.sqrt(k)
                ok = 1 if (i == 0 or bool(diag.sandwich_ok[i - 1])) else 0
                rows.append((int(k), diag.minus_log_mu[i], diag.log_returns[i],
                             smb_atom, diag.atoms[i], ok))
            _write_csv(outdir / f"entropy-ow-{s}.csv",
                       ["k", "minus_log_mu", "log_Rk", "smb_atom", "ow_atom",
                        "sandwich_ok"], rows)
            extra[f"censored_seed_{s}"] = diag.censored
        extra[f"kappa_final_seed_{s}"] = float(diag.kappa_values[-1])
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
