"""Correctness checks on the artifacts of one CLI invocation.

The checks use closed forms and invariants that hold for every seed, so
they run on every pass of every workload:

- doubling + coin: pressure = log cosh(beta/2), density = 1, final partial
  sigma^2 = 1/4, and the rate-curve `phi_true` column is the Cramer form;
- every map: density integrates to 1 and F(0) = 0;
- every artifact: one CSV per seed with the expected header and row count,
  every value finite, kappa >= 0, log R_k nondecreasing.

Plain Python, so bench/run.py does not import the program or numpy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import Invocation, cramer

HEADERS = {
    "density": ["cell", "midpoint", "density"],
    "pressure": ["beta", "pressure"],
    "sigma2": ["lag", "covariance", "partial_sigma2"],
    "asclt": ["seed", "n", "kappa", "normalized_rate"],
    "maxima": ["seed", "n", "kappa", "normalized_rate"],
    "erdos-renyi": ["k", "M_k", "fluctuation", "band_lo", "band_hi"],
    "rate-curve": ["m_k", "logN_over_k"],
    "ld-check": ["k_or_r", "p_hat", "ci_lo", "ci_hi", "normalized_ratio"],
    "entropy-smb": ["k", "minus_log_mu", "smb_atom"],
    "entropy-ow": ["k", "minus_log_mu", "log_Rk", "smb_atom", "ow_atom", "sandwich_ok"],
}

EXACT_TOL = 1e-12          # closed forms the Ulam step reproduces exactly
INTEGRAL_TOL = 1e-9        # normalizations summed over thousands of cells


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def _doubling_coin(inv: Invocation) -> bool:
    return inv.get("map", "name") == "doubling" and inv.get("observable", "name") == "coin"


def _column(rows, i):
    return [r[i] for r in rows]


def _check_rows(inv: Invocation, rows, seed, manifest) -> list[str]:
    sub = inv.subcommand
    bad = []

    def expect_rows(n):
        if len(rows) != n:
            bad.append(f"{len(rows)} rows, expected {n}")

    if sub == "density":
        n_cells = inv.get("ulam", "resolution")
        expect_rows(n_cells)
        dens = _column(rows, 2)
        if abs(sum(dens) / n_cells - 1.0) > INTEGRAL_TOL:
            bad.append(f"density integrates to {sum(dens) / n_cells!r}")
        if _doubling_coin(inv) and max(abs(d - 1.0) for d in dens) > EXACT_TOL:
            bad.append("doubling density is not identically 1")
    elif sub == "pressure":
        points = inv.get("pressure", "beta_points")
        bmax = inv.get("pressure", "beta_max")
        expect_rows(points)
        for beta, F in rows:
            if beta == 0.0 and F != 0.0:
                bad.append(f"F(0) = {F!r}")
            if _doubling_coin(inv) and abs(F - math.log(math.cosh(beta / 2))) > EXACT_TOL:
                bad.append(f"F({beta!r}) = {F!r} is not log cosh(beta/2)")
                break
        if len(rows) == points and points % 2 == 1 and rows[points // 2][0] != 0.0:
            bad.append("beta grid has no beta = 0 point")
        if rows and (rows[0][0] != -bmax or rows[-1][0] != bmax):
            bad.append("beta grid does not span [-beta_max, beta_max]")
    elif sub == "sigma2":
        lags = _column(rows, 0)
        if len(rows) < 11 or lags != list(range(len(rows))):
            bad.append("lags are not 0, 1, ... with at least 10 certified lags")
        elif (_doubling_coin(inv) and inv.get("sigma2", "method") == "quadrature"
              and abs(rows[-1][2] - 0.25) > EXACT_TOL):
            bad.append(f"final partial sigma^2 {rows[-1][2]!r} != 1/4")
    elif sub in ("asclt", "maxima"):
        cps = inv.get("run", "checkpoints")
        expect_rows(len(cps))
        if _column(rows, 0) != [seed] * len(rows) or _column(rows, 1) != cps[: len(rows)]:
            bad.append("seed or checkpoint column is wrong")
        if any(k < 0 for k in _column(rows, 2)):
            bad.append("negative kappa")
    elif sub == "erdos-renyi":
        ks = inv.get("erdos_renyi", "k_grid")
        expect_rows(len(ks))
        if _column(rows, 0) != ks[: len(rows)]:
            bad.append("k column is wrong")
        if any(lo != -hi or hi <= 0 for *_, lo, hi in rows):
            bad.append("band is not symmetric and positive")
    elif sub == "rate-curve":
        ks = inv.get("rate_curve", "k_grid")
        length = inv.get("rate_curve", "trajectory_length")
        expect_rows(len(ks))
        for k, row in zip(ks, rows):
            if abs(row[1] - math.log(length) / k) > EXACT_TOL:
                bad.append(f"logN_over_k at k={k} is {row[1]!r}")
            if _doubling_coin(inv) and abs(row[2] - cramer(min(abs(row[0]), 0.499))) > EXACT_TOL:
                bad.append(f"phi_true at k={k} is not the Cramer form")
    elif sub == "ld-check":
        expect_rows(len(inv.get("ld", "k_grid")) + len(inv.sections["ld"].get("r_grid", [])))
        if any(not (0.0 <= lo <= p <= hi <= 1.0) for _, p, lo, hi, _r in rows):
            bad.append("p_hat outside its confidence interval or [0, 1]")
    elif sub == "entropy-smb":
        n = inv.get("run", "horizon")
        expect_rows(n)
        if _column(rows, 0) != list(range(1, n + 1)):
            bad.append("k column is not 1..n")
    elif sub == "entropy-ow":
        depth = inv.get("entropy", "depth")
        censored = manifest.get(f"censored_seed_{seed}")
        if not isinstance(censored, int):
            bad.append("manifest lacks the censored count")
        else:
            expect_rows(depth - censored)
        ks = _column(rows, 0)
        log_r = _column(rows, 2)
        if any(b <= a for a, b in zip(ks, ks[1:])) or any(not 1 <= k <= depth for k in ks):
            bad.append("k column is not increasing within 1..depth")
        if any(b < a for a, b in zip(log_r, log_r[1:])):
            bad.append("log_Rk decreases")
        if any(ok not in (0.0, 1.0) for ok in _column(rows, 5)):
            bad.append("sandwich_ok is not 0/1")
    return bad


def check_invocation(inv: Invocation, outdir: Path, offset: int) -> list[str]:
    """Problems found in one invocation's artifacts (empty when correct)."""
    sub = inv.subcommand
    seeds = sorted(s + offset for s in inv.seeds)
    manifest_path = outdir / f"{sub}-manifest.json"
    if not manifest_path.is_file():
        return [f"{sub}: no manifest"]
    manifest = json.loads(manifest_path.read_text())
    found = sorted(p.name for p in outdir.glob("*.csv"))
    expected = sorted(f"{sub}-{s}.csv" for s in seeds)
    if found != expected:
        return [f"{sub}: CSV files {found} != {expected}"]
    problems = []
    want_header = HEADERS[sub] + (["phi_true"] if sub == "rate-curve" and _doubling_coin(inv)
                                  else [])
    for seed in seeds:
        name = f"{sub}-{seed}.csv"
        try:
            header, rows = _read_csv(outdir / name)
        except (ValueError, StopIteration) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        if header != want_header:
            problems.append(f"{name}: header {header}")
            continue
        if any(len(r) != len(header) or not all(map(math.isfinite, r)) for r in rows):
            problems.append(f"{name}: ragged row or non-finite value")
            continue
        problems.extend(f"{name}: {msg}" for msg in _check_rows(inv, rows, seed, manifest))
    return problems


def csv_digests(outdir: Path) -> dict[str, str]:
    """SHA-256 of every CSV under outdir, keyed by relative path."""
    return {p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*.csv"))}
