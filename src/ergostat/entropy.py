"""Cylinder partitions, return times, and entropy CLT experiments.

The depth-k cylinder of x is the interval of points sharing x's first k
branch symbols; widths shrink like eta^{-k}, so after a few dozen levels
the endpoints collapse in float64 and cylinder measures are tracked in
log form instead: exact slope products for piecewise-linear maps, and for
smooth maps an interval pullback over the innermost levels glued to a
derivative chain along the orbit (distortion sums converge geometrically,
so the glue error stays below ~1e-8).

Return times R_k of the leading k-word are detected in the orbit's own
symbol stream: R_k is the first start whose match with the leading word
reaches k, so one scan over windows of starts finds every depth up to n at
once, and it is censored at a hard symbol cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import PiecewiseMap, log_derivative, orbit, symbol_chunks
from .measures import GaussianLaw, kantorovich_ladder
from .transfer import (
    UlamOperator,
    green_kubo_sigma2,
    invariant_density,
    observable_mean,
    require_nondegenerate,
)

RETURN_TIME_CAP = 10**9
# start positions filtered per vectorized step of the all-depth return scan
_RETURN_WINDOW = 1 << 12
# interval-pullback depth and center-chain depth for smooth-map cylinders;
# the split balances endpoint collapse (an ulp-level inverse error over the
# interval width) against the center-vs-mean-value error of the chain
_EXACT_LEVELS = 20
_CHAIN_LEVELS = 70


def rokhlin_entropy(pmap: PiecewiseMap, op: UlamOperator) -> float:
    """h = integral of log|f'| against the density of pmap's beta = 0 operator."""
    return observable_mean(op, log_derivative(pmap))


def _log_density_average(density: np.ndarray, lo: float, hi: float) -> float:
    """log of the density's average over [lo, hi]; no resolution warning
    (the width divides out in log mu - log width)."""
    N = len(density)
    i0 = min(int(lo * N), N - 1)
    i1 = min(int(hi * N), N - 1)
    if i0 == i1:
        return float(np.log(density[i0]))
    edges = np.arange(i0, i1 + 2) / N
    overlaps = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)
    return float(np.log(np.sum(density[i0:i1 + 1] * overlaps) / (hi - lo)))


# ---------------------------------------------------------------------------
# return times
# ---------------------------------------------------------------------------

def return_times_upto(symbols, n: int, cap: int = RETURN_TIME_CAP) -> np.ndarray:
    """R_k for every k <= n from one stream; censored entries are -1.

    R_k is the first start whose match with the leading word reaches k, so
    one scan serves every depth: each window of starts is filtered level by
    level against the word, and the first survivor at a level not yet found
    is that level's R_k.  The stream is read only as far as the scan
    reaches: max R_k + n plus at most one window and one chunk.
    """
    chunks = iter([symbols] if isinstance(symbols, np.ndarray) else symbols)
    buf = np.empty(0, dtype=np.uint8)
    size = 0

    def extend(target: int) -> bool:
        nonlocal buf, size
        while size < target:
            try:
                chunk = np.asarray(next(chunks)).ravel()
            except StopIteration:
                return False
            if size + len(chunk) > len(buf):   # doubling: O(1) copies per symbol
                buf = np.concatenate([buf[:size], np.empty(max(size, len(chunk)), np.uint8)])
            buf[size:size + len(chunk)] = chunk
            size += len(chunk)
        return True

    if not extend(n):
        raise ValueError(f"stream shorter than the pattern depth {n}")
    word = buf[:n].copy()
    out = np.full(n, -1, dtype=np.int64)
    found = 0                                  # R_1 .. R_found are known
    pos = 1
    while found < n and pos <= cap:
        hi = min(pos + _RETURN_WINDOW, cap + 1)
        short = not extend(hi + n - 1)
        hi = min(hi, size)
        if hi <= pos:
            break
        cand = pos + np.flatnonzero(buf[pos:hi] == word[0])
        for j in range(n):                     # cand: starts matching word[:j + 1]
            if j:
                if short:
                    cand = cand[cand + j < size]
                cand = cand[buf[cand + j] == word[j]]
            if not len(cand):
                break
            if j == found:
                out[j] = cand[0]
                found += 1
        pos = hi
    return out


# ---------------------------------------------------------------------------
# cylinder measures in log form along an orbit
# ---------------------------------------------------------------------------

def _inverse_by_symbol(pmap, sym, y):
    """Preimage under branch sym[i] of each y[i], clipped to that branch's image."""
    x = np.empty(len(y))
    for s, br in enumerate(pmap.branches):
        m = sym == s
        if np.any(m):
            x[m] = br.inverse(np.clip(y[m], *br.image()))
    return x


def _pullback_interval_layers(pmap, symbols, n, levels):
    """Exact interval pullback of depth min(k, levels) for every k <= n.

    Returns (lo, hi) arrays; for k <= levels the pullback is complete and
    [lo, hi] is the whole depth-k cylinder.
    """
    cells = symbols[:n].astype(np.intp)    # depth 1: the branch cells
    lo = pmap.breakpoints[cells]
    hi = pmap.breakpoints[cells + 1]
    for d in range(1, min(levels, n)):
        sym = symbols[:n - d]                 # symbol s_{k-d} of each k > d
        x1 = _inverse_by_symbol(pmap, sym, lo[d:])
        x2 = _inverse_by_symbol(pmap, sym, hi[d:])
        lo[d:], hi[d:] = np.minimum(x1, x2), np.maximum(x1, x2)
    return lo, hi


def cylinder_log_measures(pmap: PiecewiseMap, symbols: np.ndarray,
                          density: np.ndarray, points: np.ndarray | None = None
                          ) -> np.ndarray:
    """log mu(P_k(x)) for k = 1..n along one orbit, in O(n) memory.

    Piecewise-linear maps: widths are exact slope products (constant-slope
    maps get the k * log|s| form, exact to one ulp per entry).  Smooth
    maps: interval pullback over the innermost levels, then a derivative
    chain through pullback centers, then orbit-point prefix sums.
    The density enters through its average over the leading pulled-back
    cylinders; deeper ones sit inside the cell of an anchor point.
    """
    symbols = np.asarray(symbols)
    n = len(symbols)
    N = len(density)
    if all(br.is_linear for br in pmap.branches):
        slopes = np.array([abs(br.slope) for br in pmap.branches])
        if np.ptp(slopes) == 0.0:
            log_width = -np.arange(1, n + 1, dtype=float) * math.log(slopes[0])
        else:
            log_width = -np.cumsum(np.log(slopes)[symbols])
        # the density factor needs only where the leading cylinders lie, and
        # an interval collapsed in float64 still has a place
        lead = min(n, 45)
        lo, hi = _pullback_interval_layers(pmap, symbols[:lead], lead, lead)
        anchor = 0.5 * (lo[-1] + hi[-1])
    else:
        if points is None:
            raise ValueError("smooth maps need the orbit points for the derivative chain")
        lead = min(_EXACT_LEVELS, n)
        lo, hi = _pullback_interval_layers(pmap, symbols, n, _EXACT_LEVELS)
        acc = np.zeros(n)
        # derivative chain through pullback centers for levels lead..lead+chain
        c = 0.5 * (lo + hi)
        for d in range(lead, min(_EXACT_LEVELS + _CHAIN_LEVELS, n)):
            c[d:] = _inverse_by_symbol(pmap, symbols[:n - d], c[d:])
            acc[d:] -= np.log(np.abs(pmap.derivative(c[d:])))
        # orbit-point prefix sums for the remaining outer levels
        depth = _EXACT_LEVELS + _CHAIN_LEVELS
        if n > depth:
            logd = np.log(np.abs(pmap.derivative(points)))
            acc[depth:] -= np.cumsum(logd)[:n - depth]
        log_width = np.log(hi - lo) + acc
        anchor = points[0]
    log_h = np.full(n, math.log(density[min(int(anchor * N), N - 1)]))
    for k in range(lead):
        log_h[k] = _log_density_average(density, lo[k], hi[k])
    return log_h + log_width


# ---------------------------------------------------------------------------
# SMB / Ornstein-Weiss runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyDiagnostics:
    kind: str                     # "smb" or "ow"
    seed: int
    h_rokhlin: float
    sigma_used: float
    k_values: np.ndarray
    minus_log_mu: np.ndarray
    atoms: np.ndarray             # the normalized statistic per k
    checkpoints: np.ndarray
    kappa_values: np.ndarray
    log_returns: np.ndarray | None = None    # ow only; NaN where censored
    censored: int = 0
    sandwich_ok: np.ndarray | None = None    # ow only, k >= 2


@dataclass(frozen=True)
class EntropyConstants:
    """The seed-free part of an entropy run, read from pmap's beta = 0
    operator: the invariant density, the Rokhlin entropy h, and sigma, the
    square root of the Green-Kubo variance of u = log|f'| - h."""
    density: np.ndarray
    h: float
    sigma: float


def entropy_constants(pmap: PiecewiseMap, op: UlamOperator) -> EntropyConstants:
    """Density, h and sigma once for every seed of a run; a degenerate
    sigma^2 (constant-slope maps) is refused here, before any orbit work."""
    density = invariant_density(op)
    h = rokhlin_entropy(pmap, op)
    sigma2 = green_kubo_sigma2(op, log_derivative(pmap).with_mean(h))
    return EntropyConstants(density, h, math.sqrt(require_nondegenerate(sigma2)))


def _entropy_run(pmap, consts, n, seed, checkpoints, kind, eps, cap):
    h, sigma = consts.h, consts.sigma
    orb = orbit(pmap, seed, n)
    log_mu = cylinder_log_measures(pmap, orb.symbols, consts.density, points=orb.points)
    ks = np.arange(1, n + 1, dtype=float)
    minus_log_mu = -log_mu
    log_returns = sandwich = keep = None
    censored = 0
    if kind == "smb":
        atoms = (minus_log_mu - ks * h) / np.sqrt(ks)
    else:
        stream = symbol_chunks(pmap, seed)   # same seed: the orbit's own stream
        rts = return_times_upto(stream, n, cap=cap)
        censored = int(np.sum(rts < 0))
        log_returns = np.where(rts > 0, np.log(np.maximum(rts, 1)), np.nan)
        atoms = (log_returns - ks * h) / np.sqrt(ks)
        keep = rts > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            stat = log_returns + log_mu      # log[R_k mu(P_k)]
            lower = -(1.0 + eps) * np.log(ks)
            upper = np.log((1.0 + eps) * np.log(ks))
            sandwich = (stat >= lower) & (stat <= upper)
        sandwich = sandwich[1:]              # defined for k >= 2
    checkpoints, kappas = kantorovich_ladder(atoms, GaussianLaw(sigma), checkpoints, keep)
    return EntropyDiagnostics(
        kind=kind, seed=seed, h_rokhlin=h, sigma_used=sigma,
        k_values=np.arange(1, n + 1), minus_log_mu=minus_log_mu, atoms=atoms,
        checkpoints=checkpoints, kappa_values=kappas, log_returns=log_returns,
        censored=censored, sandwich_ok=sandwich)


def smb_run(pmap: PiecewiseMap, consts: EntropyConstants, n: int, seed: int,
            checkpoints=None) -> EntropyDiagnostics:
    """Cylinder-measure CLT: atoms (-log mu(P_k) - k h)/sqrt(k) against
    N(0, sigma^2), with the density, h and sigma from `entropy_constants`."""
    return _entropy_run(pmap, consts, n, seed, checkpoints, "smb", None, RETURN_TIME_CAP)


def ow_run(pmap: PiecewiseMap, consts: EntropyConstants, n: int, seed: int,
           checkpoints=None, eps: float = 1.0, cap: int = RETURN_TIME_CAP
           ) -> EntropyDiagnostics:
    """Return-time CLT: atoms (log R_k - k h)/sqrt(k), with the cylinder
    sandwich flags on log[R_k mu(P_k)], h and sigma^2 as in `smb_run`.  Censored
    k are dropped from the empirical measure and counted; a checkpoint with
    every k censored raises `DomainError` (raise the cap or lower the depth)."""
    return _entropy_run(pmap, consts, n, seed, checkpoints, "ow", eps, cap)
