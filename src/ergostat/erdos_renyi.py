"""Moving-average maxima, their fluctuation band, and large-deviation checks.

The window maximum over an orbit stream,

    M_k = sup_{0 <= j <= [exp(k phi(alpha))] - k}  S_k o f^j ,

obeys M_k/k -> alpha with fluctuations (M_k - k alpha)/log k confined to
the band +/- 1/(2 beta), beta = phi'(alpha).  Window counts grow like
exp(k phi(alpha)), so orbit streams are consumed in chunks with a k-lag
prefix-sum scan and are never materialized in full.  The same module hosts
the rate-function estimator (read the Erdos-Renyi law backwards: the level
reached by k-windows over N samples satisfies phi(m(k)) ~ log(N)/k) and
direct Monte Carlo checks of the sharp large-deviation prefactor and of
joint-exceedance decoupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ConfigError, DomainError
from .maps import Observable, PiecewiseMap, orbit_value_chunks, trial_value_blocks
from .transfer import RateFunction

LENGTH_CAP = 2**32          # hard cap on required stream length
MC_EXPONENT_CAP = 12.0      # direct MC refuses when k*phi(alpha) exceeds this


# ---------------------------------------------------------------------------
# window maxima
# ---------------------------------------------------------------------------

def _moving_max_chunked(chunks, k: int, n_windows: int) -> tuple[float, int]:
    """Streaming scan over numpy value chunks: max window sum over windows
    j = 0..n_windows-1, keeping only a k-deep prefix history.

    Window j has sum c_{j+k} - c_j with c_t the prefix sum of the first t
    values; valid end indices e = j + k run from k to n_windows + k - 1.
    """
    needed = n_windows + k - 1            # values consumed in total
    hist = np.zeros(1)                    # prefix values c_{consumed-len+1..consumed}
    best = -np.inf
    best_j = -1
    consumed = 0
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=float)
        take = min(len(chunk), needed - consumed)
        if take <= 0:
            break
        prefixes = hist[-1] + np.cumsum(chunk[:take])
        ext = np.concatenate([hist, prefixes])
        lo = consumed - len(hist) + 1     # prefix index of ext[0]
        e_start = max(k, consumed + 1)
        e_end = consumed + take
        if e_end >= e_start:
            i0, i1 = e_start - lo, e_end + 1 - lo
            sums = ext[i0:i1] - ext[i0 - k : i1 - k]
            i = int(np.argmax(sums))
            if sums[i] > best:
                best = float(sums[i])
                best_j = int(e_start + i - k)
        consumed += take
        hist = ext[-(k + 1):]
        if consumed >= needed:
            break
    if consumed < needed:
        raise ValueError(f"stream ended after {consumed} of {needed} values")
    return best, best_j


@dataclass(frozen=True)
class ErdosRenyiSeries:
    """Window maxima at the almost-sure-law window counts with their fluctuations."""

    alpha: float
    beta: float
    k_values: np.ndarray
    window_counts: np.ndarray     # [exp(k phi)] - k + 1 windows per k
    M_values: np.ndarray
    averages: np.ndarray          # M_k / k
    fluctuations: np.ndarray      # (M_k - k alpha) / log k
    band: float                   # 1/(2 beta)


def er_law_check(pmap: PiecewiseMap, u: Observable, alpha: float, rate: RateFunction,
                 k_grid, seed: int, length_cap: int = LENGTH_CAP) -> ErdosRenyiSeries:
    """Window maxima over the [exp(k phi(alpha))] - k windows of the almost-sure law.

    Emits M_k, M_k/k, the fluctuation (M_k - k alpha)/log k, and the band
    half-width 1/(2 beta).  Streams of required length [exp(k phi(alpha))]
    beyond `length_cap` are refused.
    """
    if alpha == 0.0:
        raise DomainError("alpha must be nonzero (phi(0)=0 gives no windows)")
    if not (rate.alpha_grid[0] <= alpha <= rate.alpha_grid[-1]):
        raise DomainError("alpha outside the tabulated rate function")
    phi = rate.phi(alpha)
    beta = rate.beta(alpha)
    k_grid = np.asarray(k_grid, dtype=np.int64)
    m_vals = np.empty(len(k_grid))
    counts = np.empty(len(k_grid), dtype=np.int64)
    for i, k in enumerate(k_grid):
        k = int(k)
        needed = math.exp(k * phi)
        if needed > length_cap:
            raise BudgetExceededError(
                f"k={k}: required stream length exp(k phi)={needed:.3g} "
                f"exceeds the cap {length_cap:g}")
        # at least the j=0 window even when exp(k phi) has not outgrown k yet
        length = max(int(needed), k)
        n_windows = max(length - k + 1, 1)
        m_vals[i], _ = _moving_max_chunked(
            orbit_value_chunks(pmap, u, seed, length), k, n_windows)
        counts[i] = n_windows
    logs = np.log(k_grid.astype(float))
    return ErdosRenyiSeries(
        alpha=alpha, beta=beta, k_values=k_grid, window_counts=counts,
        M_values=m_vals, averages=m_vals / k_grid,
        fluctuations=(m_vals - k_grid * alpha) / logs,
        band=1.0 / (2.0 * beta))


# ---------------------------------------------------------------------------
# rate-function estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateCurveEstimate:
    """Points (m(k), log N / k): the level reached by length-k windows over
    an N-sample trajectory estimates the rate function at that level."""

    N: int
    k_values: np.ndarray
    levels: np.ndarray            # m(k) = M_k / k over the whole trajectory
    rate_estimates: np.ndarray    # log N / k


def rate_estimator(u_values: np.ndarray, k_grid) -> RateCurveEstimate:
    """Rate-function estimator from one trajectory of u values."""
    u_values = np.asarray(u_values, dtype=float)
    n = len(u_values)
    k_grid = np.asarray(k_grid, dtype=np.int64)
    if n < 10 * int(k_grid.max()):
        raise ConfigError([(0, "trajectory should be at least 10x the largest window")])
    prefix = np.concatenate([[0.0], np.cumsum(u_values)])
    levels = np.empty(len(k_grid))
    for i, k in enumerate(k_grid):
        k = int(k)
        levels[i] = float(np.max(prefix[k:] - prefix[:-k])) / k
    return RateCurveEstimate(N=n, k_values=k_grid, levels=levels,
                             rate_estimates=np.log(float(n)) / k_grid)


# ---------------------------------------------------------------------------
# direct Monte Carlo large-deviation checks
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054               # the standard normal 97.5% quantile
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == trials else min(center + half, 1.0)
    return lo, hi


@dataclass(frozen=True)
class LdEstimate:
    """Monte Carlo exceedance probability with its sandwich normalization
    p_hat * beta * sqrt(k) * exp(k phi(alpha))."""

    k: int
    alpha: float
    trials: int
    successes: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    normalized_ratio: float
    one_sided: bool               # zero successes: only the upper bound binds


def _trial_sums(pmap: PiecewiseMap, u: Observable, k: int, r: int, trials: int,
                seed: int):
    """Yield (S_k, S_k o f^r) pairs over independent Lebesgue starts, chunked."""
    for vals in trial_value_blocks(pmap, u, k + r, trials, seed):
        csum = np.cumsum(vals, axis=1)
        yield csum[:, k - 1], csum[:, r + k - 1] - (csum[:, r - 1] if r > 0 else 0.0)


def ld_probability_mc(pmap: PiecewiseMap, u: Observable, alpha: float, k: int,
                      trials: int, seed: int, rate: RateFunction) -> LdEstimate:
    """Estimate P(S_k > k alpha) over independent Lebesgue starts.

    Refuses when k*phi(alpha) exceeds the direct-MC feasibility cap (the
    target probability would sit below the resolvable floor e^{-12}).
    """
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials")
    phi = rate.phi(alpha)
    beta = rate.beta(alpha)
    if k * phi > MC_EXPONENT_CAP:
        raise BudgetExceededError(
            f"k*phi(alpha) = {k * phi:.2f} > {MC_EXPONENT_CAP}: direct Monte "
            "Carlo cannot resolve the target probability; an importance "
            "sampler over the tilted measure would be required")
    threshold = k * alpha
    successes = 0
    for s_first, _ in _trial_sums(pmap, u, k, 0, trials, seed):
        successes += int(np.sum(s_first > threshold))
    p_hat = successes / trials
    lo, hi = wilson_interval(successes, trials)
    ratio = p_hat * abs(beta) * math.sqrt(k) * math.exp(k * phi)
    return LdEstimate(k=k, alpha=alpha, trials=trials, successes=successes,
                      p_hat=p_hat, ci_lo=lo, ci_hi=hi, normalized_ratio=ratio,
                      one_sided=(successes == 0))


@dataclass(frozen=True)
class DecouplingRow:
    r: int
    joint_p: float
    ci_lo: float
    ci_hi: float
    product_ratio: float          # joint / single^2 (roughly 1 at r = k)


def decoupling_check(pmap: PiecewiseMap, u: Observable, alpha: float, k: int,
                     r_grid, trials: int, seed: int, rate: RateFunction
                     ) -> list[DecouplingRow]:
    """Joint exceedance P(S_k > k alpha, S_k o f^r > k alpha) along r_grid.

    Descriptive decay table for the decoupling bound C e^{-k phi - r c};
    the product_ratio column compares against independence of the windows.
    """
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials")
    phi = rate.phi(alpha)
    if k * phi > MC_EXPONENT_CAP:
        raise BudgetExceededError(
            f"k*phi(alpha) = {k * phi:.2f} > {MC_EXPONENT_CAP}: joint "
            "exceedance below the direct-MC floor")
    threshold = k * alpha
    rows = []
    single = None
    for r in np.asarray(r_grid, dtype=np.int64):
        r = int(r)
        joint = 0
        first = 0
        for s_first, s_shift in _trial_sums(pmap, u, k, r, trials, seed):
            joint += int(np.sum((s_first > threshold) & (s_shift > threshold)))
            first += int(np.sum(s_first > threshold))
        if single is None:
            single = first / trials
        p = joint / trials
        lo, hi = wilson_interval(joint, trials)
        denom = single * single
        rows.append(DecouplingRow(r=r, joint_p=p, ci_lo=lo, ci_hi=hi,
                                  product_ratio=(p / denom if denom > 0 else math.inf)))
    return rows
