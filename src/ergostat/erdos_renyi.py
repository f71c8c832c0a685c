"""Moving-average maxima, their fluctuation band, and large-deviation checks.

The window maximum over an orbit stream,

    M_k = sup_{0 <= j <= [exp(k phi(alpha))] - k}  S_k o f^j ,

obeys M_k/k -> alpha with fluctuations (M_k - k alpha)/log k confined to
the band +/- 1/(2 beta), beta = phi'(alpha).  Window counts grow like
exp(k phi(alpha)), so one orbit stream per call is consumed in chunks by
one prefix-sum scan for the whole k grid and is never materialized in full.
One window reader, `_window_maxima`, owns that stream and scan for both
readings of the law: forwards in `er_law_check`, and backwards in the
rate-function estimator (the level reached by k-windows over N samples
satisfies phi(m(k)) ~ log(N)/k).  The module also hosts direct Monte Carlo
checks of the sharp large-deviation prefactor and of joint-exceedance
decoupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError, ConfigError, DomainError
from .maps import Observable, PiecewiseMap, _orbit_values, trial_value_blocks

LENGTH_CAP = 2**32          # hard cap on required stream length
MC_EXPONENT_CAP = 12.0      # direct MC refuses when k*phi(alpha) exceeds this


def _above_mean(alpha: float, beta: float, law: str) -> None:
    """`DomainError` when alpha is not a finite number, or when beta(alpha)
    <= 0: alpha lies at or below the mean, where `law` does not hold."""
    if not math.isfinite(alpha):
        raise DomainError(f"alpha = {alpha!r} is not a finite number, outside the domain "
                          f"of {law}")
    if not beta > 0.0:
        raise DomainError(
            f"alpha = {alpha!r} has beta(alpha) = {beta!r}, not positive: {law} "
            "holds only above the mean, where beta(alpha) > 0")


# ---------------------------------------------------------------------------
# window maxima
# ---------------------------------------------------------------------------

def _accumulator(dtype: np.dtype, n: int) -> type:
    """The dtype that sums up to n values of `dtype` exactly: for symbol
    bytes (uint8) int32 when no such sum can overflow it (half the memory
    traffic of int64), else int64; float64 for any other dtype."""
    if dtype != np.uint8:
        return np.float64
    return np.int32 if n * 256 < 2**31 else np.int64


def _byte_prefix(c: np.ndarray, out: np.ndarray) -> None:
    """out[i] = c[0] + ... + c[i] for uint8 bytes c, into an integer `out`
    that holds the total, eight or four bytes at a time in 64-bit words.

    The bytes go into zero-padded words of 8-bit lanes while 8 * max(c) <=
    255 (every alphabet of at most 32 symbols), else of 16-bit lanes, 4 to
    a word.  Times the word with a 1 in every lane, lane i of a word holds
    the sum of the word's lanes 0..i with no carry between lanes, so the
    top lane is the word's total; the exclusive prefix sum of the totals,
    one value a word, is added to each lane.  Integer sums are exact in any
    order: these are the bits of `np.cumsum(c)`, whose serial add chain
    costs about twice as much a value (2.5 against 1.1 ns with 8-bit lanes
    and 1.8 with 16-bit lanes, 2^16 bytes on a 2-vCPU Xeon).
    """
    lane = np.uint8 if 8 * int(c.max(initial=0)) <= 255 else np.uint16
    bits = np.iinfo(lane).bits
    per = 64 // bits
    words = np.zeros(-(-len(c) // per), dtype=np.uint64)
    lanes = words.view(lane)
    lanes[:len(c)] = c
    words *= np.uint64((2**64 - 1) // (2**bits - 1))             # 0x0101...01
    offsets = np.zeros(len(words), dtype=out.dtype)
    np.cumsum(words[:-1] >> np.uint64(64 - bits), dtype=out.dtype, out=offsets[1:])
    out[:] = lanes[:len(c)]
    out += np.repeat(offsets, per)[:len(c)]


def _moving_max_chunked(chunks, k_grid, n_windows) -> list:
    """Streaming scan over numpy value chunks: for each window length k of
    `k_grid`, with its window count n of `n_windows`, the max window sum over
    windows j = 0..n-1, in grid order.  One prefix history max(k) deep
    serves the whole grid, and each k gets the bits of its own one-k scan.

    Window j has sum c_{j+k} - c_j with c_t the prefix sum of the first t
    values; valid end indices e = j + k run from k to n + k - 1.
    Float chunks carry absolute float64 prefixes: the prefix so far is
    added to each chunk's first value before its `np.cumsum`, which is
    sequential, so the prefixes and the maxima do not depend on the chunks.
    Symbol-byte (uint8) chunks carry prefixes relative to the start of
    each chunk, so an int32 accumulator cannot overflow on a long stream,
    take them from `_byte_prefix`, and return int maxima; chunks of any
    other dtype are scanned as floats.
    """
    ks = [int(k) for k in k_grid]
    ends = [int(n) + k - 1 for k, n in zip(ks, n_windows)]    # values each k reads
    needed, deep = max(ends, default=0), max(ks, default=0)
    hist = None                           # prefix values c_{consumed-len+1..consumed}
    best = [-np.inf] * len(ks)
    consumed = 0
    for chunk in chunks:
        take = min(len(chunk), needed - consumed)
        if take <= 0:
            break
        acc = _accumulator(chunk.dtype, deep + take)
        if hist is None:
            hist = np.zeros(1, dtype=acc)
        ext = np.empty(len(hist) + take, dtype=acc)
        ext[:len(hist)] = hist
        prefix = ext[len(hist):]
        if acc is np.float64:
            prefix[:] = chunk[:take]
            prefix[0] = hist[-1] + prefix[0]
            np.cumsum(prefix, out=prefix)
        else:
            _byte_prefix(chunk[:take], prefix)
        del chunk                         # in the prefixes now: free it before the sums
        lo = consumed - len(hist) + 1     # prefix index of ext[0]
        buf = np.empty(take, dtype=acc)   # one buffer per chunk for each k's sums in turn
        for i, (k, end) in enumerate(zip(ks, ends)):
            e_start, e_end = max(k, consumed + 1), min(consumed + take, end)
            if e_end >= e_start:
                i0, i1 = e_start - lo, e_end + 1 - lo
                top = np.subtract(ext[i0:i1], ext[i0 - k : i1 - k], out=buf[:i1 - i0]).max()
                if top > best[i]:
                    best[i] = top.item()
        consumed += take
        hist = ext[-(deep + 1):]
        if acc is not np.float64:
            hist = hist - hist[-1]
        if consumed >= needed:
            break
    if consumed < needed:
        raise ValueError(f"stream ended after {consumed} of {needed} values")
    return best


def _window_maxima(pmap: PiecewiseMap, u: Observable, seed: int, k_grid: np.ndarray,
                   counts: np.ndarray) -> tuple[np.ndarray, float | None]:
    """(maxima, unit): for each k of `k_grid`, the largest sum of u over the
    first `counts` length-k windows of the orbit of `seed`, and the unit of
    integer window sums (None: float sums; an empty grid draws nothing).

    One stream, as long as the longest k needs, serves every k in chunks of
    2^16 values, whose prefix and window sums stay in cache while each k
    reads them.  A table that the symbol bytes carry (see
    `maps._unit_weights`) is scanned on the symbols c, and M_k is the
    `IntegerRead.sum_values` of the largest sum of c: the bits of the float
    scan, whose prefix sums are exact for such values.
    """
    if not len(k_grid):
        return np.zeros(0), None
    view, chunks = _orbit_values(pmap, u, seed, int(np.max(counts + k_grid - 1)), 1 << 16,
                                 exact=True)
    best = _moving_max_chunked(chunks, k_grid, counts)
    if view is None:
        return np.array(best, dtype=float), None
    return view.sum_values(k_grid, best), view.unit


@dataclass(frozen=True)
class ErdosRenyiSeries:
    """Window maxima at the almost-sure-law window counts with their fluctuations."""

    k_values: np.ndarray
    window_counts: np.ndarray     # [exp(k phi)] - k + 1 windows per k
    M_values: np.ndarray
    averages: np.ndarray          # M_k / k
    fluctuations: np.ndarray      # (M_k - k alpha) / log k
    band: float                   # 1/(2 beta)
    window_unit: float | None     # unit of integer window sums; None: float sums


def er_law_check(pmap: PiecewiseMap, u: Observable, alpha: float, phi: float, beta: float,
                 k_grid, seed: int, length_cap: int = LENGTH_CAP) -> ErdosRenyiSeries:
    """Window maxima over the [exp(k phi(alpha))] - k windows of the almost-sure law.

    phi and beta are the rate data phi(alpha) and beta(alpha).  Emits M_k,
    M_k/k, the fluctuation (M_k - k alpha)/log k, and the band half-width
    1/(2 beta).  A grid with a required stream length
    [exp(k phi(alpha))] beyond `length_cap` is refused before anything is
    drawn; otherwise one stream serves every k (see `_window_maxima`).
    alpha = 0, an alpha that is not finite, beta(alpha) <= 0 (at or below
    the mean) and a window length below 2 (the fluctuation divides by log k)
    raise `DomainError`.
    """
    if alpha == 0.0:
        raise DomainError("alpha must be nonzero (phi(0)=0 gives no windows)")
    _above_mean(alpha, beta, "the law of window maxima")
    k_grid = np.asarray(k_grid, dtype=np.int64)
    if np.any(k_grid < 2):
        raise DomainError(f"window lengths must be at least 2, got {k_grid.min()}: "
                          "the fluctuation divides by log k")
    lengths = []
    for k in k_grid.tolist():
        needed = math.exp(k * phi) if k * phi < 709.0 else math.inf    # not OverflowError
        if needed > length_cap:
            raise BudgetExceededError(
                f"k={k}: required stream length exp(k phi)={needed:.3g} "
                f"exceeds the cap {length_cap:g}")
        # at least the j=0 window even when exp(k phi) has not outgrown k yet
        lengths.append(max(int(needed), k))
    counts = np.array(lengths, dtype=np.int64) - k_grid + 1
    m_vals, unit = _window_maxima(pmap, u, seed, k_grid, counts)
    return ErdosRenyiSeries(
        k_values=k_grid, window_counts=counts,
        M_values=m_vals, averages=m_vals / k_grid,
        fluctuations=(m_vals - k_grid * alpha) / np.log(k_grid),
        band=1.0 / (2.0 * beta), window_unit=unit)


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


def rate_estimator(pmap: PiecewiseMap, u: Observable, n: int, k_grid,
                   seed: int) -> RateCurveEstimate:
    """Rate-function estimator from the first n values of u along the orbit
    of `seed`, streamed through `_window_maxima`.  A window length below 1
    raises `DomainError`, and n below 10x the largest window `ConfigError`,
    both before anything is drawn; an empty grid gives an empty estimate."""
    k_grid = np.asarray(k_grid, dtype=np.int64)
    if np.any(k_grid < 1):
        raise DomainError(f"window lengths must be at least 1, got {k_grid.min()}")
    if n < 10 * int(k_grid.max(initial=0)):
        raise ConfigError([(0, "trajectory should be at least 10x the largest window")])
    maxima, _ = _window_maxima(pmap, u, seed, k_grid, n - k_grid + 1)
    return RateCurveEstimate(N=n, k_values=k_grid, levels=maxima / k_grid,
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

    trials: int
    successes: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    normalized_ratio: float
    one_sided: bool               # zero successes: only the upper bound binds
    window_unit: float | None     # unit of integer trial sums; None: float sums


def _trial_sums(pmap: PiecewiseMap, u: Observable, k: int, r: int, trials: int,
                seed: int) -> tuple[float | None, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """(unit, pairs): (S_k, S_k o f^r) pairs over independent Lebesgue
    starts, chunked.  Integer blocks (see `maps.IntegerRead`) sum each row
    in integers, in any order (r = 0 needs one sum), and scale the weight
    sum by the unit once; float values keep their row-wise prefix sums."""
    if k < 1 or r < 0:
        raise ValueError("need a window length k >= 1 and a shift r >= 0")
    view, blocks = trial_value_blocks(pmap, u, k + r, trials, seed)

    def row_sums(vals, r0):
        sums = vals[:, r0:r0 + k].sum(axis=1, dtype=_accumulator(vals.dtype, k))
        return view.sum_values(k, sums)

    def pairs():
        for vals in blocks:
            if view is None:
                csum = np.cumsum(vals, axis=1)
                yield csum[:, k - 1], csum[:, r + k - 1] - (csum[:, r - 1] if r > 0 else 0.0)
            else:
                first = row_sums(vals, 0)
                yield first, (row_sums(vals, r) if r else first)
    return (None if view is None else view.unit), pairs()


def _exceedances(pmap: PiecewiseMap, u: Observable, alpha: float, k: int, r: int,
                 trials: int, seed: int, phi: float, beta: float
                 ) -> tuple[int, int, float | None]:
    """(first, joint, unit) over `trials` Lebesgue starts: the counts of
    S_k > k alpha and of that with S_k o f^r > k alpha, and the unit of
    integer trial sums (None: float sums).  Refuses fewer than 1e4 trials,
    an alpha that is not finite, beta(alpha) <= 0, and k phi(alpha) past
    the direct-MC cap (a target probability below the floor e^{-12})."""
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials")
    _above_mean(alpha, beta, "the sharp large-deviation prefactor")
    if k * phi > MC_EXPONENT_CAP:
        raise BudgetExceededError(
            f"k*phi(alpha) = {k * phi:.2f} > {MC_EXPONENT_CAP}: direct Monte "
            "Carlo cannot resolve the target probability; an importance "
            "sampler over the tilted measure would be required")
    threshold = k * alpha
    first = joint = 0
    unit, pairs = _trial_sums(pmap, u, k, r, trials, seed)
    for s_first, s_shift in pairs:
        over = s_first > threshold
        first += int(np.sum(over))
        joint += int(np.sum(over & (s_shift > threshold)))
    return first, joint, unit


def ld_probability_mc(pmap: PiecewiseMap, u: Observable, alpha: float, k: int,
                      trials: int, seed: int, phi: float, beta: float) -> LdEstimate:
    """Estimate P(S_k > k alpha) over independent Lebesgue starts, with the
    rate data phi = phi(alpha) and beta = beta(alpha); refused as
    `_exceedances` refuses."""
    successes, _, unit = _exceedances(pmap, u, alpha, k, 0, trials, seed, phi, beta)
    p_hat = successes / trials
    lo, hi = wilson_interval(successes, trials)
    ratio = p_hat * beta * math.sqrt(k) * math.exp(k * phi)
    return LdEstimate(trials=trials, successes=successes,
                      p_hat=p_hat, ci_lo=lo, ci_hi=hi, normalized_ratio=ratio,
                      one_sided=(successes == 0), window_unit=unit)


@dataclass(frozen=True)
class DecouplingRow:
    r: int
    joint_p: float
    ci_lo: float
    ci_hi: float
    product_ratio: float          # joint / single^2 (roughly 1 at r = k)
    window_unit: float | None     # unit of integer trial sums; None: float sums


def decoupling_check(pmap: PiecewiseMap, u: Observable, alpha: float, k: int,
                     r_grid, trials: int, seed: int, phi: float, beta: float
                     ) -> list[DecouplingRow]:
    """Joint exceedance P(S_k > k alpha, S_k o f^r > k alpha) along r_grid.

    Descriptive decay table for the decoupling bound C e^{-k phi - r c};
    the product_ratio column compares against independence of the windows.
    Refused as `_exceedances` refuses.
    """
    rows = []
    single = None
    for r in np.asarray(r_grid, dtype=np.int64):
        first, joint, unit = _exceedances(pmap, u, alpha, k, int(r), trials, seed, phi, beta)
        if single is None:
            single = first / trials
        p = joint / trials
        lo, hi = wilson_interval(joint, trials)
        denom = single * single
        rows.append(DecouplingRow(r=int(r), joint_p=p, ci_lo=lo, ci_hi=hi,
                                  product_ratio=(p / denom if denom > 0 else math.inf),
                                  window_unit=unit))
    return rows
