"""Cylinder partitions, return times, and entropy CLT experiments.

The depth-k cylinder of x is the interval of points sharing x's first k
branch symbols; widths shrink like eta^{-k}, so beyond ~50 levels the
endpoints collapse in float64 and cylinder measures are tracked in log
form instead: exact slope products for piecewise-linear maps, and for
smooth maps an interval pullback over the innermost levels glued to a
derivative chain along the orbit (distortion sums converge geometrically,
so the glue error stays below ~1e-8).

Return times R_k of the leading k-word are detected in the orbit's own
symbol stream: the single-k scan is a prefix-function automaton, the
all-k-up-to-n variant restarts a vectorized first-occurrence search from
R_{k-1} (returns are nested).  Both are censored at a hard symbol cap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateVarianceError, DomainError
from .maps import PiecewiseMap, log_derivative, orbit, symbol_chunks
from .measures import GaussianLaw, WeightedEmpiricalMeasure, kantorovich
from .transfer import cell_average, green_kubo_sigma2, invariant_density

RETURN_TIME_CAP = 10**9
# start positions compared per vectorized step of the all-k return search
_RETURN_WINDOW = 1 << 12
_BREAKPOINT_TOL = 1e-14
# interval-pullback depth and center-chain depth for smooth-map cylinders;
# the split balances endpoint collapse (an ulp-level inverse error over the
# interval width) against the center-vs-mean-value error of the chain
_EXACT_LEVELS = 20
_CHAIN_LEVELS = 70


@dataclass(frozen=True)
class Itinerary:
    origin: float
    symbols: np.ndarray


@dataclass(frozen=True)
class CylinderInterval:
    lo: float
    hi: float
    depth: int
    symbols: tuple

    @property
    def width(self) -> float:
        return self.hi - self.lo


def itinerary(pmap: PiecewiseMap, x: float, n: int) -> Itinerary:
    """First n branch symbols of x under float iteration.

    Iterates that land within 1e-14 of a partition point are rejected (the
    itinerary is ambiguous there); callers retry with a fresh point.
    """
    x0 = float(x)
    pt = x0
    syms = np.empty(n, dtype=np.uint8)
    inner = pmap.breakpoints[1:-1]
    ends = pmap.breakpoints[[0, -1]]
    for t in range(n):
        # inner partition points make the symbol ambiguous; the interval
        # endpoints flag orbits that are preimages of the discontinuity
        collided = np.any(np.abs(pt - inner) < _BREAKPOINT_TOL) or (
            t > 0 and np.any(np.abs(pt - ends) < _BREAKPOINT_TOL))
        if collided:
            raise DomainError(
                f"iterate {t} of {x0} lies within {_BREAKPOINT_TOL:g} of a "
                "partition point; itinerary ambiguous (retry with a fresh point)")
        syms[t] = int(pmap.branch_index(pt))
        pt = float(pmap.apply(pt))
    return Itinerary(origin=x0, symbols=syms)


def cylinder_interval(pmap: PiecewiseMap, symbols) -> CylinderInterval:
    """Interval of points whose first len(symbols) symbols match the word.

    Backward pullback of the last symbol's cell through branch inverses;
    empty intersections (possible for non-full-branch maps) are rejected
    as inadmissible words.
    """
    word = tuple(int(s) for s in np.asarray(symbols).ravel())
    if not word:
        return CylinderInterval(0.0, 1.0, 0, ())
    bp = pmap.breakpoints
    s_last = word[-1]
    lo, hi = float(bp[s_last]), float(bp[s_last + 1])
    for s in reversed(word[:-1]):
        br = pmap.branches[s]
        img_lo, img_hi = br.image()
        a, b = max(lo, img_lo), min(hi, img_hi)
        if b - a <= 0.0:
            raise DomainError(f"word {word} is inadmissible (empty pullback)")
        x1 = float(br.inverse(a))
        x2 = float(br.inverse(b))
        lo, hi = (x1, x2) if x1 <= x2 else (x2, x1)
    return CylinderInterval(lo, hi, len(word), word)


def cylinder_measure(density: np.ndarray, cyl: CylinderInterval) -> float:
    """mu-measure of a cylinder by exact cell-overlap summation against an
    invariant-density table; warns when the cylinder is far below the cell
    resolution (the piecewise-constant density can no longer resolve it)."""
    N = len(density)
    if cyl.width < 0.1 / N:
        warnings.warn(
            f"cylinder width {cyl.width:.3g} is under a tenth of the density "
            f"cell 1/{N}; measure carries resolution bias")
    i0 = min(int(cyl.lo * N), N - 1)
    i1 = min(int(cyl.hi * N), N - 1)
    if i0 == i1:
        return float(density[i0] * cyl.width)
    edges = np.arange(i0, i1 + 2) / N
    overlaps = np.minimum(edges[1:], cyl.hi) - np.maximum(edges[:-1], cyl.lo)
    return float(np.sum(density[i0:i1 + 1] * np.clip(overlaps, 0.0, None)))


def rokhlin_entropy(pmap: PiecewiseMap, density: np.ndarray) -> float:
    """h = integral of log|f'| against the invariant density."""
    N = len(density)
    vals = cell_average(lambda x: pmap.log_abs_derivative(x), N)
    return float(np.sum(vals * density) / N)


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

def _prefix_function(pattern: np.ndarray) -> np.ndarray:
    pi = np.zeros(len(pattern), dtype=np.int64)
    j = 0
    for i in range(1, len(pattern)):
        while j > 0 and pattern[i] != pattern[j]:
            j = int(pi[j - 1])
        if pattern[i] == pattern[j]:
            j += 1
        pi[i] = j
    return pi


def _iter_symbols(symbols) -> Iterator[np.ndarray]:
    if isinstance(symbols, np.ndarray):
        yield symbols
        return
    yield from symbols


def return_time(symbols, n: int, cap: int = RETURN_TIME_CAP) -> int | None:
    """R_n = smallest k >= 1 with symbols[k : k+n] equal to symbols[0 : n].

    Prefix-function (failure automaton) scan: O(1) amortized per symbol,
    O(n) memory, works on an array or an iterator of numpy chunks.  Returns
    None when no recurrence shows up within `cap` symbols (censored); the
    caller decides how to report the censoring.
    """
    if n < 1:
        raise ValueError("pattern depth must be >= 1")
    chunks = _iter_symbols(symbols)
    pattern: list[int] = []
    buffered = np.empty(0, dtype=np.int64)
    while len(pattern) < n:
        try:
            chunk = np.asarray(next(chunks)).ravel()
        except StopIteration:
            raise ValueError(f"stream shorter than the pattern depth {n}")
        need = n - len(pattern)
        pattern.extend(int(v) for v in chunk[:need])
        buffered = chunk[need:]
    pat = np.asarray(pattern, dtype=np.int64)
    pi = _prefix_function(pat)

    state = 0
    t = 1  # stream index of the next text symbol (text = stream shifted by 1)

    def feed(block) -> int | None:
        nonlocal state, t
        for c in block:
            c = int(c)
            while state > 0 and c != pat[state]:
                state = int(pi[state - 1])
            if c == pat[state]:
                state += 1
            t += 1
            if state == n:
                return t - n  # occurrence start = return time
        return None

    # a return time R <= cap ends by stream position cap + n - 1, so trim
    # the text there; returns may overlap the leading word, so the text
    # starts with the pattern's own tail before fresh symbols arrive
    last = cap + n - 1

    def budget(block):
        block = np.asarray(block).ravel()
        return block[: max(last - t + 1, 0)]

    hit = feed(budget(pat[1:]))
    if hit is None:
        hit = feed(budget(buffered))
    if hit is not None:
        return hit
    for chunk in chunks:
        if t > last:
            return None
        hit = feed(budget(chunk))
        if hit is not None:
            return hit
    return None


def return_times_upto(symbols, n: int, cap: int = RETURN_TIME_CAP) -> np.ndarray:
    """R_k for every k <= n from one stream; censored entries are -1.

    Exploits nesting (R_k is nondecreasing in k): the first occurrence of
    the (k+1)-prefix is searched from R_k onward with vectorized window
    comparison on a buffered stream, read only as far as the search window
    reaches: max R_k + n plus at most one window and one chunk.
    """
    chunks = _iter_symbols(symbols)
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
    pattern = buf[:n].copy()
    out = np.full(n, -1, dtype=np.int64)
    start = 1
    for k in range(1, n + 1):
        word = pattern[:k]
        found = -1
        pos = start
        while pos <= cap:
            hi = min(pos + _RETURN_WINDOW, cap + 1)
            if not extend(hi + k - 1) and size < pos + k:
                break
            hi = min(hi, size - k + 1)
            if hi <= pos:
                break
            cand = pos + np.flatnonzero(buf[pos:hi] == word[0])
            if len(cand) and k > 1:
                windows = buf[cand[:, None] + np.arange(k)[None, :]]
                cand = cand[np.all(windows == word[None, :], axis=1)]
            if len(cand):
                found = int(cand[0])
                break
            pos = hi
        if found < 0:
            break  # deeper prefixes cannot recur earlier; all censored
        out[k - 1] = found
        start = found
    return out


# ---------------------------------------------------------------------------
# cylinder measures in log form along an orbit
# ---------------------------------------------------------------------------

def _inverse_by_symbol(pmap, sym, y):
    """Preimage of each y[i] under branch sym[i]."""
    x = np.empty(len(y))
    for s, br in enumerate(pmap.branches):
        m = sym == s
        if np.any(m):
            x[m] = br.inverse(y[m])
    return x


def _pullback_interval_layers(pmap, symbols, n, levels):
    """Exact interval pullback of depth min(k, levels) for every k <= n.

    Returns (lo, hi) arrays; for k <= levels the pullback is complete and
    [lo, hi] is the whole depth-k cylinder.
    """
    lo = np.zeros(n)
    hi = np.ones(n)
    for d in range(min(levels, n)):
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
    The density enters through its average over the cylinder; beyond a few
    levels the cylinder sits inside the cell of the orbit's start point.
    """
    symbols = np.asarray(symbols)
    n = len(symbols)
    N = len(density)
    all_linear = all(br.is_linear for br in pmap.branches)
    if all_linear:
        slopes = np.array([abs(br.slope) for br in pmap.branches])
        if np.ptp(slopes) == 0.0:
            log_width = -np.arange(1, n + 1, dtype=float) * math.log(slopes[0])
        else:
            log_width = -np.cumsum(np.log(slopes)[symbols])
        # interval location for the density factor: exact pullback of the
        # leading word while widths are representable
        lead = min(n, 45)
        cyl = [cylinder_interval(pmap, symbols[:k]) for k in range(1, lead + 1)]
        log_h = np.empty(n)
        for k, c in enumerate(cyl):
            log_h[k] = _log_density_average(density, c.lo, c.hi)
        if n > lead:
            anchor = cyl[-1]
            cell = min(int(0.5 * (anchor.lo + anchor.hi) * N), N - 1)
            log_h[lead:] = math.log(density[cell])
        return log_h + log_width

    if points is None:
        raise ValueError("smooth maps need the orbit points for the derivative chain")
    exact = min(_EXACT_LEVELS, n)
    lo, hi = _pullback_interval_layers(pmap, symbols, n, _EXACT_LEVELS)
    acc = np.zeros(n)
    # derivative chain through pullback centers for levels exact..exact+chain
    c = 0.5 * (lo + hi)
    for d in range(exact, min(_EXACT_LEVELS + _CHAIN_LEVELS, n)):
        c[d:] = _inverse_by_symbol(pmap, symbols[:n - d], c[d:])
        acc[d:] -= np.log(np.abs(pmap.derivative(c[d:])))
    # orbit-point prefix sums for the remaining outer levels
    depth = _EXACT_LEVELS + _CHAIN_LEVELS
    if n > depth:
        logd = np.log(np.abs(pmap.derivative(points)))
        acc[depth:] -= np.cumsum(logd)[:n - depth]
    log_width = np.log(hi - lo) + acc
    cell = min(int(points[0] * N), N - 1)
    log_h = np.full(n, math.log(density[cell]))
    for k in range(exact):
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
    sandwich_epsilon: float = 1.0


def _entropy_sigma2(pmap, resolution):
    u = log_derivative(pmap)
    h_table = invariant_density(pmap, resolution)
    hbar = cell_average(u, resolution)
    mean = float(np.sum(hbar * h_table) / resolution)
    centered = u.with_mean(mean)
    sigma2 = green_kubo_sigma2(pmap, centered, "quadrature", N=resolution)
    return sigma2, h_table


def _entropy_run(pmap, n, seed, checkpoints, kind, eps, resolution, cap, sigma2):
    if sigma2 is None:
        sigma2, h_table = _entropy_sigma2(pmap, resolution)
    else:
        h_table = invariant_density(pmap, resolution)
    if sigma2 <= 1e-6:
        raise DegenerateVarianceError(
            f"sigma^2 = {sigma2:.3g} for log|f'|: constant-slope map, the "
            "entropy CLT degenerates and the run is refused")
    h = rokhlin_entropy(pmap, h_table)
    orb = orbit(pmap, seed, n)
    log_mu = cylinder_log_measures(pmap, orb.symbols, h_table,
                                   points=None if pmap.dyadic_exact else orb.points)
    ks = np.arange(1, n + 1, dtype=float)
    minus_log_mu = -log_mu
    if kind == "smb":
        atoms = (minus_log_mu - ks * h) / np.sqrt(ks)
        log_returns = None
        censored = 0
        sandwich = None
        keep = np.ones(n, dtype=bool)
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
    if checkpoints is None:
        from .asclt import default_checkpoints
        checkpoints = default_checkpoints(n)
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    sigma = math.sqrt(sigma2)
    law = GaussianLaw(sigma)
    weights = 1.0 / ks
    kappas = np.empty(len(checkpoints))
    for i, m in enumerate(checkpoints):
        sel = keep[:m]
        if not np.any(sel):
            raise DomainError(
                f"every return time up to checkpoint {m} was censored at the "
                f"cap; raise the cap or lower the depth")
        emp = WeightedEmpiricalMeasure(atoms[:m][sel], weights[:m][sel], int(np.sum(sel)))
        kappas[i] = kantorovich(emp, law)
    return EntropyDiagnostics(
        kind=kind, seed=seed, h_rokhlin=h, sigma_used=sigma,
        k_values=np.arange(1, n + 1), minus_log_mu=minus_log_mu, atoms=atoms,
        checkpoints=checkpoints, kappa_values=kappas, log_returns=log_returns,
        censored=censored, sandwich_ok=sandwich, sandwich_epsilon=eps)


def smb_run(pmap: PiecewiseMap, n: int, seed: int, checkpoints=None,
            eps: float = 1.0, resolution: int = 2048, sigma2: float | None = None
            ) -> EntropyDiagnostics:
    """Cylinder-measure CLT: atoms (-log mu(P_k) - k h)/sqrt(k) against
    N(0, sigma^2) for u = log|f'| - h.  Constant-slope maps are refused."""
    return _entropy_run(pmap, n, seed, checkpoints, "smb", eps, resolution,
                        RETURN_TIME_CAP, sigma2)


def ow_run(pmap: PiecewiseMap, n: int, seed: int, checkpoints=None,
           eps: float = 1.0, resolution: int = 2048, cap: int = RETURN_TIME_CAP,
           sigma2: float | None = None) -> EntropyDiagnostics:
    """Return-time CLT: atoms (log R_k - k h)/sqrt(k), with the cylinder
    sandwich flags on log[R_k mu(P_k)].  Censored k are dropped from the
    empirical measure and counted."""
    return _entropy_run(pmap, n, seed, checkpoints, "ow", eps, resolution,
                        cap, sigma2)
