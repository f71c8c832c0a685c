"""Slow reference implementations that serve only as test oracles.

`moving_max` is the pure-Python window-maximum scan that checks
`ergostat.erdos_renyi._moving_max_chunked`; `return_time` is the
prefix-function (KMP) single-depth return-time scan that checks
`ergostat.entropy.return_times_upto`.  `kantorovich_bruteforce` is the
adaptive-quadrature oracle of `ergostat.measures.kantorovich`, with the
point-mass and interpolated comparison laws its checks use, and
`kantorovich_reference` is its first closed form (timsort, law evaluated
at both ends of every segment), which the ladder's kappas must reproduce
bit for bit;
`itinerary` (float-iterated branch symbols of a point),
`cylinder_interval` (the pullback of one word, refusing an empty one) and
`cylinder_measure` (cell-overlap measure of one cylinder) check the
cylinder machinery of `ergostat.entropy`, and `apply_by_branch`,
`derivative_by_branch` and `inverse_by_symbol` (one mask per branch,
through the `Branch` objects) are the loops that the array kernels behind
`PiecewiseMap.apply`, `.derivative` and `.inverse` must reproduce bit for
bit.  `evaluate` (image, branch and
derivative of a point), `birkhoff_sums` (partial sums along an orbit) and
`rate_diagnostic` (boundedness verdict of an asclt rate sequence) are
small readers of program objects that only the tests use.
`statistic_atoms_reference` (every orbit value concatenated, then sums
over the whole array) gives the atoms that
`ergostat.asclt.normalized_statistic_atoms` must stream bit for bit.
`binomial_band` gives the acceptance band of a Monte Carlo success count
from the exact binomial law.  `integer_symbol_blocks` (one
`Generator.integers` call per 65536-symbol block) defines the seeded
symbol stream that `ergostat.maps._SymbolSource` must reproduce.
`reconstruct_points` (one gather per level over the whole stream) is the
level-by-level form that `ergostat.maps.points_from_symbols` must
reproduce bit for bit, `coin_rate` is the closed-form rate data phi(alpha)
and beta(alpha) of the coin on the doubling map, and
`power_iteration_reference` (two matvecs per step) is the loop that
`ergostat.transfer._power_iteration` must reproduce bit for bit, and
`transpose_product` (one `np.bincount` over the CSR arrays) is the
transpose's product that the transposed pattern's matvec, and so every
left Perron vector, must reproduce bit for bit.
`linear_cut_samples` is the affine-preimage Ulam assembly that
`ergostat.transfer` must reproduce bit for bit on linear maps, and
`chebyshev_transfer` is the exponentially convergent Chebyshev
collocation of the transfer operator of a full-branch map, the reference
for every Ulam spectral constant (density, h, sigma^2, F).
`scipy_csr` (scipy's `coo_matrix(...).tocsr()`) and `as_scipy` are the
sparse layout and matvec that `ergostat.transfer.CSRMatrix` must
reproduce, and `dense` reads one out as an array;
`bisection_reference` is the vectorized 60-step bisection that
`Law.cdf_inverse_in` must reproduce on every crossing; `WeightedMeasure`
is the arbitrary-weight measure that the Kantorovich oracles read, with
its merged support; `law_cdf`,
`left_tail`, `right_tail` and `cdf_integral` read a law's
`cdf_and_antiderivative` pair.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np
from scipy import sparse
from scipy.stats import binom

from ergostat.asclt import AscltDiagnostics
from ergostat.entropy import RETURN_TIME_CAP
from ergostat.errors import BudgetExceededError, ConvergenceError, DomainError
from ergostat.maps import (Branch, Observable, Orbit, PiecewiseMap, _symbol_tail_depth,
                           orbit_value_chunks)
from ergostat.measures import HalfGaussianLaw, Law
from ergostat.transfer import POWER_MAX_ITER, POWER_TOL, CSRMatrix

_BREAKPOINT_TOL = 1e-14


def _iter_symbols(symbols) -> Iterator[np.ndarray]:
    if isinstance(symbols, np.ndarray):
        yield symbols
        return
    yield from symbols


def moving_max(values, k: int) -> tuple[float, int]:
    """Maximum window sum of length k over a value sequence, with argmax.

    Linear prefix-sum scan with a k-lag delay line (the monotone queue of
    sliding-window maxima degenerates to a pure delay for one fixed k);
    accepts any iterable and keeps O(k) memory.
    """
    if k < 1:
        raise ValueError("window length must be positive")
    lag: deque[float] = deque([0.0])
    best = -math.inf
    best_j = -1
    prefix = 0.0
    count = 0
    for v in values:
        prefix += float(v)
        count += 1
        lag.append(prefix)
        if len(lag) > k:
            window = prefix - lag.popleft()
            j = count - k
            if window > best:
                best, best_j = window, j
    if count < k:
        raise ValueError(f"stream of length {count} is shorter than the window {k}")
    return best, best_j


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


# -- Kantorovich distance ------------------------------------------------------

@dataclass(frozen=True)
class WeightedMeasure:
    """Atoms at `positions` with arbitrary positive `weights`, normalized by
    their pairwise `np.sum`: the measure that the Kantorovich oracles read."""

    positions: np.ndarray
    weights: np.ndarray

    @classmethod
    def harmonic(cls, values, n: int | None = None, keep=None) -> WeightedMeasure:
        """(1/D) sum_{k<=n} (1/k) delta_{values[k-1]}, over the k with
        keep[k-1] when a mask is given: the measure of a
        `kantorovich_ladder` checkpoint at n."""
        values = np.asarray(values, dtype=float)
        n = len(values) if n is None else n
        weights = 1.0 / np.arange(1, n + 1, dtype=float)
        sel = slice(None) if keep is None else np.asarray(keep[:n], dtype=bool)
        return cls(values[:n][sel], weights[sel])

    @property
    def normalizer(self) -> float:
        return float(np.sum(self.weights))

    @cached_property
    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """(support, weights): the distinct positions in stable order, and
        their normalized weights, each tie run summed in index order by
        `np.add.at`."""
        order = np.argsort(self.positions, kind="stable")
        pos = self.positions[order]
        w = self.weights[order] / self.normalizer
        distinct = np.empty(len(pos), dtype=bool)
        distinct[0] = True
        np.not_equal(pos[1:], pos[:-1], out=distinct[1:])
        idx = np.cumsum(distinct) - 1
        merged = np.zeros(int(idx[-1]) + 1)
        np.add.at(merged, idx, w)
        return pos[distinct], merged


@dataclass(frozen=True)
class DiracLaw(Law):
    """Point mass at a (test-harness comparison law)."""

    a: float

    def cdf_and_antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        return (x >= self.a).astype(float), np.maximum(x - self.a, 0.0)

    def cdf_float(self, x: float) -> float:
        return 1.0 if x >= self.a else 0.0

    @property
    def tail_constant(self) -> float:
        return self.a


class InterpolatedLaw(Law):
    """Continuous law whose CDF linearly interpolates empirical quantiles;
    used as a middle measure in triangle-inequality checks."""

    def __init__(self, positions, cum_probs):
        positions = np.asarray(positions, dtype=float)
        cum_probs = np.asarray(cum_probs, dtype=float)
        if len(positions) < 2:
            raise ValueError("need at least two nodes")
        self.xs = positions
        self.cs = cum_probs
        # nodal antiderivative values by exact trapezoid accumulation
        self._Is = np.concatenate(
            [[0.0], np.cumsum(0.5 * (self.cs[1:] + self.cs[:-1]) * np.diff(self.xs))])

    def cdf_float(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.cs, left=0.0, right=1.0))

    def cdf_and_antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        F = np.interp(x, self.xs, self.cs, left=0.0, right=1.0)
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        x0, x1 = self.xs[idx], self.xs[idx + 1]
        c0, c1 = self.cs[idx], self.cs[idx + 1]
        slope = (c1 - c0) / (x1 - x0)
        dx = np.clip(x, x0, x1) - x0
        inside = self._Is[idx] + c0 * dx + 0.5 * slope * dx * dx
        after = self._Is[-1] + (x - self.xs[-1])
        return F, np.where(x <= self.xs[0], 0.0, np.where(x >= self.xs[-1], after, inside))

    @property
    def tail_constant(self) -> float:
        return float(self.xs[-1] - self._Is[-1])


def law_cdf(law: Law, x):
    """F(x), from the law's pair."""
    return law.cdf_and_antiderivative(x)[0]


def left_tail(law: Law, x):
    """int_{-inf}^x F(t) dt, the antiderivative itself."""
    return law.cdf_and_antiderivative(x)[1]


def right_tail(law: Law, x):
    """int_x^inf (1 - F(t)) dt."""
    return law.tail_constant - x + law.cdf_and_antiderivative(x)[1]


def cdf_integral(law: Law, a, b):
    """int_a^b F(x) dx."""
    return law.cdf_and_antiderivative(b)[1] - law.cdf_and_antiderivative(a)[1]


def bisection_reference(law: Law, a, b, p) -> np.ndarray:
    """Crossing points of level p in [a, b]: 60 bisection steps on whole
    arrays, with the law's array CDF."""
    a = np.array(a, dtype=float, copy=True)
    b = np.array(b, dtype=float, copy=True)
    for _ in range(60):
        mid = 0.5 * (a + b)
        below = law_cdf(law, mid) < p
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


def as_interpolated_law(emp: WeightedMeasure) -> InterpolatedLaw:
    """Continuous law through the cumulative weights of `emp`."""
    pos, w = emp.merged
    if len(pos) == 1:
        pos = np.array([pos[0] - 1e-12, pos[0] + 1e-12])
        return InterpolatedLaw(pos, np.array([0.0, 1.0]))
    return InterpolatedLaw(pos, np.cumsum(w))


def _adaptive_simpson(f, a, b, fa, fm, fb, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        raise BudgetExceededError("quadrature tolerance unreachable within subdivision budget")
    # local tolerance floored at float resolution of the partial sums
    eff = max(tol, 1e-16 * (abs(left) + abs(right)))
    if abs(left + right - whole) <= 15.0 * eff:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, 0.5 * tol, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, 0.5 * tol, depth - 1))


def kantorovich_bruteforce(emp: WeightedMeasure, law: Law,
                           cutoff: float | None = None, tol: float = 1e-10) -> float:
    """Independent oracle: adaptive Simpson quadrature of |F_emp - F_law|
    on [-R, R] plus analytic tails.  Slower but shares no antiderivative
    logic with `kantorovich`."""
    pos, w = emp.merged
    cum = np.concatenate([[0.0], np.cumsum(w)])
    cum[-1] = 1.0
    scale = getattr(law, "sigma", 1.0)
    if cutoff is None:
        cutoff = 10.0 * (scale + float(np.max(np.abs(pos)))) + 1.0
    if cutoff < 10.0 * (scale + float(np.max(np.abs(pos)))):
        raise ValueError("cutoff too small: tails would not be negligible")

    def femp(x):
        idx = int(np.searchsorted(pos, x, side="right"))
        return cum[idx]

    def integrand(x):
        return abs(femp(x) - law.cdf_float(x))

    # subdivide at atom positions and at law kinks (Dirac atom, half-Gaussian 0)
    nodes = [-cutoff, cutoff]
    nodes.extend(float(p) for p in pos)
    for kink in (getattr(law, "a", None), 0.0 if isinstance(law, HalfGaussianLaw) else None):
        if kink is not None:
            nodes.append(float(kink))
    nodes = sorted(x for x in set(nodes) if -cutoff <= x <= cutoff)

    total = 0.0
    span = nodes[-1] - nodes[0]
    for a, b in zip(nodes[:-1], nodes[1:]):
        if b <= a:
            continue
        seg_tol = tol * max((b - a) / span, 1e-6)
        # evaluate just inside the segment so atom jumps stay on the boundary
        eps = 1e-12 * max(1.0, abs(a), abs(b))
        fa, fm, fb = integrand(a + eps), integrand(0.5 * (a + b)), integrand(b - eps)
        total += _adaptive_simpson(integrand, a, b, fa, fm, fb, seg_tol, depth=40)
    total += float(left_tail(law, -cutoff)) + float(right_tail(law, cutoff))
    return total


def kantorovich_reference(emp: WeightedMeasure, law: Law) -> float:
    """The closed-form kernel in its first form, which `kantorovich` must
    reproduce bit for bit on a harmonic measure: a timsort
    (`kind="stable"`), equal atoms always merged with `np.add.at`, and the
    law evaluated at both ends of every segment."""
    pos, merged = emp.merged
    cum = np.cumsum(merged)
    cum[-1] = 1.0

    total = float(left_tail(law, pos[0])) + float(right_tail(law, pos[-1]))
    if len(pos) == 1:
        return total
    a, b = pos[:-1], pos[1:]
    c = cum[:-1]
    fa, fb = law_cdf(law, a), law_cdf(law, b)
    seg_int = cdf_integral(law, a, b)
    seg_len = b - a
    above = fa >= c
    below = fb <= c
    crossing = ~(above | below)
    pieces = np.where(above, seg_int - c * seg_len,
                      np.where(below, c * seg_len - seg_int, 0.0))
    if np.any(crossing):
        ac, bc, cc = a[crossing], b[crossing], c[crossing]
        xs = law.cdf_inverse_in(ac, bc, cc)
        left = cc * (xs - ac) - cdf_integral(law, ac, xs)
        right = cdf_integral(law, xs, bc) - cc * (bc - xs)
        pieces[crossing] = np.maximum(left, 0.0) + np.maximum(right, 0.0)
    return total + float(np.sum(np.maximum(pieces, 0.0)))


# -- cylinders ------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderInterval:
    lo: float
    hi: float
    depth: int
    symbols: tuple

    @property
    def width(self) -> float:
        return self.hi - self.lo


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


def itinerary(pmap: PiecewiseMap, x: float, n: int) -> np.ndarray:
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
    return syms


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


def _by_branch(pmap: PiecewiseMap, x, method, idx=None) -> np.ndarray:
    """method(branch, points) on the points of each branch; idx names each
    point's branch (by default the branch it lies in)."""
    x = np.asarray(x, dtype=float)
    idx = pmap.branch_index(x) if idx is None else idx
    out = np.empty_like(x, dtype=float)
    for i, br in enumerate(pmap.branches):
        mask = idx == i
        if np.any(mask):
            out[mask] = method(br, x[mask])
    return out


def apply_by_branch(pmap: PiecewiseMap, x) -> np.ndarray:
    """f(x) through each point's `Branch`, clipped to [0, 1]."""
    return np.clip(_by_branch(pmap, x, Branch.__call__), 0.0, 1.0)


def derivative_by_branch(pmap: PiecewiseMap, x) -> np.ndarray:
    """f'(x) through each point's `Branch`."""
    return _by_branch(pmap, x, Branch.derivative)


def inverse_by_symbol(pmap: PiecewiseMap, sym, y) -> np.ndarray:
    """Preimage under branch sym[i] of each y[i], clipped to that branch's image."""
    return _by_branch(pmap, y, lambda br, v: br.inverse(np.clip(v, *br.image())), sym)


# -- symbolic reconstruction and Legendre transform, one element at a time ----

def integer_symbol_blocks(seed: int, b: int, n: int) -> np.ndarray:
    """The first n symbols of the b-branch stream of `seed`: blocks of
    `integers(0, b, 65536, uint8)` from `Generator(PCG64(seed))`, one call
    per block, the definition that `ergostat.maps._SymbolSource` must
    reproduce byte for byte however its reads are cut."""
    gen = np.random.Generator(np.random.PCG64(seed))
    blocks = [gen.integers(0, b, size=1 << 16, dtype=np.uint8)
              for _ in range(-(-n // (1 << 16)))]
    return np.concatenate(blocks)[:n] if blocks else np.empty(0, dtype=np.uint8)


def reconstruct_points(pmap: PiecewiseMap, symbols: np.ndarray, n: int) -> np.ndarray:
    """Orbit points from the symbol tail, one level at a time: each level
    gathers the branch data of the whole stream and makes fresh arrays."""
    symbols = np.asarray(symbols)
    depth = _symbol_tail_depth(pmap)
    if symbols.shape[-1] < n + depth:
        raise ValueError("symbol stream too short for point reconstruction")
    slopes, intercepts = pmap.linear
    x = np.full(symbols.shape[:-1] + (n,), 0.5)
    for d in range(depth - 1, -1, -1):
        s = symbols[..., d : d + n]
        x = (x - intercepts[s]) / slopes[s]
    return x


def coin_rate(alpha: float) -> tuple[float, float]:
    """(phi(alpha), beta(alpha)) of the +/-1/2 coin on the doubling map in
    closed form: the Cramer rate function of a fair +/-1/2 step and its
    derivative log((1 + 2 alpha) / (1 - 2 alpha))."""
    phi = (0.5 + alpha) * math.log1p(2 * alpha) + (0.5 - alpha) * math.log1p(-2 * alpha)
    return phi, math.log1p(2 * alpha) - math.log1p(-2 * alpha)


def scipy_csr(values, rows, cols, n: int) -> sparse.csr_matrix:
    """scipy's n x n CSR matrix of the values summed at (rows, cols)."""
    return sparse.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()


def as_scipy(mat: CSRMatrix) -> sparse.csr_matrix:
    """The same arrays as a scipy CSR matrix, for its matvec."""
    return sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def dense(mat: CSRMatrix) -> np.ndarray:
    return as_scipy(mat).toarray()


def transpose_product(mat: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """The transpose's product: each entry times x at its row, summed into
    its column in CSR order."""
    return np.bincount(mat.indices, weights=mat.data * np.repeat(x, np.diff(mat.indptr)),
                       minlength=mat.shape[0])


def power_iteration_reference(mat: CSRMatrix, product=None) -> tuple[float, np.ndarray]:
    """Leading eigenpair of `product` (default: mat's matvec) by power
    iteration from the flat start, with a fresh product for each step's
    residual."""
    n = mat.shape[0]
    product = product or mat.__matmul__
    v = np.full(n, 1.0 / n)
    for _ in range(POWER_MAX_ITER):
        w = product(v)
        s = float(np.sum(np.abs(w)))
        if s == 0.0:
            raise ConvergenceError("power iteration hit the zero vector")
        w = w / s
        if float(np.sum(np.abs(product(w) - s * w))) / s <= POWER_TOL:
            return s, w
        v = w
    raise ConvergenceError("power iteration did not converge")


# -- readers of program objects -------------------------------------------------

def evaluate(pmap: PiecewiseMap, x):
    """Return (image, branch index, derivative) for x in [0,1)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"point {x} outside [0,1)")
    image = pmap.apply(arr)
    idx = pmap.branch_index(arr)
    deriv = pmap.derivative(arr)
    if arr.ndim == 0:
        return float(image), int(idx), float(deriv)
    return image, idx, deriv


def birkhoff_sums(orb: Orbit, u: Observable) -> np.ndarray:
    """Partial sums S_k = sum_{j<k} u(f^j x), k = 1..n."""
    return np.cumsum(u(orb.points))


def statistic_atoms_reference(pmap: PiecewiseMap, u: Observable, n: int, seed: int,
                              running_max: bool = False) -> np.ndarray:
    """Atoms S_k/sqrt(k), k = 1..n (or S*_k/sqrt(k)) from the whole orbit at
    once: the chunks concatenated, one cumsum, one running maximum and one
    division over the whole array."""
    vals = np.concatenate(list(orbit_value_chunks(pmap, u, seed, n)))
    s = np.cumsum(vals)
    if running_max:
        s = np.maximum.accumulate(s)
    return s / np.sqrt(np.arange(1, n + 1, dtype=float))


def rate_diagnostic(diag: AscltDiagnostics) -> tuple[np.ndarray, str]:
    """Normalized rate sequence and a descriptive boundedness verdict.

    Verdict is "bounded" when the running maximum of the normalized rates
    has stabilized (last value at most 1.5x its median); no almost-sure
    claim is implied.
    """
    if len(diag.checkpoints) < 2:
        raise ValueError("need at least two checkpoints")
    seq = diag.normalized_rates
    running = np.maximum.accumulate(seq)
    verdict = "bounded" if running[-1] <= 1.5 * float(np.median(running)) else "unbounded"
    return seq, verdict


def binomial_band(trials: int, p: float, tail: float = 0.005) -> tuple[int, int, float]:
    """Central band [lo, hi] of a Binomial(trials, p) count, cut at `tail`
    on each side, and the exact probability that a correct count falls
    outside it (at most 2 * tail)."""
    lo = int(binom.ppf(tail, trials, p))
    hi = int(binom.isf(tail, trials, p))
    return lo, hi, float(binom.cdf(lo - 1, trials, p) + binom.sf(hi, trials, p))


def linear_cut_samples(pmap: PiecewiseMap, N: int):
    """(rows, cols, lens, points) of the Ulam samples of a piecewise-linear
    map, cut at the source-cell edges and at the affine preimages
    (y - intercept) / slope of the target-cell edges: the linear-branch
    formula that `ergostat.transfer._ulam_samples` must reproduce bit for
    bit."""
    edges = np.arange(N + 1) / N
    rows, cols, lengths, points = [], [], [], []
    for br, slope, intercept in zip(pmap.branches, *pmap.linear):
        ylo, yhi = br.image()
        inner_src = edges[(edges > br.lo + 1e-15) & (edges < br.hi - 1e-15)]
        img_edges = edges[(edges > ylo + 1e-15) & (edges < yhi - 1e-15)]
        pulled = (img_edges - intercept) / slope
        cuts = np.unique(np.concatenate([[br.lo, br.hi], inner_src, pulled]))
        mids = 0.5 * (cuts[1:] + cuts[:-1])
        lens = np.diff(cuts)
        keep = lens > 1e-15
        mids, lens = mids[keep], lens[keep]
        rows.append(np.clip((br(mids) * N).astype(np.int64), 0, N - 1))
        cols.append(np.clip((mids * N).astype(np.int64), 0, N - 1))
        lengths.append(lens)
        points.append(mids)
    return tuple(np.concatenate(a) for a in (rows, cols, lengths, points))


def _clenshaw_curtis(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights of the n second-kind Chebyshev points of
    [0, 1] (Trefethen, Spectral Methods in MATLAB, `clencurt`)."""
    m = n - 1
    theta = np.pi * np.arange(1, m) / m
    v = np.ones(m - 1)
    for k in range(1, (m - 1) // 2 + 1):
        v -= 2.0 * np.cos(2 * k * theta) / (4 * k * k - 1)
    if m % 2 == 0:
        v -= np.cos(m * theta) / (m * m - 1)    # the k = m/2 term counts once
    end = 1.0 / (m * m - 1) if m % 2 == 0 else 1.0 / (m * m)
    return 0.5 * np.concatenate([[end], 2.0 * v / m, [end]])


@dataclass(frozen=True)
class ChebyshevTransfer:
    """Chebyshev collocation of the transfer operator of a full-branch map
    with analytic branches, which converges exponentially in the number of
    nodes (Wormell, "Spectral Galerkin methods for transfer operators in
    uniformly expanding dynamics", Numer. Math. 2019).

    Functions are held by their values at n second-kind Chebyshev points
    y_j of [0, 1], read between nodes by barycentric Lagrange
    interpolation and integrated by Clenshaw-Curtis weights q.  The
    operator weighted by w is

        (L_w v)(y_j) = sum_i w(g_i(y_j)) v(g_i(y_j)) / |f'(g_i(y_j))| ,

    g_i the inverse of branch i, and w is read on branch i as its limit
    from inside the branch (g clipped to [lo, nextafter(hi, 0)]), so a
    branch-constant observable such as `coin` takes its own branch's
    value at the breakpoint.  Since integral L_w v = integral w v, every
    mu-integral below is q . (L_w h), which keeps a discontinuity of w
    at a breakpoint out of the interpolant.
    """

    pmap: PiecewiseMap
    nodes: np.ndarray
    q: np.ndarray
    pre: tuple            # per branch: (g clipped into the branch, 1/|f'(g)|, Lagrange rows at g)

    def operator(self, w=None) -> np.ndarray:
        """The n x n matrix of L_w; w maps points to weights (None: 1)."""
        return sum((inv_df if w is None else w(g) * inv_df)[:, None] * basis
                   for g, inv_df, basis in self.pre)

    @cached_property
    def density(self) -> np.ndarray:
        """Invariant density at the nodes: the eigenvector at eigenvalue 1,
        normalised so that q . h = 1, as the least-squares solution of
        (A - I) h = 0 bordered by q . h = 1."""
        n = len(self.nodes)
        system = np.vstack([self.operator() - np.eye(n), self.q])
        return np.linalg.lstsq(system, np.eye(n + 1)[-1], rcond=None)[0]

    def integral(self, w) -> float:
        """mu-integral of w."""
        return float(self.q @ (self.operator(w) @ self.density))

    def entropy(self) -> float:
        """Rokhlin entropy h = integral of log|f'| against mu."""
        return self.integral(self.pmap.log_abs_derivative)

    def sigma2(self, u: Observable) -> float:
        """Green-Kubo sigma^2 = C_0 + 2 sum_j C_j of u - E_mu u, with
        C_j = integral ubar L^j(ubar h) = q . (L_ubar L^(j-1) L_ubar h)."""
        mean = self.integral(u)

        def ubar(x):
            return u(x) - mean

        a, au, h = self.operator(), self.operator(ubar), self.density
        c0 = self.integral(lambda x: ubar(x) ** 2)
        row, v = self.q @ au, au @ h
        total = c0
        for _ in range(2000):
            c = float(row @ v)
            total += 2.0 * c
            if abs(c) <= 1e-18 * c0:
                return total
            v = a @ v
        raise AssertionError("correlations did not decay within 2000 lags")

    def pressure(self, u: Observable, betas) -> np.ndarray:
        """F(beta): log of the leading eigenvalue of L_{e^{beta u}}."""
        return np.array([np.log(np.max(np.linalg.eigvals(
            self.operator(lambda x, b=b: np.exp(b * u(x)))).real)) for b in betas])


def chebyshev_transfer(pmap: PiecewiseMap, n: int) -> ChebyshevTransfer:
    """`ChebyshevTransfer` of a full-branch map on n nodes."""
    nodes = np.sin(0.5 * np.pi * np.arange(n) / (n - 1)) ** 2
    bary = (-1.0) ** np.arange(n)
    bary[[0, -1]] *= 0.5
    pre = []
    for br in pmap.branches:
        ylo, yhi = br.image()
        if abs(ylo) > _BREAKPOINT_TOL or abs(yhi - 1.0) > _BREAKPOINT_TOL:
            raise ValueError("the Chebyshev reference needs full branches")
        g = br.inverse(nodes)
        diff = g[:, None] - nodes[None, :]
        hit = diff == 0.0
        c = bary / np.where(hit, 1.0, diff)
        basis = c / c.sum(axis=1, keepdims=True)
        basis[hit.any(axis=1)] = hit[hit.any(axis=1)]
        inside = np.clip(g, br.lo, np.nextafter(br.hi, 0.0))
        pre.append((inside, 1.0 / np.abs(br.derivative(g)), basis))
    return ChebyshevTransfer(pmap, nodes, _clenshaw_curtis(n), tuple(pre))
