"""Ulam discretization of the weighted transfer operator.

The operator acts on densities as

    (L_beta v)(y) = sum_{f(x)=y} v(x) e^{beta u(x)} / |f'(x)| ,

and its Ulam matrix on N uniform cells has entries

    M[i, j] = (1/|I_i|) * integral over I_j cap f^{-1}(I_i) of e^{beta u} dx ,

so that the right Perron vector at beta=0 is the cell-averaged invariant
density h and log of the leading eigenvalue is the pressure F(beta).
Every monotone branch is cut at the source-cell edges and at the exact
preimages of the target-cell edges (bracketed Newton for smooth branches),
and each piece is sampled once at its midpoint.  The samples do not
depend on beta, nor does the sparse layout they sum into: the beta = 0
operator keeps both, and a pressure curve only reweights the samples.
Eigendata comes from power iteration on the sparse matrix.

Derived objects: the pressure curve F with F(0)=0, the rate data
phi(alpha) and beta(alpha) = phi'(alpha) at one alpha (the root of
F'(beta) = alpha, F' from the left and right Perron vectors), and the
Green-Kubo variance

    sigma^2 = C_0 + 2 sum_{j>=1} C_j ,   C_j = integral u (u o f^j) h dx .
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DegenerateVarianceError, DomainError
from .maps import Observable, PiecewiseMap, orbit_value_chunks

# a CLT run refuses sigma^2 at or below this: the limit law degenerates
REFUSED_SIGMA2 = 1e-6
# the Green-Kubo sum gives up past this lag; the tail threshold is
# TAIL_RTOL * C_0
MAX_LAG = 400
TAIL_RTOL = 1e-9
# power iteration stops at this relative 1-norm residual, or gives up
POWER_TOL = 1e-12
POWER_MAX_ITER = 100_000
# the rate solve stops when its beta bracket is narrower than this
# (times |beta| past 1)
ROOT_TOL = 1e-12
# midpoint samples per cell of a cell average
CELL_QUAD_POINTS = 64


@dataclass(frozen=True)
class CSRMatrix:
    """Square sparse matrix in the canonical CSR layout that scipy's
    `coo_matrix(...).tocsr()` gives: rows in order, increasing columns in
    each row, duplicates summed.  `slot` is the entry that each
    coordinate-form input was summed into, so the same coordinates with new
    values cost one `reweighted`.  `lanes[k]` holds the k-th entry of every
    row (`nnz` past a row's end), for the matvec.  An expanding branch's
    preimage of a cell meets at most two cells, so an Ulam row has at most
    two entries per branch and the padding stays small."""

    data: np.ndarray
    indices: np.ndarray           # int32 column of each entry
    indptr: np.ndarray            # int32 start of each row
    slot: np.ndarray              # entry of each coordinate-form input
    lanes: np.ndarray             # (longest row, n) entry indices

    @classmethod
    def from_coo(cls, values, rows, cols, n: int) -> CSRMatrix:
        """The n x n matrix with the values summed at (rows, cols).

        The inputs are put in (row, column) order by a stable sort, and
        duplicates are summed from 0.0 in input order, as scipy's
        `coo_tocsr`, `csr_sort_indices` and `csr_sum_duplicates` do (its
        `std::sort` is an insertion sort, hence stable, on rows of up to
        16 entries; longer rows could reorder three or more duplicates).
        """
        order = np.lexsort((cols, rows))
        r, c = rows[order], cols[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        slot = np.empty(len(order), dtype=np.intp)
        slot[order] = np.cumsum(first) - 1
        r, nnz = r[first], int(np.count_nonzero(first))
        counts = np.bincount(r, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        lanes = np.full((counts.max(initial=0), n), nnz)
        lanes[np.arange(nnz) - indptr[r], r] = np.arange(nnz)
        pattern = cls(None, c[first].astype(np.int32), indptr, slot, lanes)
        return pattern.reweighted(values)

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.indptr) - 1
        return n, n

    def reweighted(self, values) -> CSRMatrix:
        """The matrix with the same coordinates and new input values."""
        data = np.bincount(self.slot, weights=values, minlength=len(self.indices))
        return replace(self, data=data)

    @cached_property
    def _lane_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Values and columns of the lanes; 0.0 at column n past a row's end."""
        return (np.append(self.data, 0.0)[self.lanes],
                np.append(self.indices, self.shape[0])[self.lanes])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # each row summed from 0.0 in column order: scipy's csr_matvec bits
        values, cols = self._lane_terms
        terms = values * np.concatenate((x, (0.0,)))[cols]
        return np.add.reduce(terms, axis=0, initial=0.0)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """The transpose's product: each entry times x at its row, summed
        into its column."""
        return np.bincount(self.indices, weights=self.data * np.repeat(x, np.diff(self.indptr)),
                           minlength=self.shape[0])


@dataclass(frozen=True)
class UlamOperator:
    """Discretized weighted transfer operator with leading eigendata."""

    matrix: CSRMatrix
    leading_eigenvalue: float
    right_vector: np.ndarray      # Perron density values per cell, integrates to 1
    samples: tuple                # beta-free (rows, cols, lens, points) of _ulam_samples


@dataclass(frozen=True)
class PressureCurve:
    """log of the leading eigenvalue along a beta grid, shifted so F(0)=0."""

    beta_grid: np.ndarray
    F_values: np.ndarray

    def __post_init__(self):
        # each slope difference times half the width of its two cells
        # (np.diff(F, 2) on an even grid, up to rounding), so uneven grids
        # are tested too; a repeated node is tested once
        new = np.append(True, np.diff(self.beta_grid) != 0.0)
        x, y = self.beta_grid[new], self.F_values[new]
        d2 = np.diff(np.diff(y) / np.diff(x)) * (x[2:] - x[:-2]) / 2.0
        if len(d2) and d2.min() < -1e-8:
            raise ConvergenceError(f"pressure curve is not convex on its grid "
                                   f"(min second difference {d2.min():.3g})")


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

def _ulam_samples(pmap: PiecewiseMap, N: int):
    """The beta-free part of the Ulam matrix: (rows, cols, lens, points) of
    every sample of every branch, in branch order.  A branch is cut at its
    ends, the cell edges inside it and the preimages of the cell edges
    inside its image; the midpoint `points` of each piece of length `lens`
    in source cell `cols` lands in target cell `rows`."""
    if N < 2:
        raise ValueError("resolution must be at least 2")
    edges = np.arange(N + 1) / N
    rows, cols, lengths, points = [], [], [], []
    for br in pmap.branches:
        ylo, yhi = br.image()
        inner_src = edges[(edges > br.lo + 1e-15) & (edges < br.hi - 1e-15)]
        img_edges = edges[(edges > ylo + 1e-15) & (edges < yhi - 1e-15)]
        # sorted distinct cuts, as np.unique gives them (without loading numpy.ma)
        cuts = np.sort(np.concatenate([[br.lo, br.hi], inner_src, br.inverse(img_edges)]))
        cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
        lens = np.diff(cuts)
        keep = lens > 1e-15
        mids, lens = 0.5 * (cuts[1:] + cuts[:-1])[keep], lens[keep]
        rows.append(np.clip((br(mids) * N).astype(np.int64), 0, N - 1))
        cols.append(np.clip((mids * N).astype(np.int64), 0, N - 1))
        lengths.append(lens)
        points.append(mids)
    return tuple(np.concatenate(a) for a in (rows, cols, lengths, points))


def _power_iteration(mat: CSRMatrix, transpose: bool = False) -> tuple[float, np.ndarray]:
    """Leading eigenpair of a nonnegative matrix (of its transpose: the
    left vector); deterministic flat start, 1-norm normalization, residual
    stopping test.  One matvec per step: the residual's product is the
    next step's."""
    n = mat.shape[0]
    step = mat.rmatvec if transpose else mat.__matmul__
    w = step(np.full(n, 1.0 / n))
    for _ in range(POWER_MAX_ITER):
        lam = float(np.abs(w).sum())       # np.sum's pairwise sum, without its wrapper
        if not 0.0 < lam < math.inf:       # NaN too
            raise ConvergenceError(f"power iteration hit a vector of 1-norm {lam!r}")
        v = w / lam
        w = step(v)
        residual = float(np.abs(w - lam * v).sum()) / lam
        if residual <= POWER_TOL:
            return lam, v
    raise ConvergenceError(f"power iteration did not converge in {POWER_MAX_ITER} iterations")


def _cell_values(samples, w, N: int) -> np.ndarray:
    """Matrix contributions of the samples weighted by w (e^{beta u} at
    the sample points, or 1.0 at beta = 0)."""
    return samples[2] * w / (1.0 / N)


def _operator(mat: CSRMatrix, samples) -> UlamOperator:
    """The Ulam matrix of the samples with its right Perron pair."""
    width = 1.0 / mat.shape[0]
    lam, right = _power_iteration(mat)
    right = right / (np.sum(right) * width)          # integrate to 1
    if right.min() <= 0:
        raise ConvergenceError("Perron vector has nonpositive entries")
    return UlamOperator(mat, lam, right, samples)


def ulam_matrix(pmap: PiecewiseMap, u: Observable | None = None, beta: float = 0.0,
                N: int = 1024, quad_points: int = 64) -> UlamOperator:
    """Build the Ulam matrix of L_beta and compute its leading eigendata.

    At beta = 0 it is the operator that everything spectral reads.
    Resolutions below ~16 are only useful for inspecting the assembly
    itself (e.g. the 2x2 doubling matrix is [[1/2,1/2],[1/2,1/2]]).
    `quad_points` does nothing and accepts only 64: every branch is cut
    exactly, without quadrature samples.
    """
    if quad_points != 64:
        raise ValueError("quad_points accepts only 64: branches are cut exactly")
    if beta != 0.0 and u is None:
        raise ValueError("weighted operator needs an observable")
    samples = _ulam_samples(pmap, N)
    w = 1.0 if beta == 0.0 else np.exp(beta * u(samples[3]))
    rows, cols = samples[:2]
    return _operator(CSRMatrix.from_coo(_cell_values(samples, w, N), rows, cols, N), samples)


def invariant_density(op: UlamOperator) -> np.ndarray:
    """Cell values of the a.c.i.m. density h (right Perron vector at beta=0)."""
    if abs(op.leading_eigenvalue - 1.0) > 1e-10:
        raise ConvergenceError(
            f"unweighted transfer operator has leading eigenvalue {op.leading_eigenvalue!r} != 1")
    return op.right_vector


def cell_average(fn, N: int) -> np.ndarray:
    """Per-cell midpoint-quadrature averages of a function on [0,1]."""
    q = (np.arange(CELL_QUAD_POINTS) + 0.5) / CELL_QUAD_POINTS
    xs = (np.arange(N)[:, None] + q[None, :]) / N
    return np.mean(np.asarray(fn(xs.ravel())).reshape(N, CELL_QUAD_POINTS), axis=1)


def observable_mean(op: UlamOperator, u: Observable) -> float:
    """mu-mean of the raw observable by quadrature against op's density."""
    h = invariant_density(op)
    return float(np.sum(cell_average(u.raw, len(h)) * h) / len(h))


def center_observable(op: UlamOperator, u: Observable) -> Observable:
    """Return u with its invariant mean subtracted (E_mu u = 0)."""
    return u.with_mean(observable_mean(op, u))


# ---------------------------------------------------------------------------
# pressure and rate function
# ---------------------------------------------------------------------------

def _tilt(op: UlamOperator, u_points: np.ndarray, beta: float):
    """(operator, matrix input values) of op's samples reweighted by
    e^{beta u}, u taken at the sample points, into op's matrix layout;
    None when a weight overflows.  An overflowing iterate raises
    `ConvergenceError` from the power iteration."""
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(beta * u_points)
        if not np.all(np.isfinite(weights)):
            return None
        values = _cell_values(op.samples, weights, len(op.right_vector))
        return _operator(op.matrix.reweighted(values), op.samples), values


def pressure_curve(op: UlamOperator, u: Observable, beta_grid) -> PressureCurve:
    """F(beta) = log lambda(beta), shifted so F(0) = 0 exactly.

    Each beta is the `_tilt` of the beta = 0 operator, u taken at the
    sample points once.  A beta fails when a weight overflows or power
    iteration fails; the curve is then truncated, with a warning, to the
    |beta| below the smallest failing one, and a curve left with fewer
    than two points raises `ConvergenceError`.
    """
    beta_grid = np.asarray(beta_grid, dtype=float)
    u_points = u(op.samples[3])
    logs = np.full(len(beta_grid), np.nan)
    for i, b in enumerate(beta_grid):
        if b == 0.0:
            logs[i] = np.log(op.leading_eigenvalue)
            continue
        try:
            tilted = _tilt(op, u_points, b)
            if tilted is not None:
                logs[i] = np.log(tilted[0].leading_eigenvalue)
        except ConvergenceError:
            pass
    ok = np.isfinite(logs)
    if not ok.all():
        lo = np.min(np.abs(beta_grid[~ok]))
        keep = np.abs(beta_grid) < lo - 1e-15
        if np.count_nonzero(keep) < 2:
            raise ConvergenceError(
                f"pressure curve fails at |beta| = {lo:.3g}, leaving fewer than two "
                "points inside; lower [pressure] beta_max")
        warnings.warn(f"pressure curve truncated to |beta| < {lo:.3g} "
                      "(weights overflowed or eigen-iteration failed outside)")
        beta_grid, logs = beta_grid[keep], logs[keep]
    F = logs - np.log(op.leading_eigenvalue)       # exactly 0.0 at beta = 0
    return PressureCurve(beta_grid=beta_grid, F_values=F)


def legendre(op: UlamOperator, u: Observable, alpha: float) -> tuple[float, float]:
    """(phi(alpha), beta(alpha)): beta solves F'(beta) = alpha, and
    phi = alpha beta - F(beta).

    For the simple leading eigenvalue lambda of the tilted matrix M,
    F' = l.M'r / (lambda l.r) = l.M'r / l.Mr with r and l its right and
    left Perron vectors and M' the same samples weighted by u e^{beta u}
    (first-order perturbation of a simple eigenvalue).  So F' is a
    positively weighted mean of u over the samples: an alpha outside
    their open range (NaN too) is refused with `DomainError`.  The
    bracket grows from beta = 0 in doubling steps on the side
    F'(0) - alpha points to; an alpha that it does not reach before a
    weight overflows or an eigen-solve fails is refused with
    `DomainError` too.  Illinois regula falsi then shrinks the bracket
    below `ROOT_TOL`.
    """
    rows, cols = op.samples[:2]
    u_points = u(op.samples[3])
    lo, hi = float(u_points.min()), float(u_points.max())
    if not lo < alpha < hi:                           # NaN too
        raise DomainError(f"alpha = {alpha!r} lies outside the range of F' "
                          f"({lo:.6g}, {hi:.6g}); rate function undefined there")

    def excess(beta: float) -> tuple[float, float]:
        """(F'(beta) - alpha, F(beta))."""
        tilted = _tilt(op, u_points, beta)
        if tilted is None:
            raise ConvergenceError("a weight e^(beta u) overflows")
        t, values = tilted
        _, left = _power_iteration(t.matrix, transpose=True)
        if left.min() <= 0:
            raise ConvergenceError("left Perron vector has nonpositive entries")
        lvr = left[rows] * values * t.right_vector[cols]     # l.Mr = lambda l.r summed by sample
        slope = float(np.sum(lvr * u_points)) / float(np.sum(lvr))
        return slope - alpha, math.log(t.leading_eigenvalue / op.leading_eigenvalue)

    x1, (g1, F1) = 0.0, excess(0.0)
    x0, g0, step = x1, g1, math.copysign(1.0, -g1)
    while g1 != 0.0 and (g1 > 0.0) == (g0 > 0.0):     # grow the bracket [x0, x1]
        x0, g0 = x1, g1
        x1, step = x1 + step, 2.0 * step
        try:
            g1, F1 = excess(x1)
        except ConvergenceError as exc:
            raise DomainError(f"alpha = {alpha!r} lies outside the range of F' that the "
                              f"solve reaches: F'({x0:.6g}) = {g0 + alpha:.6g}, and at "
                              f"beta = {x1:.6g} {exc}") from None
    while g1 != 0.0 and abs(x1 - x0) > ROOT_TOL * max(1.0, abs(x1)):
        x = x1 - g1 * (x1 - x0) / (g1 - g0)
        if not min(x0, x1) < x < max(x0, x1):
            x = 0.5 * (x0 + x1)
        gx, F1 = excess(x)
        if (gx > 0.0) == (g1 > 0.0):
            g0 *= 0.5                                # x0 kept again: Illinois halving
        else:
            x0, g0 = x1, g1
        x1, g1 = x, gx
    return alpha * x1 - F1, x1


# ---------------------------------------------------------------------------
# Green-Kubo variance
# ---------------------------------------------------------------------------

def _certified_lags(covariances, threshold: float) -> np.ndarray:
    """C_1..C_J from a stream of lag covariances C_1, C_2, ...: J >= 10 is
    the first lag with |C_J| below the threshold and C_{J+1} a certified
    decay step."""
    cj = []
    for j, c in zip(range(1, MAX_LAG + 2), covariances):
        cj.append(c)
        if j >= 11 and abs(cj[-2]) < threshold and abs(cj[-1]) <= 0.95 * abs(cj[-2]) + threshold:
            return np.array(cj[:j - 1])
    raise ConvergenceError(f"correlation tail not certified within {len(cj)} lags")


def autocovariance_series(source: UlamOperator | PiecewiseMap, u: Observable,
                          orbit_length: int = 10_000_000, seed: int = 0):
    """C_0 and the lag covariances C_j of u along the dynamics, truncated at
    the first J >= 10 where |C_J| drops below the tail threshold with a
    certified decay step.

    The beta = 0 operator gives the quadrature C_j = dx * <u, M^j (u h)>
    with its matrix M.  The map gives empirical autocovariances of the
    orbit of `seed`; their threshold is floored at the Monte Carlo noise
    level 3*C_0/sqrt(orbit_length), below which the rule would chase noise.
    """
    if isinstance(source, UlamOperator):
        h = source.right_vector
        N = len(h)
        width = 1.0 / N
        ubar = cell_average(u, N)
        u2bar = cell_average(lambda x: np.square(u(x)), N)
        c0 = float(np.sum(u2bar * h) * width)

        def covariances():
            w = ubar * h
            while True:
                w = source.matrix @ w
                yield float((ubar * w).sum() * width)

        return c0, _certified_lags(covariances(), TAIL_RTOL * max(c0, 1e-300))
    vals = np.concatenate(list(orbit_value_chunks(source, u, seed, orbit_length)))
    vals = vals - np.mean(vals)
    n = len(vals)
    # numpy's pairwise sum, not a BLAS dot: a threaded dot's bits
    # depend on the BLAS thread count and CPU kernel
    c0 = float(np.sum(vals * vals) / n)
    # an orbit of n values has no pairs at lag n or beyond: a short orbit
    # runs out of lags uncertified
    covariances = (float(np.sum(vals[:-j] * vals[j:]) / (n - j)) for j in range(1, n))
    threshold = max(TAIL_RTOL * c0, 3.0 * c0 / np.sqrt(n))
    return c0, _certified_lags(covariances, threshold)


def green_kubo_sigma2(source: UlamOperator | PiecewiseMap, u: Observable, **params) -> float:
    """CLT variance sigma^2 = C_0 + 2 sum_j C_j for a centered observable,
    from the lags of `autocovariance_series(source, u, **params)`.

    Values at or below `REFUSED_SIGMA2`, where `require_nondegenerate`
    refuses a CLT run, are flagged: sigma^2 = 0 means u is a coboundary
    and the CLT limit laws collapse.
    """
    c0, cj = autocovariance_series(source, u, **params)
    sigma2 = c0 + 2.0 * float(np.sum(cj))
    if sigma2 < -1e-8:
        raise ConvergenceError(f"negative sigma^2 = {sigma2:.3g}: truncation failed")
    if sigma2 <= REFUSED_SIGMA2:
        warnings.warn(f"sigma^2 is numerically zero ({sigma2:.3g} <= {REFUSED_SIGMA2:g}): "
                      "observable behaves as a coboundary and CLT-based runs will refuse it")
    return sigma2


def require_nondegenerate(sigma2: float) -> float:
    """sigma^2 itself, or `DegenerateVarianceError` at or below
    `REFUSED_SIGMA2`: the observable is a coboundary (or numerically
    indistinguishable from one, as log|f'| of a constant-slope map is) and
    the CLT limit law degenerates.  A sigma^2 that is not a finite number
    (NaN included) is refused too."""
    if not math.isfinite(sigma2):
        raise DegenerateVarianceError(f"sigma^2 = {sigma2} is not a finite number; "
                                      "the run is refused")
    if sigma2 <= REFUSED_SIGMA2:
        raise DegenerateVarianceError(
            f"sigma^2 = {sigma2:.3g} <= {REFUSED_SIGMA2:g}: the observable is a "
            "coboundary (or numerically indistinguishable from one); the "
            "limit law degenerates and the run is refused")
    return sigma2
