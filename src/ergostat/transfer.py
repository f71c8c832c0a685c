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
depend on beta: the beta = 0 operator keeps them, and a pressure curve
only reweights them.  Eigendata comes from power iteration on the
(sparse) matrix.

Derived objects: the pressure curve F with F(0)=0, its Legendre transform
phi(alpha) with beta(alpha)=phi'(alpha), the curvature F''(beta) used as
sigma(alpha)^2, and the Green-Kubo variance

    sigma^2 = C_0 + 2 sum_{j>=1} C_j ,   C_j = integral u (u o f^j) h dx .
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.interpolate import CubicSpline

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
# a golden-section bracket stops shrinking at this width
GOLDEN_TOL = 1e-10
# midpoint samples per cell of a cell average
CELL_QUAD_POINTS = 64


@dataclass(frozen=True)
class UlamOperator:
    """Discretized weighted transfer operator with leading eigendata."""

    matrix: sparse.csr_matrix
    leading_eigenvalue: float
    right_vector: np.ndarray      # Perron density values per cell, integrates to 1
    samples: tuple                # beta-free (rows, cols, lens, points) of _ulam_samples


@dataclass(frozen=True)
class PressureCurve:
    """log of the leading eigenvalue along a beta grid, shifted so F(0)=0."""

    beta_grid: np.ndarray
    F_values: np.ndarray

    def __post_init__(self):
        d2 = np.diff(self.F_values, 2)
        if len(d2) and d2.min() < -1e-8:
            raise ConvergenceError(
                f"pressure curve is not convex on the grid (min second difference {d2.min():.3g})")


@dataclass(frozen=True)
class RateFunction:
    """Tabulated Legendre data: alpha, phi(alpha), beta=phi'(alpha), F''(beta)."""

    alpha_grid: np.ndarray
    phi_values: np.ndarray
    beta_of_alpha: np.ndarray
    sigma2_of_alpha: np.ndarray

    def __post_init__(self):
        if np.any(self.phi_values < -1e-12):
            raise ConvergenceError("rate function went negative")
        d2 = np.diff(self.phi_values, 2)
        if len(d2) and d2.min() < -1e-8:
            raise ConvergenceError("rate function is not convex on its grid")
        db = np.diff(self.beta_of_alpha)
        if len(db) and db.min() < -1e-8:
            raise ConvergenceError("beta(alpha) is not monotone")

    def phi(self, alpha: float) -> float:
        return float(np.interp(alpha, self.alpha_grid, self.phi_values))

    def beta(self, alpha: float) -> float:
        return float(np.interp(alpha, self.alpha_grid, self.beta_of_alpha))


def _spline(x, y):
    return CubicSpline(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


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
        cuts = np.unique(np.concatenate([[br.lo, br.hi], inner_src, br.inverse(img_edges)]))
        lens = np.diff(cuts)
        keep = lens > 1e-15
        mids, lens = 0.5 * (cuts[1:] + cuts[:-1])[keep], lens[keep]
        rows.append(np.clip((br(mids) * N).astype(np.int64), 0, N - 1))
        cols.append(np.clip((mids * N).astype(np.int64), 0, N - 1))
        lengths.append(lens)
        points.append(mids)
    return tuple(np.concatenate(a) for a in (rows, cols, lengths, points))


def _power_iteration(mat: sparse.csr_matrix) -> tuple[float, np.ndarray]:
    """Leading eigenpair of a nonnegative matrix; deterministic flat start,
    1-norm normalization, residual stopping test."""
    n = mat.shape[0]
    v = np.full(n, 1.0 / n)
    lam = 1.0
    for _ in range(POWER_MAX_ITER):
        w = mat @ v
        s = float(np.sum(np.abs(w)))
        if s == 0.0:
            raise ConvergenceError("power iteration hit the zero vector")
        lam = s
        w = w / s
        residual = float(np.sum(np.abs(mat @ w - lam * w))) / lam
        if residual <= POWER_TOL:
            return lam, w
        v = w
    raise ConvergenceError(
        f"power iteration did not converge in {POWER_MAX_ITER} iterations",
        residual=residual)


def _operator(samples, w, N: int) -> UlamOperator:
    """Ulam matrix of the samples weighted by w (e^{beta u} at the sample
    points, or 1.0 at beta = 0) and its right Perron pair."""
    rows, cols, lens, _ = samples
    width = 1.0 / N
    mat = sparse.coo_matrix((lens * w / width, (rows, cols)), shape=(N, N)).tocsr()
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
    return _operator(samples, w, N)


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

def pressure_curve(op: UlamOperator, u: Observable, beta_grid) -> PressureCurve:
    """F(beta) = log lambda(beta), shifted so F(0) = 0 exactly.

    Each beta reweights the samples of the beta = 0 operator by e^{beta u},
    u taken at the sample points once.  If power iteration fails at the
    edge of the grid the curve is truncated symmetrically with a warning.
    """
    beta_grid = np.asarray(beta_grid, dtype=float)
    samples, N = op.samples, len(op.right_vector)
    u_points = u(samples[3])
    logs = np.full(len(beta_grid), np.nan)
    for i, b in enumerate(beta_grid):
        if b == 0.0:
            logs[i] = np.log(op.leading_eigenvalue)
            continue
        try:
            logs[i] = np.log(_operator(samples, np.exp(b * u_points), N).leading_eigenvalue)
        except ConvergenceError:
            pass
    ok = np.isfinite(logs)
    if not ok.all():
        lo = np.max(np.abs(beta_grid[~ok]))
        keep = np.abs(beta_grid) < lo - 1e-15
        warnings.warn(f"pressure curve truncated to |beta| < {lo:.3g} "
                      "(eigen-iteration failed outside)")
        beta_grid, logs = beta_grid[keep], logs[keep]
    F = logs - np.log(op.leading_eigenvalue)       # exactly 0.0 at beta = 0
    return PressureCurve(beta_grid=beta_grid, F_values=F)


def _golden_max(fn, lo, hi):
    """Golden-section maximizer of a unimodal fn on [lo, hi], elementwise.

    lo and hi may be arrays of brackets, and fn then maps an array of points
    (one per bracket) to their values.  Each bracket shrinks until it is
    narrower than GOLDEN_TOL and then stays as it is, so every element takes the
    steps a scalar search of its own bracket would take.  Returns (argmax,
    max); the argmax is a scalar for a scalar bracket.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while True:
        live = b - a > GOLDEN_TOL
        if not live.any():
            break
        left = fc >= fd
        lower, upper = live & left, live & ~left    # keep [a, d] / [c, b]
        b, d, fd = np.where(lower, d, b), np.where(lower, c, d), np.where(lower, fc, fd)
        a, c, fc = np.where(upper, c, a), np.where(upper, d, c), np.where(upper, fd, fc)
        p = np.where(lower, b - invphi * (b - a), a + invphi * (b - a))
        fp = fn(p)
        c, fc = np.where(lower, p, c), np.where(lower, fp, fc)
        d, fd = np.where(upper, p, d), np.where(upper, fp, fd)
    x = 0.5 * (a + b)
    return x[()], fn(x)


def legendre(curve: PressureCurve, alpha_grid) -> RateFunction:
    """phi(alpha) = sup_beta (alpha beta - F(beta)) on the curve's range.

    The sup is taken over a cubic interpolant of F refined by golden
    section, for all alpha at once; beta(alpha) is the argmax.  alpha
    values outside the range of F' (estimated by grid secants) are rejected
    rather than extrapolated.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    step = 1e-3                   # central second difference of F for sigma^2
    bg, F = curve.beta_grid, curve.F_values
    secants = np.diff(F) / np.diff(bg)
    lo_slope, hi_slope = float(secants.min()), float(secants.max())
    if np.any(alpha_grid < lo_slope) or np.any(alpha_grid > hi_slope):
        raise DomainError(
            f"alpha outside the range of F' on the grid "
            f"([{lo_slope:.6g}, {hi_slope:.6g}]); rate function undefined there")
    s = _spline(bg, F)
    beta_star, val = _golden_max(lambda t: alpha_grid * t - s(t),
                                 np.full(alpha_grid.shape, bg[0]),
                                 np.full(alpha_grid.shape, bg[-1]))
    # max(val, 0.0) elementwise: keeps val = -0.0, as np.maximum would not
    phi = np.where(0.0 > val, 0.0, val)
    sig2 = (s(beta_star + step) - 2.0 * s(beta_star) + s(beta_star - step)) / step**2
    return RateFunction(alpha_grid=alpha_grid, phi_values=phi,
                        beta_of_alpha=beta_star, sigma2_of_alpha=sig2)


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
    raise ConvergenceError(f"correlation tail not certified within {MAX_LAG} lags")


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
                yield float(np.sum(ubar * w) * width)

        return c0, _certified_lags(covariances(), TAIL_RTOL * max(c0, 1e-300))
    vals = np.concatenate(list(orbit_value_chunks(source, u, seed, orbit_length)))
    vals = vals - np.mean(vals)
    n = len(vals)
    # numpy's pairwise sum, not a BLAS dot: a threaded dot's bits
    # depend on the BLAS thread count and CPU kernel
    c0 = float(np.sum(vals * vals) / n)
    covariances = (float(np.sum(vals[:-j] * vals[j:]) / (n - j))
                   for j in itertools.count(1))
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
    the CLT limit law degenerates."""
    if sigma2 <= REFUSED_SIGMA2:
        raise DegenerateVarianceError(
            f"sigma^2 = {sigma2:.3g} <= {REFUSED_SIGMA2:g}: the observable is a "
            "coboundary (or numerically indistinguishable from one); the "
            "limit law degenerates and the run is refused")
    return sigma2
