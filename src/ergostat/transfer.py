"""Ulam discretization of the weighted transfer operator.

The operator acts on densities as

    (L_beta v)(y) = sum_{f(x)=y} v(x) e^{beta u(x)} / |f'(x)| ,

and its Ulam matrix on N uniform cells has entries

    M[i, j] = (1/|I_i|) * integral over I_j cap f^{-1}(I_i) of e^{beta u} dx ,

so that the right Perron vector at beta=0 is the cell-averaged invariant
density h and log of the leading eigenvalue is the pressure F(beta).
Piecewise-linear branches are assembled from exact preimages of cell
boundaries; smooth branches use per-cell midpoint quadrature.  Eigendata
comes from power iteration on the (sparse) matrix.

Derived objects: the pressure curve F with F(0)=0, its Legendre transform
phi(alpha) with beta(alpha)=phi'(alpha), the curvature F''(beta) used as
sigma(alpha)^2, and the Green-Kubo variance

    sigma^2 = C_0 + 2 sum_{j>=1} C_j ,   C_j = integral u (u o f^j) h dx .
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.interpolate import CubicSpline

from .errors import ConvergenceError, DegenerateVarianceError, DomainError
from .maps import Observable, PiecewiseMap, orbit_value_chunks

DEGENERATE_SIGMA2 = 1e-8


@dataclass(frozen=True)
class UlamOperator:
    """Discretized weighted transfer operator with leading eigendata."""

    resolution: int
    beta: float
    matrix: sparse.csr_matrix
    leading_eigenvalue: float
    right_vector: np.ndarray      # Perron density values per cell, integrates to 1
    left_vector: np.ndarray       # adjoint Perron vector, <left, right>*dx = 1

    @property
    def cell_width(self) -> float:
        return 1.0 / self.resolution

    def cell_midpoints(self) -> np.ndarray:
        N = self.resolution
        return (np.arange(N) + 0.5) / N


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

    def second_derivative(self, beta: float, step: float = 1e-3) -> float:
        s = _spline(self.beta_grid, self.F_values)
        return float((s(beta + step) - 2.0 * s(beta) + s(beta - step)) / step**2)


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

def _assemble(pmap: PiecewiseMap, u: Observable | None, beta: float, N: int,
              quad_points: int = 64) -> sparse.csr_matrix:
    if beta != 0.0 and u is None:
        raise ValueError("weighted operator needs an observable")
    edges = np.arange(N + 1) / N
    width = 1.0 / N
    rows, cols, vals = [], [], []

    def weight(x):
        if beta == 0.0 or u is None:
            return np.ones_like(x)
        return np.exp(beta * u(x))

    for br in pmap.branches:
        if br.is_linear:
            ylo, yhi = br.image()
            inner_src = edges[(edges > br.lo + 1e-15) & (edges < br.hi - 1e-15)]
            img_edges = edges[(edges > ylo + 1e-15) & (edges < yhi - 1e-15)]
            pulled = (img_edges - br.intercept) / br.slope
            cuts = np.unique(np.concatenate(
                [[br.lo, br.hi], inner_src, pulled]))
            mids = 0.5 * (cuts[1:] + cuts[:-1])
            lens = np.diff(cuts)
            keep = lens > 1e-15
            mids, lens = mids[keep], lens[keep]
        else:
            # quad_points midpoint samples per source cell
            first = int(np.floor(br.lo * N))
            last = int(np.ceil(br.hi * N))
            mids_list, lens_list = [], []
            for j in range(first, last):
                a = max(edges[j], br.lo)
                b = min(edges[j + 1], br.hi)
                if b - a <= 1e-15:
                    continue
                q = np.arange(quad_points)
                mids_list.append(a + (q + 0.5) * (b - a) / quad_points)
                lens_list.append(np.full(quad_points, (b - a) / quad_points))
            mids = np.concatenate(mids_list)
            lens = np.concatenate(lens_list)
        src = np.clip((mids * N).astype(np.int64), 0, N - 1)
        tgt = np.clip((br(mids) * N).astype(np.int64), 0, N - 1)
        vals.append(lens * weight(mids) / width)
        rows.append(tgt)
        cols.append(src)

    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N))
    return mat.tocsr()


def _power_iteration(mat: sparse.csr_matrix, tol: float = 1e-12,
                     max_iter: int = 100_000) -> tuple[float, np.ndarray]:
    """Leading eigenpair of a nonnegative matrix; deterministic flat start,
    1-norm normalization, residual stopping test."""
    n = mat.shape[0]
    v = np.full(n, 1.0 / n)
    lam = 1.0
    for _ in range(max_iter):
        w = mat @ v
        s = float(np.sum(np.abs(w)))
        if s == 0.0:
            raise ConvergenceError("power iteration hit the zero vector")
        lam = s
        w = w / s
        residual = float(np.sum(np.abs(mat @ w - lam * w))) / lam
        if residual <= tol:
            return lam, w
        v = w
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        residual=residual)


def ulam_matrix(pmap: PiecewiseMap, u: Observable | None = None, beta: float = 0.0,
                N: int = 1024, quad_points: int = 64) -> UlamOperator:
    """Build the Ulam matrix of L_beta and compute its leading eigendata.

    Resolutions below ~16 are only useful for inspecting the assembly
    itself (e.g. the 2x2 doubling matrix is [[1/2,1/2],[1/2,1/2]]).
    """
    if N < 2:
        raise ValueError("resolution must be at least 2")
    mat = _assemble(pmap, u, beta, N, quad_points)
    lam, right = _power_iteration(mat)
    _, left = _power_iteration(mat.T.tocsr())
    width = 1.0 / N
    right = right / (np.sum(right) * width)          # integrate to 1
    left = left / (np.sum(left * right) * width)     # pairing normalization
    if right.min() <= 0 or left.min() <= 0:
        raise ConvergenceError("Perron vector has nonpositive entries")
    return UlamOperator(resolution=N, beta=beta, matrix=mat,
                        leading_eigenvalue=lam, right_vector=right, left_vector=left)


def invariant_density(pmap: PiecewiseMap, N: int = 1024) -> np.ndarray:
    """Cell values of the a.c.i.m. density h (right Perron vector at beta=0)."""
    op = ulam_matrix(pmap, None, 0.0, N)
    if abs(op.leading_eigenvalue - 1.0) > 1e-10:
        raise ConvergenceError(
            f"unweighted transfer operator has leading eigenvalue {op.leading_eigenvalue!r} != 1")
    return op.right_vector


def cell_average(fn, N: int, quad_points: int = 64) -> np.ndarray:
    """Per-cell midpoint-quadrature averages of a function on [0,1]."""
    q = (np.arange(quad_points) + 0.5) / quad_points
    xs = (np.arange(N)[:, None] + q[None, :]) / N
    return np.mean(np.asarray(fn(xs.ravel())).reshape(N, quad_points), axis=1)


def observable_mean(pmap: PiecewiseMap, u: Observable, N: int = 1024,
                    density: np.ndarray | None = None) -> float:
    """mu-mean of the raw observable by Ulam-density quadrature."""
    h = invariant_density(pmap, N) if density is None else density
    ubar = cell_average(u.raw, len(h))
    return float(np.sum(ubar * h) / len(h))


def center_observable(pmap: PiecewiseMap, u: Observable, N: int = 1024) -> Observable:
    """Return u with its invariant mean subtracted (E_mu u = 0)."""
    return u.with_mean(observable_mean(pmap, u, N))


# ---------------------------------------------------------------------------
# pressure and rate function
# ---------------------------------------------------------------------------

def default_beta_grid(beta_max: float = 3.0, points: int = 121) -> np.ndarray:
    """Symmetric grid on [-beta_max, beta_max] (working range default)."""
    return np.linspace(-beta_max, beta_max, points)


def pressure_curve(pmap: PiecewiseMap, u: Observable, beta_grid=None,
                   N: int = 1024) -> PressureCurve:
    """F(beta) = log lambda(beta), shifted so F(0) = 0 exactly.

    If power iteration fails at the edge of the grid the curve is truncated
    symmetrically with a warning.
    """
    if beta_grid is None:
        beta_grid = default_beta_grid()
    beta_grid = np.asarray(beta_grid, dtype=float)
    lam0 = ulam_matrix(pmap, u, 0.0, N).leading_eigenvalue
    logs = np.full(len(beta_grid), np.nan)
    for i, b in enumerate(beta_grid):
        if b == 0.0:
            logs[i] = np.log(lam0)
            continue
        try:
            logs[i] = np.log(ulam_matrix(pmap, u, float(b), N).leading_eigenvalue)
        except ConvergenceError:
            logs[i] = np.nan
    ok = np.isfinite(logs)
    if not ok.all():
        lo = np.max(np.abs(beta_grid[~ok]))
        keep = np.abs(beta_grid) < lo - 1e-15
        warnings.warn(f"pressure curve truncated to |beta| < {lo:.3g} "
                      "(eigen-iteration failed outside)")
        beta_grid, logs = beta_grid[keep], logs[keep]
    F = logs - np.log(lam0)
    zero = np.flatnonzero(beta_grid == 0.0)
    if len(zero):
        F[zero] = 0.0
    return PressureCurve(beta_grid=beta_grid, F_values=F)


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximizer of a unimodal fn on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def legendre(curve: PressureCurve, alpha_grid, second_diff_step: float = 1e-3) -> RateFunction:
    """phi(alpha) = sup_beta (alpha beta - F(beta)) on the curve's range.

    The sup is taken over a cubic interpolant of F refined by golden
    section; beta(alpha) is the argmax.  alpha values outside the range of
    F' (estimated by grid secants) are rejected rather than extrapolated.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    bg, F = curve.beta_grid, curve.F_values
    secants = np.diff(F) / np.diff(bg)
    lo_slope, hi_slope = float(secants.min()), float(secants.max())
    if np.any(alpha_grid < lo_slope) or np.any(alpha_grid > hi_slope):
        raise DomainError(
            f"alpha outside the range of F' on the grid "
            f"([{lo_slope:.6g}, {hi_slope:.6g}]); rate function undefined there")
    s = _spline(bg, F)
    phi = np.empty(len(alpha_grid))
    beta_star = np.empty(len(alpha_grid))
    sig2 = np.empty(len(alpha_grid))
    for i, a in enumerate(alpha_grid):
        b, val = _golden_max(lambda t: a * t - float(s(t)), bg[0], bg[-1])
        phi[i] = max(val, 0.0)
        beta_star[i] = b
        sig2[i] = (float(s(b + second_diff_step)) - 2.0 * float(s(b))
                   + float(s(b - second_diff_step))) / second_diff_step**2
    return RateFunction(alpha_grid=alpha_grid, phi_values=phi,
                        beta_of_alpha=beta_star, sigma2_of_alpha=sig2)


# ---------------------------------------------------------------------------
# Green-Kubo variance
# ---------------------------------------------------------------------------

def autocovariance_series(pmap: PiecewiseMap, u: Observable, method: str = "quadrature",
                          N: int = 2048, orbit_length: int = 10_000_000,
                          seed: int = 0, max_lag: int = 400,
                          tail_rtol: float = 1e-9):
    """C_0 and the lag covariances C_j of u along the dynamics, truncated at
    the first J >= 10 where |C_J| drops below the tail threshold with a
    certified decay step.

    Quadrature method: C_j = dx * <u, M^j (u h)> with the Ulam matrix M at
    beta = 0.  Orbit method: empirical autocovariances of a single long
    orbit; its threshold is floored at the Monte Carlo noise level
    3*C_0/sqrt(length), below which the rule would chase noise.
    """
    if method == "quadrature":
        op = ulam_matrix(pmap, None, 0.0, N)
        h = op.right_vector
        width = op.cell_width
        ubar = cell_average(u, N)
        u2bar = cell_average(lambda x: np.square(u(x)), N)
        c0 = float(np.sum(u2bar * h) * width)
        w = ubar * h
        cj = []
        threshold = tail_rtol * max(c0, 1e-300)
        j_stop = None
        for j in range(1, max_lag + 2):
            w = op.matrix @ w
            cj.append(float(np.sum(ubar * w) * width))
            if j >= 11 and abs(cj[-2]) < threshold and abs(cj[-1]) <= 0.95 * abs(cj[-2]) + threshold:
                j_stop = j - 1
                break
        if j_stop is None:
            raise ConvergenceError(
                f"correlation tail not certified within {max_lag} lags")
        return c0, np.array(cj[:j_stop])
    if method == "orbit":
        vals = np.concatenate(list(orbit_value_chunks(pmap, u, seed, orbit_length)))
        vals = vals - np.mean(vals)
        n = len(vals)
        c0 = float(np.dot(vals, vals) / n)
        threshold = max(tail_rtol * c0, 3.0 * c0 / np.sqrt(n))
        cj = []
        j_stop = None
        for j in range(1, max_lag + 2):
            cj.append(float(np.dot(vals[:-j], vals[j:]) / (n - j)))
            if j >= 11 and abs(cj[-2]) < threshold and abs(cj[-1]) <= 0.95 * abs(cj[-2]) + threshold:
                j_stop = j - 1
                break
        if j_stop is None:
            raise ConvergenceError(
                f"correlation tail not certified within {max_lag} lags")
        return c0, np.array(cj[:j_stop])
    raise ValueError(f"unknown method {method!r}")


def green_kubo_sigma2(pmap: PiecewiseMap, u: Observable, method: str = "quadrature",
                      **params) -> float:
    """CLT variance sigma^2 = C_0 + 2 sum_j C_j for a centered observable.

    Values below the degeneracy floor are flagged: sigma^2 = 0 means u is a
    coboundary and the CLT limit laws collapse.
    """
    c0, cj = autocovariance_series(pmap, u, method, **params)
    sigma2 = c0 + 2.0 * float(np.sum(cj))
    if sigma2 < -1e-8:
        raise ConvergenceError(f"negative sigma^2 = {sigma2:.3g}: truncation failed")
    if abs(sigma2) <= DEGENERATE_SIGMA2:
        warnings.warn("sigma^2 is numerically zero: observable behaves as a "
                      "coboundary and CLT-based runs will refuse it")
    return sigma2


def require_nondegenerate(sigma2: float, floor: float = 1e-6) -> float:
    if sigma2 <= floor:
        raise DegenerateVarianceError(
            f"sigma^2 = {sigma2:.3g} <= {floor:g}: asymptotic variance degenerate")
    return sigma2
