import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import ergostat
from ergostat import transfer
from ergostat.entropy import rokhlin_entropy
from ergostat.errors import ConvergenceError, DegenerateVarianceError, DomainError
from ergostat.maps import (
    Observable,
    coboundary,
    coin,
    log_derivative,
    make_map,
    sawtooth,
)
from ergostat.transfer import (
    CSRMatrix,
    PressureCurve,
    autocovariance_series,
    cell_average,
    center_observable,
    green_kubo_sigma2,
    invariant_density,
    legendre,
    observable_mean,
    pressure_curve,
    require_nondegenerate,
    ulam_matrix,
    _power_iteration,
)
from oracles import (
    as_scipy,
    chebyshev_transfer,
    coin_rate,
    dense,
    linear_cut_samples,
    power_iteration_reference,
    scipy_csr,
    transpose_product,
)
from test_maps import _counting


def zero_observable():
    return Observable("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def const_observable(c):
    return Observable(f"const{c}", lambda x: np.full_like(np.asarray(x, dtype=float), c))


# -- Ulam matrix --------------------------------------------------------------

def test_doubling_two_cell_matrix():
    op = ulam_matrix(make_map("doubling"), None, 0.0, N=2)
    assert np.allclose(dense(op.matrix), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    assert op.leading_eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(op.right_vector, [1.0, 1.0], atol=1e-12)


def test_quad_points_accepts_only_its_default():
    # the parameter stays in the signature, which bench/spans.py binds by
    # name, but every branch is cut exactly and no value other than 64 runs
    d = make_map("perturbed-doubling")
    assert ulam_matrix(d, N=16, quad_points=64).matrix.shape == (16, 16)
    with pytest.raises(ValueError, match="only 64"):
        ulam_matrix(d, N=16, quad_points=8)


def test_constant_weight_factors_out():
    d = make_map("doubling")
    c = 0.7
    lam0 = ulam_matrix(d, None, 0.0, N=64).leading_eigenvalue
    for beta in (-1.0, 1.0, 2.5):
        lam = ulam_matrix(d, const_observable(c), beta, N=64).leading_eigenvalue
        assert math.log(lam) - math.log(lam0) == pytest.approx(beta * c, abs=1e-10)


def test_eigenvalue_one_at_beta_zero():
    for name in ("doubling", "tent", "perturbed-doubling"):
        op = ulam_matrix(make_map(name), None, 0.0, N=256)
        assert op.leading_eigenvalue == pytest.approx(1.0, abs=1e-10)
        assert op.right_vector.min() > 0


def test_power_iteration_against_dense_eigensolver():
    op = ulam_matrix(make_map("doubling"), coin(), 1.3, N=64)
    eigs = np.linalg.eigvals(dense(op.matrix))
    lam_dense = float(np.max(eigs.real))
    assert op.leading_eigenvalue == pytest.approx(lam_dense, rel=1e-10)


@pytest.mark.parametrize("name,params,obs,N,betas", [
    ("doubling", {}, coin, 1024, 31),
    ("perturbed-doubling", {"eps": 0.05}, sawtooth, 512, 11),
])
def test_power_iteration_bitwise_equals_two_matvec_loop(name, params, obs, N, betas):
    # the residual's product is reused as the next step's: same iterates
    pmap = make_map(name, **params)
    for beta in np.linspace(-3, 3, betas):
        mat = ulam_matrix(pmap, obs(), beta, N=N).matrix
        lam, v = _power_iteration(mat)
        lam_ref, v_ref = power_iteration_reference(mat)
        assert (lam, v.tobytes()) == (lam_ref, v_ref.tobytes()), beta


# -- the sparse layout against scipy's ---------------------------------------

def _assert_csr_matches_scipy(mat: CSRMatrix, values, rows, cols, n, tolerated=()):
    """Layout, data and matvec bits of mat against scipy's CSR of the same
    coordinates.  Data may differ by rounding only in the `tolerated` rows."""
    ref = scipy_csr(values, rows, cols, n)
    assert mat.shape == ref.shape
    for part in ("indices", "indptr"):
        got, want = getattr(mat, part), getattr(ref, part)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    exact = ~np.isin(np.repeat(np.arange(n), np.diff(mat.indptr)), tolerated)
    assert mat.data[exact].tobytes() == ref.data[exact].tobytes()
    assert np.allclose(mat.data, ref.data, rtol=8 * np.finfo(float).eps, atol=0.0)
    x = np.random.default_rng(n).random(n)
    assert (mat @ x).tobytes() == (as_scipy(mat) @ x).tobytes()


@pytest.mark.parametrize("head", ["doubling-coin", "tent-coin", "perturbed-sawtooth",
                                  "two-slope-sawtooth"])
@pytest.mark.parametrize("N", [128, 1024])
def test_csr_bitwise_equals_scipy_on_golden_maps(head, N):
    from ergostat.config import build_map, parse_config
    from test_golden import MAPS
    pmap = build_map(parse_config(MAPS[head]))
    op = ulam_matrix(pmap, N=N)
    rows, cols, _, points = op.samples
    _assert_csr_matches_scipy(op.matrix, transfer._cell_values(op.samples, 1.0, N),
                              rows, cols, N)
    # a pressure curve's reweighting, in the beta = 0 operator's layout
    values = transfer._cell_values(op.samples, np.exp(1.3 * sawtooth()(points)), N)
    _assert_csr_matches_scipy(op.matrix.reweighted(values), values, rows, cols, N)


def _long_rows_with_triples(rows, cols, n):
    """Rows of more than 16 entries that sum three or more into one cell:
    there scipy's std::sort (no longer an insertion sort) may reorder the
    summands, which moves the sum by rounding."""
    per_cell = np.bincount(rows * n + cols, minlength=n * n).reshape(n, n)
    return np.flatnonzero((per_cell.sum(axis=1) > 16) & (per_cell.max(axis=1) >= 3))


@st.composite
def _offset_linear_maps(draw):
    """Linear maps of 2-12 branches whose images sit anywhere in [0, 1],
    often clustered, so that some cells collect far more than 16 entries."""
    b = draw(st.integers(2, 12))
    inner = draw(st.lists(st.floats(0.02, 0.98), min_size=b - 1, max_size=b - 1,
                          unique=True).filter(
        lambda v: np.min(np.diff(np.sort([0.0, *v, 1.0]))) > 0.01))
    bp = np.array([0.0, *sorted(inner), 1.0])
    slopes, intercepts = [], []
    for lo, hi in zip(bp[:-1], bp[1:]):
        top = 1.0 / (hi - lo)
        s = draw(st.floats(1.05, min(top, 4.0))) if top > 1.05 else top
        s = s if draw(st.booleans()) else -s
        free = 1.0 - abs(s) * (hi - lo)
        offset = draw(st.sampled_from([0.0, free / 2, free])) if free > 0 else 0.0
        slopes.append(s)
        intercepts.append(offset - s * (lo if s > 0 else hi))
    return make_map("custom", breakpoints=bp.tolist(), slopes=slopes, intercepts=intercepts)


@settings(max_examples=60, deadline=None)
@given(pmap=_offset_linear_maps(), N=st.integers(2, 48), seed=st.integers(0, 2**32 - 1))
@example(pmap=make_map("custom", breakpoints=np.linspace(0.0, 1.0, 13).tolist(),
                       slopes=[1.2] * 12, intercepts=[-1.2 * k / 12 for k in range(12)]),
         N=8, seed=0)
def test_csr_bitwise_equals_scipy_on_linear_maps(pmap, N, seed):
    rows, cols, lens, _ = transfer._ulam_samples(pmap, N)
    values = lens * np.random.default_rng(seed).uniform(0.1, 10.0, len(lens)) / (1.0 / N)
    mat = CSRMatrix.from_coo(values, rows, cols, N)
    _assert_csr_matches_scipy(mat, values, rows, cols, N, _long_rows_with_triples(rows, cols, N))


def test_csr_from_coo_against_scipy_on_long_rows():
    # rows of 40 entries over 5 columns: scipy's introsort takes over past 16
    # entries, yet the layout and every cell of at most two summands agree
    rng = np.random.default_rng(11)
    n = 5
    rows, cols = rng.integers(0, n, 200), rng.integers(0, n, 200)
    values = rng.random(200) * 10.0 ** rng.integers(-8, 8, 200)
    mat = CSRMatrix.from_coo(values, rows, cols, n)
    assert np.bincount(rows, minlength=n).max() > 16
    _assert_csr_matches_scipy(mat, values, rows, cols, n, _long_rows_with_triples(rows, cols, n))
    for times in (2, 3):             # every cell twice, and three times in rows of 15
        cells = rng.permutation(np.repeat(np.arange(n * n), times))
        rows, cols = cells // n, cells % n
        values = rng.random(len(cells)) * 10.0 ** rng.integers(-3, 3, len(cells))
        mat = CSRMatrix.from_coo(values, rows, cols, n)
        _assert_csr_matches_scipy(mat, values, rows, cols, n)
    # 64 rows of 40 distinct columns: a matvec sums 40 lanes in column order
    rows, cols = np.repeat(np.arange(64), 40), np.concatenate(
        [rng.choice(64, 40, replace=False) for _ in range(64)])
    values = rng.random(len(rows))
    mat = CSRMatrix.from_coo(values, rows, cols, 64)
    assert len(mat.lanes) == 40
    _assert_csr_matches_scipy(mat, values, rows, cols, 64)


@pytest.mark.parametrize("n_long", [1, 3])
def test_csr_long_rows_go_on_from_their_lane_sums(n_long):
    # 64 rows of 2 entries and n_long rows of 40: every row reads 2 lanes,
    # and the long ones add the rest of their row to that partial sum in
    # column order, with scipy's bits (one long row is the case that a
    # reduce over its column would sum pairwise)
    rng = np.random.default_rng(n_long)
    n, long_rows = 64, np.arange(n_long) * 7
    rows, cols = [], []
    for i in range(n):
        width = 40 if i in long_rows else 2
        rows.append(np.full(width, i))
        cols.append(rng.choice(n, width, replace=False))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    values = rng.random(len(rows)) * 10.0 ** rng.integers(-8, 8, len(rows))
    mat = CSRMatrix.from_coo(values, rows, cols, n)
    assert (len(mat.lanes), len(mat.tail)) == (2, 38)
    assert mat.long_rows.tolist() == long_rows.tolist()
    _assert_csr_matches_scipy(mat, values, rows, cols, n)


# -- invariant density --------------------------------------------------------

@pytest.mark.parametrize("name,N", [("doubling", 1024), ("tent", 1024)])
def test_flat_density_exact_maps(name, N):
    h = invariant_density(ulam_matrix(make_map(name), N=N))
    assert np.max(np.abs(h - 1.0)) < 1e-3


def test_flat_density_three_branch():
    h = invariant_density(ulam_matrix(make_map("linear", slopes=[3, 3, 3]), N=729))
    assert np.max(np.abs(h - 1.0)) < 1e-3


def test_density_integrates_to_one():
    for name, N in (("perturbed-doubling", 512), ("doubling", 300)):
        h = invariant_density(ulam_matrix(make_map(name), N=N))
        assert np.sum(h) / N == pytest.approx(1.0, abs=1e-12)
        assert h.min() > 0


# -- pressure -----------------------------------------------------------------

def test_pressure_zero_observable():
    curve = pressure_curve(ulam_matrix(make_map("doubling"), N=64), zero_observable(),
                           np.linspace(-2, 2, 21))
    assert np.max(np.abs(curve.F_values)) < 1e-12


def test_pressure_constant_observable_linear():
    c = 0.4
    curve = pressure_curve(ulam_matrix(make_map("doubling"), N=64), const_observable(c),
                           np.array([-1.0, 0.0, 1.0]))
    assert np.max(np.abs(curve.F_values - c * curve.beta_grid)) < 1e-8
    assert curve.F_values[1] == 0.0


def test_pressure_coin_closed_form():
    # the even grid has no beta = 0 node: F is still shifted by log lambda(0)
    for grid in (np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), np.linspace(-2.0, 2.0, 4)):
        curve = pressure_curve(ulam_matrix(make_map("doubling"), N=1024), coin(), grid)
        expected = np.log(np.cosh(curve.beta_grid / 2.0))
        assert np.max(np.abs(curve.F_values - expected)) < 1e-6


def test_pressure_resolution_stability_coin():
    d = make_map("doubling")
    grid = np.array([0.0, 1.0])
    f_low = pressure_curve(ulam_matrix(d, N=1024), coin(), grid).F_values[1]
    f_high = pressure_curve(ulam_matrix(d, N=4096), coin(), grid).F_values[1]
    assert abs(f_low - f_high) < 1e-6


def test_pressure_curve_assembles_once():
    # the Ulam samples do not depend on beta, so a 31-point grid evaluates
    # the branches and u on exactly as many points as a 3-point grid,
    # counting the assembly of the beta = 0 operator it reweights
    pd = make_map("perturbed-doubling")
    counted = [_counting(br) for br in pd.branches]
    pmap = replace(pd, branches=tuple(br for br, _ in counted))
    u_seen = []

    def u_fn(x):
        u_seen.append(np.array(x, dtype=float, copy=True))
        return x - 0.5
    u = Observable("counted-sawtooth", u_fn)

    def points(grid):
        for seen in [u_seen] + [seen for _, seen in counted]:
            seen.clear()
        pressure_curve(ulam_matrix(pmap, N=128), u, grid)
        return (sum(x.size for _, seen in counted for x in seen),
                sum(x.size for x in u_seen))

    few = points(np.linspace(-1.0, 1.0, 3))
    assert min(few) > 0
    assert points(np.linspace(-1.0, 1.0, 31)) == few


def test_pressure_truncates_below_the_smallest_failing_beta(monkeypatch):
    # failures at |beta| >= 2.5 on a 13-point grid: before, the curve was cut
    # below the largest failing |beta| and kept F = NaN at +-2.5
    op = ulam_matrix(make_map("doubling"), N=128)
    grid = np.linspace(-3.0, 3.0, 13)
    betas = iter(b for b in grid if b != 0.0)       # the curve's order of solves
    solve = transfer._operator

    def failing(mat, samples):
        if abs(next(betas)) >= 2.5:
            raise ConvergenceError("forced failure")
        return solve(mat, samples)

    monkeypatch.setattr(transfer, "_operator", failing)
    with pytest.warns(UserWarning, match=r"truncated to \|beta\| < 2\.5 "):
        curve = pressure_curve(op, coin(), grid)
    assert curve.beta_grid.tolist() == grid[2:-2].tolist()
    assert np.all(np.isfinite(curve.F_values))


def test_pressure_curve_refuses_overflowing_weights():
    # e^{beta u} overflows at every beta != 0 of this grid: each such beta
    # fails without a warning, and the one point left is no curve
    op = ulam_matrix(make_map("doubling"), N=64)
    with pytest.raises(ConvergenceError, match="fewer than two points"):
        pressure_curve(op, coin(), np.linspace(-3000.0, 3000.0, 5))


def test_power_iteration_refuses_a_non_finite_iterate():
    mat = CSRMatrix.from_coo(np.array([np.inf, 1.0]), np.array([0, 1]), np.array([0, 1]), 2)
    with pytest.raises(ConvergenceError, match="1-norm inf"):
        _power_iteration(mat)


def _count_solves(monkeypatch) -> list:
    """Matvecs of each power iteration from here on, one list entry per
    solve, tagged with whether it returned."""
    solves, matvecs = [], []

    def counted(product):
        def call(self, x):
            matvecs.append(len(x))
            return product(self, x)
        return call

    def solve(mat):
        matvecs.clear()
        try:
            out = _power_iteration(mat)
        except ConvergenceError:
            solves.append((len(matvecs), False))
            raise
        solves.append((len(matvecs), True))
        return out

    monkeypatch.setattr(CSRMatrix, "__matmul__", counted(CSRMatrix.__matmul__))
    monkeypatch.setattr(transfer, "_power_iteration", solve)
    return solves


_STEP_U = Observable("step", lambda x: np.where((x >= 0.5) & (x < 0.75), 1.0, -1.0))


def test_power_iteration_refuses_a_stall(monkeypatch):
    # on doubling with u = 1 on [1/2, 3/4) and -1 elsewhere, every cycle
    # through [1/2, 3/4) has mean u <= 0 and its high cycles have period 2,
    # so alpha = 0.5 is out of reach and the tilted matrices the bracket
    # tries are nearly periodic: beta = 7 still converges (about 15 900
    # matvecs per vector), and beta = 15, which used to run all 100 000
    # steps, is refused in under 5% of them
    solves = _count_solves(monkeypatch)
    for N in (4, 1024):
        solves.clear()
        with pytest.raises(DomainError, match="at beta = 15 power iteration stalled"):
            legendre(ulam_matrix(make_map("doubling"), None, 0.0, N), _STEP_U, 0.5)
        *converged, (steps, ok) = solves
        assert not ok and 0 < steps < transfer.POWER_MAX_ITER // 20, (N, steps)
        assert all(ok for _, ok in converged)
        assert max(steps for steps, _ in converged) > transfer.POWER_MAX_ITER // 20


def _metastable(d1: float, d2: float):
    """Two halves that each branch maps into itself but for a leak of d1
    (from [1/4, 1/2) over 1/2) and d2 (from [1/2, 3/4) under it)."""
    s1, s2 = (0.5 + d1) / 0.25, (0.5 + d2) / 0.25
    return make_map("custom", breakpoints=[0.0, 0.25, 0.5, 0.75, 1.0],
                    slopes=[2.0, s1, s2, 2.0],
                    intercepts=[0.0, -0.25 * s1, 0.5 - d2 - 0.5 * s2, -1.0])


@pytest.mark.parametrize("case", ["tilt7", "leak_1e-3", "leak_2e-4"])
def test_power_iteration_converges_slowly_without_a_stall(monkeypatch, case):
    # |lambda_2 / lambda_1| close to 1: the residual halves only every few
    # hundred steps, yet reaches POWER_TOL well inside POWER_MAX_ITER, so
    # the stall test must let these solves finish
    pmap, u, beta, N = {"tilt7": (make_map("doubling"), _STEP_U, 7.0, 4),
                        "leak_1e-3": (_metastable(0.001, 0.002), None, 0.0, 64),
                        "leak_2e-4": (_metastable(0.0002, 0.0004), None, 0.0, 64)}[case]
    solves = _count_solves(monkeypatch)
    op = ulam_matrix(pmap, u, beta, N)
    (steps, ok), = solves
    assert ok and steps > transfer.POWER_MAX_ITER // 20, steps
    m = op.matrix
    dense = np.zeros(m.shape)
    for row in range(m.shape[0]):
        cells = slice(m.indptr[row], m.indptr[row + 1])
        dense[row, m.indices[cells]] = m.data[cells]
    moduli = np.sort(np.abs(np.linalg.eigvals(dense)))
    assert moduli[-2] / moduli[-1] > 0.99
    assert op.leading_eigenvalue == pytest.approx(moduli[-1], rel=1e-9)


def test_pressure_curve_rejects_nonconvex():
    with pytest.raises(Exception):
        PressureCurve(beta_grid=np.array([-1.0, 0.0, 1.0]),
                      F_values=np.array([0.0, 1.0, 0.0]))


def test_convex_tabulations_pass_on_uneven_grids():
    # np.diff(values, 2) tested convexity only on an even grid: both of
    # these convex tabulations used to be refused
    op = ulam_matrix(make_map("doubling"), N=64)
    curve = pressure_curve(op, coin(), [-3.0, -2.9, 0.0, 1.0, 3.0])
    assert np.max(np.abs(curve.F_values - np.log(np.cosh(curve.beta_grid / 2)))) < 1e-10


@pytest.mark.parametrize("x,y", [
    ([-1.0, 0.0, 0.25, 2.0], [1.0, 0.0, 0.5, 0.6]),
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 0.0]),     # across a repeated node
])
def test_a_concave_kink_on_an_uneven_grid_is_refused(x, y):
    x, y = np.array(x), np.array(y)
    with pytest.raises(ConvergenceError, match="not convex"):
        PressureCurve(beta_grid=x, F_values=y)


def test_perron_positivity_across_beta():
    d = make_map("doubling")
    for beta in np.linspace(-3, 3, 7):
        op = ulam_matrix(d, coin(), float(beta), N=128)
        assert op.right_vector.min() > 0


# -- rate data at one alpha ---------------------------------------------------

def test_legendre_coin_cramer_value():
    # doubling/coin has the exact Ulam pressure log cosh(beta/2); beta is
    # ill-conditioned near alpha = 1/2, where F'' = 1/4 - alpha^2 vanishes,
    # so its error is read as the alpha-residual F'' * |d beta|
    op = ulam_matrix(make_map("doubling"), N=1024)
    for alpha in (0.01, 0.1, 0.2, 0.4, 0.46, 0.49):
        phi, beta = legendre(op, coin(), alpha)
        phi_true, beta_true = coin_rate(alpha)
        assert abs(phi - phi_true) <= 1e-12, alpha
        assert abs(beta - beta_true) * (0.25 - alpha**2) <= 1e-12, alpha


def test_legendre_alpha_out_of_range():
    # F' is a weighted mean of u over the samples: the coin's is inside
    # (-1/2, 1/2), and no alpha at or past either end has a rate law
    op = ulam_matrix(make_map("doubling"), N=256)
    for alpha in (0.5, 0.6, -0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="outside the range of F'"):
            legendre(op, coin(), alpha)
    # u = 0: a flat pressure, where F' is 0 for every beta
    for alpha in (0.0, 0.1):
        with pytest.raises(DomainError, match="outside the range of F'"):
            legendre(op, zero_observable(), alpha)
    # inside the range of u but past every slope the solve reaches: on the
    # tent map F' of the sawtooth stays near 1/6, its value at the fixed
    # point 2/3, and the bracket grows until an eigen-solve fails
    with pytest.raises(DomainError, match="outside the range of F' that the solve reaches"):
        legendre(ulam_matrix(make_map("tent"), N=128), sawtooth(), 0.3)


def test_legendre_minimum_zero_at_zero():
    op = ulam_matrix(make_map("doubling"), N=512)
    phi, beta = legendre(op, coin(), 0.0)
    assert phi == pytest.approx(0.0, abs=1e-15)
    assert beta == pytest.approx(0.0, abs=1e-12)
    for alpha in np.linspace(-0.45, 0.45, 7):
        assert legendre(op, coin(), float(alpha))[0] >= 0.0


@pytest.mark.parametrize("name,params,obs", [
    ("tent", {}, "coin"),
    ("perturbed-doubling", {"eps": 0.05}, "sawtooth"),
    ("custom", {"breakpoints": [0.0, 1.0 / 3.0, 1.0], "slopes": [3.0, 1.5]}, "log-deriv"),
])
def test_legendre_solves_the_pressure_slope(name, params, obs):
    # alpha = F'(beta0) by a central difference of the pressure curve, from
    # eigenvalues alone; the solve, which reads F' from the Perron vectors,
    # must return beta0.  The difference is good to F'''(beta0) step^2 / 6
    # plus the eigenvalues' error over the step (measured at most 1.4e-9
    # in beta).
    pmap = make_map(name, **params)
    u = {"coin": coin(), "sawtooth": sawtooth(), "log-deriv": log_derivative(pmap)}[obs]
    op = ulam_matrix(pmap, N=256)
    for beta0 in (-2.0, -0.5, 0.3, 1.0, 2.5):
        F = pressure_curve(op, u, [beta0 - 1e-4, beta0 + 1e-4]).F_values
        alpha = float(F[1] - F[0]) / 2e-4
        assert legendre(op, u, alpha)[1] == pytest.approx(beta0, abs=1e-7), beta0


@pytest.mark.parametrize("name,params,obs,betas", [
    ("doubling", {}, "coin", 121),
    ("tent", {}, "coin", 41),
    ("perturbed-doubling", {"eps": 0.05}, "sawtooth", 31),
    ("custom", {"breakpoints": [0.0, 1.0 / 3.0, 1.0], "slopes": [3.0, 1.5]}, "log-deriv", 21),
    # a flat curve: u = 0 has no rate law at any alpha
    ("doubling", {}, "zero", 21),
])
def test_legendre_bitwise_equals_per_alpha_oracle(name, params, obs, betas):
    # every alpha solved on one shared operator: the same bytes as a solve
    # on an operator assembled for that alpha alone, and phi on or above
    # every supporting line alpha b - F(b) of the tabulated pressure
    pmap = make_map(name, **params)
    u = {"coin": coin(), "sawtooth": sawtooth(), "log-deriv": log_derivative(pmap),
         "zero": zero_observable()}[obs]
    op = ulam_matrix(pmap, N=256)
    curve = pressure_curve(op, u, np.linspace(-3, 3, betas))
    secants = np.diff(curve.F_values) / np.diff(curve.beta_grid)
    lo, hi = float(secants.min()), float(secants.max())
    alphas = np.linspace(lo, hi, 5).tolist() + ([0.0] if lo < 0.0 < hi else [])
    for alpha in alphas:
        fresh = ulam_matrix(pmap, N=256)
        if lo == hi:
            for operator in (op, fresh):
                with pytest.raises(DomainError, match="outside the range of F'"):
                    legendre(operator, u, alpha)
            continue
        got, want = legendre(op, u, alpha), legendre(fresh, u, alpha)
        assert np.array(got).tobytes() == np.array(want).tobytes(), alpha
        assert np.max(alpha * curve.beta_grid - curve.F_values) <= got[0] + 1e-12, alpha


def test_legendre_biconjugate_recovers_pressure():
    # phi(alpha) = sup_b (alpha b - F(b)), attained at beta(alpha): no
    # point of the pressure curve lies above the supporting line
    pmap = make_map("perturbed-doubling", eps=0.05)
    op = ulam_matrix(pmap, N=512)
    u = center_observable(op, sawtooth())
    curve = pressure_curve(op, u, np.linspace(-3.0, 3.0, 61))
    for alpha in (-0.2, -0.05, 0.05, 0.1, 0.2):
        phi, beta = legendre(op, u, alpha)
        assert np.max(alpha * curve.beta_grid - curve.F_values) <= phi + 1e-12, alpha
        F = pressure_curve(op, u, [0.0, beta]).F_values[1]
        assert phi == pytest.approx(alpha * beta - F, abs=1e-14), alpha


@pytest.mark.parametrize("eps", [0.05, 0.15])
def test_legendre_beta_converges_with_resolution(eps):
    # beta(alpha) against the Chebyshev reference, whose F' is a central
    # difference (step 1e-4, good to about 1e-9) solved by brentq: the Ulam
    # error alone is left, and it shrinks with the cells (8.5e-6, 3.6e-6
    # and 5.0e-7 at N = 256, 1024 and 4096 for alpha = 0.05, eps = 0.05)
    pmap = make_map("perturbed-doubling", eps=eps)
    ref = chebyshev_transfer(pmap, 65)
    u = sawtooth().with_mean(ref.integral(sawtooth()))     # the same u at every N

    def ref_slope(beta, step=1e-4):
        F = ref.pressure(u, [beta - step, beta + step])
        return float(F[1] - F[0]) / (2.0 * step)

    for alpha in (0.05, 0.2):
        beta_ref = brentq(lambda b: ref_slope(b) - alpha, 0.0, 5.0, xtol=1e-13)
        errors = [abs(legendre(ulam_matrix(pmap, N=N), u, alpha)[1] - beta_ref)
                  for N in (256, 1024, 4096)]
        assert errors[0] > errors[1] > errors[2], (alpha, errors)


def test_transpose_product_is_scipys_transpose_matvec():
    mat = ulam_matrix(make_map("perturbed-doubling"), sawtooth(), 0.7, N=128).matrix
    x = np.random.default_rng(5).uniform(size=128)
    assert transpose_product(mat, x).tobytes() == (as_scipy(mat).T @ x).tobytes()


def _transposed(op, u, beta):
    """The transposed pattern of op's samples tilted by e^{beta u}, as
    `legendre` builds it, after checking that the same values rebuild
    op's matrix."""
    rows, cols, _, points = op.samples
    N = op.matrix.shape[0]
    w = 1.0 if beta == 0.0 else np.exp(beta * u(points))
    values = transfer._cell_values(op.samples, w, N)
    assert CSRMatrix.from_coo(values, rows, cols, N).data.tobytes() == op.matrix.data.tobytes()
    return CSRMatrix.from_coo(values, cols, rows, N)


@pytest.mark.parametrize("name,obs", [("doubling", coin), ("perturbed-doubling", sawtooth)])
@pytest.mark.parametrize("beta", [-2.5, 0.0, 0.7, 2.5])
def test_left_vector_is_the_transpose_products_bit_for_bit(name, obs, beta):
    # a row of the transposed pattern is a column of M in increasing row
    # order, so the lanes sum it as the bincount oracle does: the product
    # and the left Perron vector keep the oracle's bits
    u = obs()
    op = ulam_matrix(make_map(name), u, beta, N=1024)
    mat, transposed = op.matrix, _transposed(op, u, beta)
    x = np.random.default_rng(7).uniform(size=1024)
    assert (transposed @ x).tobytes() == transpose_product(mat, x).tobytes()
    lam, left = _power_iteration(transposed)
    lam_ref, left_ref = power_iteration_reference(mat, lambda v: transpose_product(mat, v))
    assert (lam, left.tobytes()) == (lam_ref, left_ref.tobytes())


@pytest.mark.parametrize("w", [0.01, 0.001])
def test_legendre_on_a_steep_branch_keeps_its_bits_in_small_memory(monkeypatch, w):
    # a narrow branch of slope 1/w gives about 1/w + 1 entries to each of
    # the few columns of M under it: only those rows of the transposed
    # pattern read a tail, so (phi, beta) keep the bits of scipy's
    # products, and the solve's peak stays under 1 MiB (lanes as deep as
    # the longest column took 3.4 and 31.6 MiB)
    pmap = make_map("custom", breakpoints=[0.0, w, 0.5, 1.0],
                    slopes=[1.0 / w, 1.0 / (0.5 - w), 2.0])
    op = ulam_matrix(pmap, N=1024)
    u = center_observable(op, sawtooth())
    transposed = _transposed(op, u, 0.0)
    assert len(transposed.tail) > 0.5 / w and len(transposed.long_rows) <= 32
    tracemalloc.start()
    try:
        got = legendre(op, u, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(CSRMatrix, "__matmul__", lambda mat, x: as_scipy(mat) @ x)
    assert np.array(got).tobytes() == np.array(legendre(op, u, 0.1)).tobytes()
    assert peak < 2**20


def test_legendre_reads_the_operator_at_beta_zero(monkeypatch):
    # e^{0 u} = 1.0, so a tilt at beta = 0 would only rebuild op and solve
    # its right pair again: legendre reads op's own pair there
    betas, tilt = [], transfer._tilt

    def recorded(op, u_points, beta):
        betas.append(beta)
        return tilt(op, u_points, beta)

    monkeypatch.setattr(transfer, "_tilt", recorded)
    phi, beta = legendre(ulam_matrix(make_map("doubling"), N=256), coin(), 0.2)
    assert betas and 0.0 not in betas
    assert (phi, beta) == pytest.approx(coin_rate(0.2), abs=1e-10)


# -- Green-Kubo variance ------------------------------------------------------

def test_sigma2_sawtooth_quadrature():
    # oracle: C_j = 2^{-j}/12, summing to 1/4
    s2 = green_kubo_sigma2(ulam_matrix(make_map("doubling"), N=2048), sawtooth())
    assert s2 == pytest.approx(0.25, rel=0.02)


def test_quadrature_autocovariances_evaluate_u_once():
    # the cell averages of u and of u^2 come from one evaluation at the
    # 64 N quadrature points, with the bits of two separate averages
    op = ulam_matrix(make_map("perturbed-doubling"), N=256)
    calls = []

    def fn(x):
        calls.append(len(x))
        return np.sin(7.0 * x) - 0.1

    u = center_observable(op, Observable("counted", fn))
    calls.clear()
    c0, cj = autocovariance_series(op, u)
    assert calls == [64 * 256]
    h, width = op.right_vector, 1.0 / 256
    ubar, u2bar = cell_average(u, 256), cell_average(lambda x: np.square(u(x)), 256)
    assert c0 == float(np.sum(u2bar * h) * width)
    assert cj[0] == float((ubar * (op.matrix @ (ubar * h))).sum() * width)


def test_sigma2_sawtooth_orbit():
    s2 = green_kubo_sigma2(make_map("doubling"), sawtooth(),
                           orbit_length=2_000_000, seed=3)
    assert s2 == pytest.approx(0.25, rel=0.02)


def test_orbit_autocovariances_independent_of_blas_threads():
    # a threaded BLAS dot splits n > 10000 across threads, so its bits
    # depend on the thread count; the orbit method must not
    code = ("import sys\n"
            "from ergostat.maps import make_map, sawtooth\n"
            "from ergostat.transfer import autocovariance_series\n"
            "c0, cj = autocovariance_series(make_map('perturbed-doubling'), sawtooth(),\n"
            "                               orbit_length=20000)\n"
            "sys.stdout.write(float(c0).hex() + ' ' + cj.tobytes().hex())\n")
    src = str(Path(ergostat.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0] and outs[0] == outs[1]


def test_sigma2_coin_iid():
    s2 = green_kubo_sigma2(ulam_matrix(make_map("doubling"), N=1024), coin())
    assert s2 == pytest.approx(0.25, rel=0.02)


def test_sigma2_coboundary_vanishes():
    d = make_map("doubling")
    with pytest.warns(UserWarning, match="numerically zero"):
        s2 = green_kubo_sigma2(ulam_matrix(d, N=2048), coboundary(d))
    assert abs(s2) < 1e-6


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_require_nondegenerate_refuses_non_finite(value):
    # NaN compares False with the floor, so it needs its own refusal
    with pytest.raises(DegenerateVarianceError, match="not a finite number"):
        require_nondegenerate(value)


def test_autocovariance_oracle_values():
    # independent quadrature of C_j = int (x-1/2)({2^j x}-1/2) dx = 2^{-j}/12
    c0, cj = autocovariance_series(ulam_matrix(make_map("doubling"), N=2048), sawtooth())
    assert c0 == pytest.approx(1.0 / 12.0, rel=1e-3)
    for j in (1, 2, 3, 4):
        assert cj[j - 1] == pytest.approx(2.0**-j / 12.0, rel=1e-2)


def test_sigma2_alpha_continuity():
    # F''(0) = d alpha / d beta at alpha = 0 is the CLT variance: two rate
    # solves at +-delta against the Green-Kubo sum of the same operator
    op = ulam_matrix(make_map("doubling"), N=512)
    delta = 0.005
    slope = 2.0 * delta / (legendre(op, coin(), delta)[1] - legendre(op, coin(), -delta)[1])
    assert slope == pytest.approx(green_kubo_sigma2(op, coin()), rel=0.05)


# -- centering ----------------------------------------------------------------

def test_center_observable_zeroes_mean():
    pd = make_map("perturbed-doubling")
    op = ulam_matrix(pd, N=1024)
    u = center_observable(op, log_derivative(pd))
    h = invariant_density(op)
    centered_mean = float(np.sum(cell_average(u, 1024) * h) / 1024)
    assert abs(centered_mean) < 1e-12
    assert observable_mean(op, u) == pytest.approx(u.mu_mean, abs=1e-12)


# -- Chebyshev reference and the exact-cut assembly ---------------------------

REF_BETAS = np.linspace(-3.0, 3.0, 13)


def test_chebyshev_reference_closed_forms():
    doubling, tent = make_map("doubling"), make_map("tent")
    assert chebyshev_transfer(doubling, 17).sigma2(sawtooth()) == pytest.approx(0.25, abs=1e-13)
    assert chebyshev_transfer(tent, 17).sigma2(sawtooth()) == pytest.approx(1 / 12, abs=1e-13)
    F = chebyshev_transfer(doubling, 17).pressure(coin(), REF_BETAS)
    assert np.max(np.abs(F - np.log(np.cosh(REF_BETAS / 2.0)))) <= 1e-13


@pytest.mark.parametrize("eps,n", [(0.05, 33), (0.15, 65)])
def test_chebyshev_reference_converged(eps, n):
    # exponential convergence: doubling the nodes moves nothing past 1e-12
    pmap = make_map("perturbed-doubling", eps=eps)
    coarse, fine = chebyshev_transfer(pmap, n), chebyshev_transfer(pmap, 2 * n - 1)
    assert coarse.sigma2(sawtooth()) == pytest.approx(fine.sigma2(sawtooth()), abs=1e-12)
    assert coarse.entropy() == pytest.approx(fine.entropy(), abs=1e-12)
    F = coarse.pressure(sawtooth(), REF_BETAS) - fine.pressure(sawtooth(), REF_BETAS)
    assert np.max(np.abs(F)) <= 1e-12


@pytest.mark.parametrize("name,params", [
    ("doubling", {}),
    ("tent", {}),
    ("linear", {"slopes": [3, -3, 3]}),
    ("custom", {"breakpoints": [0.0, 1.0 / 3.0, 1.0], "slopes": [3.0, 1.5]}),
    ("custom", {"breakpoints": [0, 0.2, 0.4, 0.6, 1], "slopes": [5, 5, 5, 2.5]}),
    # the beta-transformation x -> 2.5 x mod 1: its last branch is not full
    ("custom", {"breakpoints": [0, 0.4, 0.8, 1], "slopes": [2.5, 2.5, 2.5],
                "intercepts": [0, -1, -2]}),
])
def test_linear_maps_cut_as_before(name, params):
    # Branch.inverse of a linear branch is the affine preimage, so cutting
    # every branch alike leaves linear-map operators bit for bit
    pmap = make_map(name, **params)
    for N in (128, 1024, 2048):
        op = ulam_matrix(pmap, N=N)
        want = linear_cut_samples(pmap, N)
        for got, ref in zip(op.samples, want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        mat = scipy_csr(transfer._cell_values(want, 1.0, N), want[0], want[1], N)
        for part in ("data", "indices", "indptr"):
            assert getattr(op.matrix, part).tobytes() == getattr(mat, part).tobytes()


def _ulam_errors(pmap, ref, N):
    """|sigma^2 error| of the sawtooth, |h error| and max |F error| over
    REF_BETAS of the Ulam operator on N cells against the reference."""
    op = ulam_matrix(pmap, N=N)
    s2 = green_kubo_sigma2(op, center_observable(op, sawtooth()))
    F = pressure_curve(op, sawtooth(), REF_BETAS).F_values
    return (abs(s2 - ref.sigma2(sawtooth())), abs(rokhlin_entropy(pmap, op) - ref.entropy()),
            float(np.max(np.abs(F - ref.pressure(sawtooth(), REF_BETAS)))))


@pytest.mark.parametrize("eps", [0.05, 0.15])
def test_exact_cuts_against_chebyshev_reference(eps):
    # With exact cuts the only error left is Ulam's cell projection, of
    # first order in 1/N for sigma^2 and F, so a sample rule whose bias
    # does not shrink with N shows up against a 1/N yardstick.  The
    # yardstick is the same scheme on the unperturbed doubling map on the
    # same cells: its sigma^2(sawtooth) reads 1/4 - 1/(2N) and its F
    # misses by 0.68/N at |beta| = 3.  h is a smooth functional of the
    # beta = 0 density, whose left eigenvector (Lebesgue measure) the cell
    # projection keeps, so its error is of second order: at most 2/N^2.
    pmap = make_map("perturbed-doubling", eps=eps)
    ref = chebyshev_transfer(pmap, 65)
    doubling = make_map("doubling")
    doubling_ref = chebyshev_transfer(doubling, 17)
    for N in (512, 1024, 2048):
        s2_err, h_err, F_err = _ulam_errors(pmap, ref, N)
        s2_yard, _, F_yard = _ulam_errors(doubling, doubling_ref, N)
        assert s2_yard == pytest.approx(0.5 / N, rel=0.01)
        assert s2_err <= s2_yard, (N, s2_err)
        assert F_err <= F_yard, (N, F_err)
        assert h_err <= 2.0 / N**2, (N, h_err)
