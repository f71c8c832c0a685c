import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import ergostat
from ergostat import transfer
from ergostat.entropy import rokhlin_entropy
from ergostat.errors import DomainError
from ergostat.maps import (
    Observable,
    coboundary,
    coin,
    log_derivative,
    make_map,
    sawtooth,
)
from ergostat.transfer import (
    PressureCurve,
    autocovariance_series,
    cell_average,
    center_observable,
    green_kubo_sigma2,
    invariant_density,
    legendre,
    observable_mean,
    pressure_curve,
    ulam_matrix,
    _golden_max,
)
from oracles import chebyshev_transfer, golden_max, legendre_per_alpha, linear_cut_samples
from test_maps import _counting


def bernoulli_cramer(alpha):
    """Closed-form rate function of the +/-1/2 coin."""
    return (0.5 + alpha) * math.log1p(2 * alpha) + (0.5 - alpha) * math.log1p(-2 * alpha)


def zero_observable():
    return Observable("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                      lipschitz_constant=0.0)


def const_observable(c):
    return Observable(f"const{c}", lambda x: np.full_like(np.asarray(x, dtype=float), c),
                      lipschitz_constant=0.0)


# -- Ulam matrix --------------------------------------------------------------

def test_doubling_two_cell_matrix():
    op = ulam_matrix(make_map("doubling"), None, 0.0, N=2)
    assert np.allclose(op.matrix.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
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
    dense = op.matrix.toarray()
    eigs = np.linalg.eigvals(dense)
    lam_dense = float(np.max(eigs.real))
    assert op.leading_eigenvalue == pytest.approx(lam_dense, rel=1e-10)


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
    u = Observable("counted-sawtooth", u_fn, lipschitz_constant=1.0)

    def points(grid):
        for seen in [u_seen] + [seen for _, seen in counted]:
            seen.clear()
        pressure_curve(ulam_matrix(pmap, N=128), u, grid)
        return (sum(x.size for _, seen in counted for x in seen),
                sum(x.size for x in u_seen))

    few = points(np.linspace(-1.0, 1.0, 3))
    assert min(few) > 0
    assert points(np.linspace(-1.0, 1.0, 31)) == few


def test_pressure_curve_rejects_nonconvex():
    with pytest.raises(Exception):
        PressureCurve(beta_grid=np.array([-1.0, 0.0, 1.0]),
                      F_values=np.array([0.0, 1.0, 0.0]))


def test_perron_positivity_across_beta():
    d = make_map("doubling")
    for beta in np.linspace(-3, 3, 7):
        op = ulam_matrix(d, coin(), float(beta), N=128)
        assert op.right_vector.min() > 0


# -- Legendre transform -------------------------------------------------------

def test_legendre_selfdual_quadratic():
    grid = np.linspace(-3, 3, 241)
    curve = PressureCurve(beta_grid=grid, F_values=0.5 * grid**2)
    rf = legendre(curve, np.linspace(-1.0, 1.0, 21))
    assert np.max(np.abs(rf.phi_values - 0.5 * rf.alpha_grid**2)) < 1e-8
    assert np.max(np.abs(rf.beta_of_alpha - rf.alpha_grid)) < 1e-6


def test_legendre_minimum_zero_at_zero():
    curve = pressure_curve(ulam_matrix(make_map("doubling"), N=512), coin(),
                           np.linspace(-3, 3, 121))
    rf = legendre(curve, np.linspace(-0.3, 0.3, 61))
    assert rf.phi(0.0) == pytest.approx(0.0, abs=1e-10)
    assert rf.phi_values.min() >= 0.0


def test_legendre_coin_cramer_value():
    curve = pressure_curve(ulam_matrix(make_map("doubling"), N=512), coin(),
                           np.linspace(-3, 3, 121))
    rf = legendre(curve, np.array([0.2]))
    assert rf.phi_values[0] == pytest.approx(bernoulli_cramer(0.2), abs=1e-4)
    assert rf.beta_of_alpha[0] == pytest.approx(math.log(1.4 / 0.6), abs=1e-5)


def test_legendre_alpha_out_of_range():
    curve = pressure_curve(ulam_matrix(make_map("doubling"), N=256), coin(),
                           np.linspace(-1, 1, 41))
    # F' of log cosh(beta/2) on [-1,1] stays within +/- tanh(1/2)/2 ~ 0.231
    with pytest.raises(DomainError):
        legendre(curve, np.array([0.45]))


@pytest.mark.parametrize("name,params,obs,betas", [
    ("doubling", {}, "coin", 121),
    ("tent", {}, "coin", 41),
    ("perturbed-doubling", {"eps": 0.05}, "sawtooth", 31),
    ("custom", {"breakpoints": [0.0, 1.0 / 3.0, 1.0], "slopes": [3.0, 1.5]}, "log-deriv", 21),
    # a flat curve: the search ends at beta < 0 and phi(0) is -0.0
    ("doubling", {}, "zero", 21),
])
def test_legendre_bitwise_equals_per_alpha_oracle(name, params, obs, betas):
    # all alphas searched at once: the same bytes as one scalar search each
    pmap = make_map(name, **params)
    u = {"coin": coin(), "sawtooth": sawtooth(), "log-deriv": log_derivative(pmap),
         "zero": zero_observable()}[obs]
    curve = pressure_curve(ulam_matrix(pmap, N=256), u, np.linspace(-3, 3, betas))
    secants = np.diff(curve.F_values) / np.diff(curve.beta_grid)
    lo, hi = float(secants.min()), float(secants.max())
    grids = [np.linspace(lo, hi, 31), np.array([lo, hi]), np.array([0.5 * (lo + hi)])]
    if lo < 0.0 < hi:
        # alpha = 0 exactly, where phi can come out as -0.0
        grids += [np.linspace(-0.4 * hi, 0.4 * hi, 41), np.array([lo, 0.0, hi]),
                  np.array([0.0])]
    for grid in grids:
        got, want = legendre(curve, grid), legendre_per_alpha(curve, grid)
        for field in ("phi_values", "beta_of_alpha", "sigma2_of_alpha"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (field, grid)


def test_golden_max_brackets_stop_on_their_own_steps():
    # brackets of different widths take different numbers of steps (the
    # last one none); each element stops where its scalar search stops
    lo = np.array([-3.0, -1.0, 0.0, 2.0])
    hi = np.array([3.0, 1e-9, 1e3, 2.0 + 5e-11])
    centers = np.array([0.7, -0.5, 123.4, 2.0])
    x, val = _golden_max(lambda t: -(t - centers) ** 2, lo, hi)
    want = [golden_max(lambda t: -(t - c) ** 2, a, b) for a, b, c in zip(lo, hi, centers)]
    assert x.tobytes() == np.array([w[0] for w in want]).tobytes()
    assert val.tobytes() == np.array([w[1] for w in want]).tobytes()


def test_legendre_biconjugate_recovers_pressure():
    curve = pressure_curve(ulam_matrix(make_map("doubling"), N=512), coin(),
                           np.linspace(-3, 3, 121))
    rf = legendre(curve, np.linspace(-0.4, 0.4, 161))
    phi_s = CubicSpline(rf.alpha_grid, rf.phi_values)
    for beta in np.linspace(-1.0, 1.0, 9):
        _, val = _golden_max(lambda a: a * beta - float(phi_s(a)),
                             rf.alpha_grid[0], rf.alpha_grid[-1])
        f_here = float(np.interp(beta, curve.beta_grid, curve.F_values))
        assert val == pytest.approx(f_here, abs=1e-6)


# -- Green-Kubo variance ------------------------------------------------------

def test_sigma2_sawtooth_quadrature():
    # oracle: C_j = 2^{-j}/12, summing to 1/4
    s2 = green_kubo_sigma2(ulam_matrix(make_map("doubling"), N=2048), sawtooth())
    assert s2 == pytest.approx(0.25, rel=0.02)


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
    s2 = green_kubo_sigma2(ulam_matrix(d, N=2048), coboundary(d))
    assert abs(s2) < 1e-6


def test_autocovariance_oracle_values():
    # independent quadrature of C_j = int (x-1/2)({2^j x}-1/2) dx = 2^{-j}/12
    c0, cj = autocovariance_series(ulam_matrix(make_map("doubling"), N=2048), sawtooth())
    assert c0 == pytest.approx(1.0 / 12.0, rel=1e-3)
    for j in (1, 2, 3, 4):
        assert cj[j - 1] == pytest.approx(2.0**-j / 12.0, rel=1e-2)


def test_sigma2_alpha_continuity():
    d = make_map("doubling")
    curve = pressure_curve(ulam_matrix(d, N=512), coin(), np.linspace(-3, 3, 121))
    rf = legendre(curve, np.array([0.0]))
    gk = green_kubo_sigma2(ulam_matrix(d, N=512), coin())
    assert rf.sigma2_of_alpha[0] == pytest.approx(gk, rel=0.05)


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
        mat = transfer._operator(want, 1.0, N).matrix
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
