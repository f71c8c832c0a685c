import math

import numpy as np
import pytest
from scipy.stats import binom

from ergostat.errors import BudgetExceededError, DomainError
from ergostat.maps import make_map, make_observable, coin, orbit, orbit_value_chunks
from ergostat.transfer import RateFunction, legendre, pressure_curve
from ergostat.erdos_renyi import (
    _moving_max_chunked,
    decoupling_check,
    er_law_check,
    ld_probability_mc,
    rate_estimator,
    wilson_interval,
)
from oracles import moving_max


def cramer(a):
    return (0.5 + a) * math.log1p(2 * a) + (0.5 - a) * math.log1p(-2 * a)


@pytest.fixture(scope="module")
def doubling():
    return make_map("doubling")


@pytest.fixture(scope="module")
def coin_rate(doubling):
    curve = pressure_curve(doubling, coin(), np.linspace(-3, 3, 121), N=512)
    return legendre(curve, np.linspace(-0.45, 0.45, 181))


# -- moving_max ---------------------------------------------------------------

def test_moving_max_enumeration_example():
    assert moving_max([1, -1, 1, 1], 2) == (2.0, 2)


def test_moving_max_constant():
    m, j = moving_max([0.25] * 9, 4)        # exactly representable values
    assert m == 4 * 0.25
    assert j == 0


def test_moving_max_matches_naive_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(7, 50))
        k = int(rng.integers(1, 8))
        vals = rng.normal(size=n)
        naive = max(float(np.sum(vals[j:j + k])) for j in range(n - k + 1))
        assert moving_max(vals, k)[0] == pytest.approx(naive, abs=1e-12)


def test_moving_max_short_stream_errors():
    with pytest.raises(ValueError):
        moving_max([1.0, 2.0], 5)


def test_chunked_scan_matches_flat(doubling):
    u = coin()
    length, k = 3742, 100
    nw = length - k + 1
    vals = np.concatenate(list(orbit_value_chunks(doubling, u, seed=7, total=length)))
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    sums = prefix[k:] - prefix[:-k]
    expected = (float(np.max(sums[:nw])), int(np.argmax(sums[:nw])))
    for chunk in (64, 500, 10**6):
        got = _moving_max_chunked(
            orbit_value_chunks(doubling, u, seed=7, total=length, chunk=chunk), k, nw)
        assert got == expected


# -- er_law_check -------------------------------------------------------------

def test_er_constant_observable_stays_on_band_center():
    alpha = 0.3
    rate = RateFunction(
        alpha_grid=np.array([alpha - 0.01, alpha, alpha + 0.01]),
        phi_values=np.array([1e-4, 0.0, 1e-4]),
        beta_of_alpha=np.array([0.9, 1.0, 1.1]),
        sigma2_of_alpha=np.array([1.0, 1.0, 1.0]))
    const = make_map("doubling")
    from ergostat.maps import Observable
    u = Observable("const", lambda x: np.full_like(np.asarray(x, float), alpha),
                   lipschitz_constant=0.0)
    ser = er_law_check(const, u, alpha, rate, [10, 25], seed=1)
    assert np.allclose(ser.M_values, alpha * ser.k_values)
    assert np.allclose(ser.fluctuations, 0.0, atol=1e-12)


def test_er_narrow_bump_not_read_as_branch_constant(doubling):
    # point samples of a branch cell can miss this bump; with no variation
    # bound the observable is never certified constant per cell, so its
    # values come from the orbit points
    bump = make_observable("table", xs=[0, 0.1, 0.1001, 0.1002, 1], ys=[0, 0, 1, 0, 0])
    n, k = 2**16, 16
    points = orbit(doubling, seed=3, n=n).points
    streamed = np.concatenate(list(orbit_value_chunks(doubling, bump, seed=3, total=n)))
    assert np.array_equal(streamed, bump(points)) and np.sum(streamed) > 2.0
    # exp(k phi) = n windows' worth of stream at alpha = 0.5
    rate = RateFunction(
        alpha_grid=np.array([0.0, 0.5, 1.0]),
        phi_values=np.array([0.0, 1.0, 2.0]) * math.log(n) / k,
        beta_of_alpha=np.ones(3), sigma2_of_alpha=np.ones(3))
    ser = er_law_check(doubling, bump, 0.5, rate, [k], seed=3)
    expected, _ = moving_max(bump(points[:int(ser.window_counts[0]) + k - 1]), k)
    assert ser.M_values[0] == expected > 0.0


def test_er_law_of_averages(doubling, coin_rate):
    ser = er_law_check(doubling, coin(), 0.2, coin_rate, [100], seed=3)
    assert 0.15 <= ser.averages[0] <= 0.25


def test_er_band_shrinks_and_upper_bound_respected(doubling, coin_rate):
    # |M_k/k - alpha| shrinks with k; the upper fluctuation edge
    # alpha + (1+eps) log k/(2 beta k) is essentially never crossed
    devs = {50: [], 100: [], 200: []}
    flucts = {50: [], 100: [], 200: []}
    for seed in range(1, 11):
        ser = er_law_check(doubling, coin(), 0.2, coin_rate, [50, 100, 200], seed=seed)
        for i, k in enumerate((50, 100, 200)):
            devs[k].append(abs(ser.averages[i] - 0.2))
            flucts[k].append(ser.fluctuations[i])
    med = [np.median(devs[k]) for k in (50, 100, 200)]
    assert med[0] > med[1] > med[2]
    band = ser.band
    for k in (50, 100, 200):
        assert all(f <= 1.5 * band for f in flucts[k])


def test_er_window_count_monotonicity(doubling, coin_rate):
    # truncating the stream (fewer windows) can only lower the maximum
    u = coin()
    k = 60
    phi = coin_rate.phi(0.2)
    full_len = int(math.exp(k * phi))
    vals = np.concatenate(list(orbit_value_chunks(doubling, u, seed=9, total=full_len)))
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    sums = prefix[k:] - prefix[:-k]
    m_full = float(np.max(sums))
    m_half = float(np.max(sums[: len(sums) // 2]))
    assert m_half <= m_full


def test_er_rejects_alpha_zero(doubling, coin_rate):
    with pytest.raises(DomainError):
        er_law_check(doubling, coin(), 0.0, coin_rate, [50], seed=1)


def test_er_budget_cap(doubling, coin_rate):
    with pytest.raises(BudgetExceededError):
        er_law_check(doubling, coin(), 0.4, coin_rate, [500], seed=1, length_cap=10**6)


# -- rate estimator -----------------------------------------------------------

def test_rate_estimator_zero_observable():
    est = rate_estimator(np.zeros(10_000), [20, 50, 100])
    assert np.allclose(est.levels, 0.0)


def test_rate_estimator_doubling_N_shifts_rate_exactly(doubling):
    u = coin()
    vals = np.concatenate(list(orbit_value_chunks(doubling, u, seed=2, total=2**16)))
    k_grid = [32, 64]
    est1 = rate_estimator(vals[: 2**15], k_grid)
    est2 = rate_estimator(vals, k_grid)
    for i, k in enumerate(k_grid):
        assert est2.rate_estimates[i] - est1.rate_estimates[i] == pytest.approx(
            math.log(2) / k, abs=1e-12)
        assert est2.levels[i] >= est1.levels[i]      # max over a superset


def test_rate_estimator_tracks_cramer_shape(doubling):
    # the raw inversion log(N)/k overestimates phi (finite-size window
    # clustering); it must still be positively biased, ordered, and within
    # a factor 2 of the closed form on the working level range
    vals = np.concatenate(list(orbit_value_chunks(doubling, coin(), seed=1, total=2**20)))
    est = rate_estimator(vals, np.unique(np.geomspace(30, 600, 25).astype(int)))
    checked = 0
    for m, r in zip(est.levels, est.rate_estimates):
        if 0.1 <= m <= 0.35:
            truth = cramer(m)
            assert truth < r < 2.0 * truth
            checked += 1
    assert checked >= 8


def test_rate_estimator_length_guard():
    with pytest.raises(ValueError):
        rate_estimator(np.zeros(100), [50])


# -- direct Monte Carlo -------------------------------------------------------

def test_ld_probability_binomial_oracle(doubling, coin_rate):
    est = ld_probability_mc(doubling, coin(), 0.2, 100, 200_000, seed=11, rate=coin_rate)
    exact = float(binom.sf(70, 100, 0.5))
    assert est.ci_lo <= exact <= est.ci_hi


def test_ld_probability_alpha_zero_is_half(doubling, coin_rate):
    est = ld_probability_mc(doubling, coin(), 1e-9, 100, 50_000, seed=3, rate=coin_rate)
    # lattice-exact: P(S_100 > 0) = (1 - P(B=50))/2
    exact = float(0.5 * (1.0 - binom.pmf(50, 100, 0.5)))
    assert est.ci_lo <= exact <= est.ci_hi


def test_ld_normalized_ratios_bounded_at_feasible_alpha(doubling, coin_rate):
    ratios = []
    for k in (50, 100, 200, 400):
        est = ld_probability_mc(doubling, coin(), 0.1, k, 300_000, seed=4, rate=coin_rate)
        assert not est.one_sided
        ratios.append(est.normalized_ratio)
    assert max(ratios) / min(ratios) < 10.0


def test_ld_feasibility_guard(doubling, coin_rate):
    with pytest.raises(BudgetExceededError):
        ld_probability_mc(doubling, coin(), 0.2, 200, 100_000, seed=1, rate=coin_rate)
    with pytest.raises(ValueError):
        ld_probability_mc(doubling, coin(), 0.2, 50, 100, seed=1, rate=coin_rate)


def test_decoupling_r0_matches_single_and_decay(doubling, coin_rate):
    rows = decoupling_check(doubling, coin(), 0.1, 50, [0, 10, 25, 50],
                            100_000, seed=5, rate=coin_rate)
    single = ld_probability_mc(doubling, coin(), 0.1, 50, 100_000, seed=5, rate=coin_rate)
    assert rows[0].joint_p == pytest.approx(single.p_hat, abs=1e-12)
    # log joint nonincreasing in r (allow CI slack one step)
    ps = [r.joint_p for r in rows]
    assert ps[0] >= ps[1] >= ps[2] * 0.8
    # disjoint windows behave like independent events
    assert rows[-1].product_ratio == pytest.approx(1.0, rel=0.35)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and 0.001 < hi < 0.01
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
