import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from ergostat import erdos_renyi, maps
from ergostat.errors import BudgetExceededError, DomainError
from ergostat.maps import (
    Observable, make_map, make_observable, coin, orbit, orbit_value_chunks, sawtooth,
    symbol_chunks,
)
from ergostat.erdos_renyi import (
    _moving_max_chunked,
    _trial_sums,
    decoupling_check,
    er_law_check,
    ld_probability_mc,
    rate_estimator,
    wilson_interval,
)
from oracles import binomial_band, coin_rate, moving_max


def cramer(a):
    return (0.5 + a) * math.log1p(2 * a) + (0.5 - a) * math.log1p(-2 * a)


@pytest.fixture(scope="module")
def doubling():
    return make_map("doubling")


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
            orbit_value_chunks(doubling, u, seed=7, total=length, chunk=chunk), [k], [nw])
        assert got == [expected]


@pytest.mark.parametrize("k", [1, 2, 100])
def test_chunked_scan_edges_equal_oracle(k):
    # small-integer values: every prefix sum is exact, so the chunked scan
    # and the oracle see the same sums and break the many ties alike
    vals = np.random.default_rng(k).integers(-2, 3, size=700).astype(float)
    for n_windows in (1, 2, 500):
        needed = n_windows + k - 1
        expected = moving_max(vals[:needed], k)
        for chunk in (1, k, k + 1, 1 << 20):
            def chunks(stop):
                return (vals[i : min(i + chunk, stop)] for i in range(0, stop, chunk))
            # the stream may run past the last window or end exactly there
            for stop in (len(vals), needed):
                assert _moving_max_chunked(chunks(stop), [k], [n_windows]) == [expected], \
                    (n_windows, chunk, stop)
            with pytest.raises(ValueError):
                _moving_max_chunked(chunks(needed - 1), [k], [n_windows])


@settings(max_examples=200, deadline=None)
@given(ks=st.lists(st.integers(1, 60), min_size=1, max_size=6), data=st.data(),
       chunk=st.integers(1, 80), kind=st.sampled_from(["int8", "exact-float", "float"]),
       extra=st.integers(0, 50), seed=st.integers(0, 2**16))
# a repeated, unsorted grid with one single-window k, and k far past the chunk
@example(ks=[40, 3, 40, 1], data=None, chunk=7, kind="float", extra=0, seed=1)
@example(ks=[60, 2], data=None, chunk=1, kind="int8", extra=3, seed=2)
def test_grid_scan_equals_one_k_scans(ks, data, chunk, kind, extra, seed):
    # the grid scan shares one prefix history between its k; each k must
    # still get the bits of its own one-k scan, and where every sum is exact
    # (small integers, as weights or as floats) the oracle's value and index
    n_windows = ([1] * len(ks) if data is None
                 else [data.draw(st.integers(1, 300)) for _ in ks])
    total = max(n + k - 1 for k, n in zip(ks, n_windows)) + extra
    rng = np.random.default_rng(seed)
    vals = (rng.normal(size=total) if kind == "float"
            else rng.integers(-3, 4, size=total).astype(np.int8 if kind == "int8" else float))

    def chunks():
        return (vals[i:i + chunk] for i in range(0, total, chunk))

    got = _moving_max_chunked(chunks(), ks, n_windows)
    assert len(got) == len(ks)
    for k, n, (best, best_j) in zip(ks, n_windows, got):
        (one, one_j), = _moving_max_chunked(chunks(), [k], [n])
        assert (bits(best), best_j) == (bits(one), one_j), (k, n)
        assert isinstance(best, int) == (kind == "int8")
        if kind != "float":
            assert (best, best_j) == moving_max(vals[:n + k - 1], k), (k, n)


# -- integer window sums ------------------------------------------------------

def branch_constant(pmap, values):
    """u = values[i] on branch cell i, certified by its total variation."""
    table = np.asarray(values, dtype=float)
    return Observable("branch-constant", lambda x: table[pmap.branch_index(x)],
                      variation_bound=float(np.sum(np.abs(np.diff(table)))))


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(b=st.sampled_from([2, 3, 4]), signs=st.lists(st.sampled_from([1, -1]), min_size=4,
                                                   max_size=4),
       nums=st.lists(st.integers(-300, 300), min_size=4, max_size=4),
       spaced=st.booleans(), step=st.integers(-40, 40), p=st.integers(0, 8),
       k=st.integers(1, 40), n_windows=st.integers(1, 2000),
       chunk=st.integers(1, 3000), seed=st.integers(0, 2**16))
# weights -300 and 7 over chunks of 2^17 values: read as symbols, and in
# reverse order gathered as int16 and accumulated in int64
@example(b=2, signs=[1, -1, 1, 1], nums=[-300, 7, 0, 0], spaced=False, step=0, p=3, k=40,
         n_windows=300_000, chunk=1 << 17, seed=5)
@example(b=2, signs=[1, -1, 1, 1], nums=[7, -300, 0, 0], spaced=False, step=0, p=3, k=40,
         n_windows=300_000, chunk=1 << 17, seed=5)
# evenly spaced increasing tables at b = 3 (drawn as `integers` blocks) and
# b = 4, and an uneven b = 3 table, which gathers
@example(b=3, signs=[1, -1, 1, 1], nums=[-5, 0, 0, 0], spaced=True, step=3, p=1, k=7,
         n_windows=500, chunk=33, seed=9)
@example(b=4, signs=[-1, 1, 1, -1], nums=[-6, 0, 0, 0], spaced=True, step=4, p=2, k=12,
         n_windows=800, chunk=100, seed=11)
@example(b=3, signs=[1, 1, -1, 1], nums=[-5, 1, 2, 0], spaced=False, step=0, p=1, k=7,
         n_windows=500, chunk=33, seed=9)
def test_integer_sums_are_the_float_sums_bit_for_bit(b, signs, nums, spaced, step, p, k,
                                                     n_windows, chunk, seed):
    # full-branch uniform linear maps iterate symbolically; a branch-constant
    # observable of values n_i / 2^p has integer weights n_i / (2^p unit).
    # Evenly spaced increasing weights w0 + d i are read as the symbols i
    # themselves, u = unit (w0 + d i); any other table gathers its weights
    table = [nums[0] + step * i for i in range(b)] if spaced else nums[:b]
    assume(any(table))                      # an all-zero table keeps float sums
    pmap = make_map("linear", slopes=[b * sgn for sgn in signs[:b]])
    u = branch_constant(pmap, [n / 2**p for n in table])
    total = n_windows + k - 1
    view, chunks = maps._orbit_values(pmap, u, seed, total, chunk, exact=True)
    assert view is not None and view.unit >= 2.0**-p
    chunks = list(chunks)
    entries = np.concatenate(chunks)
    gaps = np.diff(table)
    if np.all(gaps == gaps[0]) and gaps[0] > 0:
        syms = np.concatenate(list(symbol_chunks(pmap, seed, limit=total)))
        assert all(c.dtype == np.uint8 for c in chunks)
        assert entries.tobytes() == syms.tobytes()
    else:
        assert (view.w0, view.d) == (0, 1)
        assert all(c.dtype.kind == "i" for c in chunks)
    values = np.concatenate(list(orbit_value_chunks(pmap, u, seed, total, chunk=chunk)))
    assert bits((view.w0 + view.d * entries.astype(np.int64)) * view.unit) == bits(values)
    (best, best_j), = _moving_max_chunked(iter(chunks), [k], [n_windows])
    (f_best, f_j), = _moving_max_chunked(
        orbit_value_chunks(pmap, u, seed, total, chunk=chunk), [k], [n_windows])
    assert (bits((k * view.w0 + view.d * best) * view.unit), best_j) == (bits(f_best), f_j)

    for r in sorted({0, 1, k}):
        unit, pairs = _trial_sums(pmap, u, k, r, 300, seed)
        got = [np.concatenate(side) for side in zip(*pairs)]
        with mock.patch.object(maps, "_unit_weights", return_value=None):
            f_unit, f_pairs = _trial_sums(pmap, u, k, r, 300, seed)
            want = [np.concatenate(side) for side in zip(*f_pairs)]
        assert unit == view.unit and f_unit is None
        assert [bits(g) for g in got] == [bits(w) for w in want], r


def test_symbol_bytes_scan_as_integers():
    # uint8 symbols accumulate in int32 while n of them cannot reach 2^31,
    # and the scan gives them the maxima of the same values as int8
    u8 = np.dtype(np.uint8)
    assert erdos_renyi._accumulator(u8, 2**23 - 1) is np.int32
    assert erdos_renyi._accumulator(u8, 2**23) is np.int64
    vals = np.random.default_rng(4).integers(0, 128, size=5000)
    ks, n_windows = [1, 5, 40, 200], [5000, 3000, 4961, 1]
    for chunk in (1, 7, 4096):
        def chunks(dtype):
            return (vals[i:i + chunk].astype(dtype) for i in range(0, len(vals), chunk))
        got = _moving_max_chunked(chunks(np.uint8), ks, n_windows)
        assert got == _moving_max_chunked(chunks(np.int8), ks, n_windows)
        assert all(isinstance(best, int) for best, _ in got)


@pytest.mark.parametrize("u", [
    branch_constant(make_map("doubling"), [0.1, -0.3]),     # not small multiples of 2^-p
    coin().with_mean(1e-12),                                 # a centring left a tiny mean
    branch_constant(make_map("doubling"), [-0.0, 0.5]),     # float sums can end at -0.0
])
def test_float_sums_for_tables_without_small_dyadic_weights(doubling, u):
    assert maps._orbit_values(doubling, u, 1, 1000, 1 << 20, exact=True)[0] is None
    assert maps.trial_value_blocks(doubling, u, 50, 100, 1)[0] is None


def test_float_sums_past_the_exact_length():
    # |weight| * length must stay below 2^53, where float prefix sums are exact
    d = make_map("doubling")
    assert maps._orbit_values(d, coin(), 1, 2**53 - 1, 1 << 20, exact=True)[0] == (0.5, -1, 2)
    assert maps._orbit_values(d, coin(), 1, 2**53, 1 << 20, exact=True)[0] is None
    wide = branch_constant(d, [-300 / 4, 1 / 4])             # weights -300 and 1
    assert maps._orbit_values(d, wide, 1, 2**53 // 300, 1 << 20,
                              exact=True)[0] == (0.25, -300, 301)
    assert maps._orbit_values(d, wide, 1, 2**53 // 300 + 1, 1 << 20, exact=True)[0] is None


def test_float_sums_on_float_iterated_maps():
    pd = make_map("perturbed-doubling", eps=0.05)
    assert maps._orbit_values(pd, coin(), 1, 1000, 1 << 20, exact=True)[0] is None
    assert maps._orbit_values(make_map("doubling"), sawtooth(), 1, 1000, 1 << 20,
                              exact=True)[0] is None


def test_coin_window_and_trial_sums_run_on_integers(monkeypatch, doubling):
    # the fast path of the fair-coin instance: the scan and the trial sums
    # read the symbol bytes themselves; a change that hands them float
    # chunks or gathered weights fails here
    seen = []

    def watched(chunks):
        for c in chunks:
            seen.append(c.dtype)
            yield c

    kernel, blocks = erdos_renyi._moving_max_chunked, erdos_renyi.trial_value_blocks
    monkeypatch.setattr(erdos_renyi, "_moving_max_chunked",
                        lambda chunks, k_grid, n: kernel(watched(chunks), k_grid, n))

    def watched_blocks(*args, **kwargs):
        view, out = blocks(*args, **kwargs)
        return view, watched(out)

    monkeypatch.setattr(erdos_renyi, "trial_value_blocks", watched_blocks)
    calls = {
        "er": lambda: er_law_check(doubling, coin(), 0.2, *coin_rate(0.2),
                                   [20, 60], seed=1),
        "ld": lambda: ld_probability_mc(doubling, coin(), 0.1, 50, 10_000, 1,
                                        *coin_rate(0.1)),
        "decoupling": lambda: decoupling_check(doubling, coin(), 0.1, 20, [0, 5], 10_000,
                                               1, *coin_rate(0.1)),
    }
    got = {}
    for name, call in calls.items():
        # each call feeds at least one chunk or block, and every one is symbols
        seen.clear()
        got[name] = call()
        assert seen and set(seen) == {np.dtype(np.uint8)}, (name, seen)
    assert got["er"].window_unit == got["ld"].window_unit == 0.5
    assert [row.window_unit for row in got["decoupling"]] == [0.5, 0.5]


def test_trial_sums_refuse_empty_windows_and_negative_shifts(doubling):
    for k, r in ((0, 0), (-5, 0), (10, -3)):
        with pytest.raises(ValueError):
            _trial_sums(doubling, coin(), k, r, 100, seed=1)


# -- er_law_check -------------------------------------------------------------

def test_er_constant_observable_stays_on_band_center():
    alpha = 0.3
    const = make_map("doubling")
    from ergostat.maps import Observable
    u = Observable("const", lambda x: np.full_like(np.asarray(x, float), alpha))
    ser = er_law_check(const, u, alpha, 0.0, 1.0, [10, 25], seed=1)    # phi, beta at alpha
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
    ser = er_law_check(doubling, bump, 0.5, math.log(n) / k, 1.0, [k], seed=3)
    expected, _ = moving_max(bump(points[:int(ser.window_counts[0]) + k - 1]), k)
    assert ser.M_values[0] == expected > 0.0


def test_er_law_of_averages(doubling):
    ser = er_law_check(doubling, coin(), 0.2, *coin_rate(0.2), [100], seed=3)
    assert 0.15 <= ser.averages[0] <= 0.25


def test_er_band_shrinks_and_upper_bound_respected(doubling):
    # |M_k/k - alpha| shrinks with k; the upper fluctuation edge
    # alpha + (1+eps) log k/(2 beta k) is essentially never crossed
    devs = {50: [], 100: [], 200: []}
    flucts = {50: [], 100: [], 200: []}
    for seed in range(1, 11):
        ser = er_law_check(doubling, coin(), 0.2, *coin_rate(0.2), [50, 100, 200],
                           seed=seed)
        for i, k in enumerate((50, 100, 200)):
            devs[k].append(abs(ser.averages[i] - 0.2))
            flucts[k].append(ser.fluctuations[i])
    med = [np.median(devs[k]) for k in (50, 100, 200)]
    assert med[0] > med[1] > med[2]
    band = ser.band
    for k in (50, 100, 200):
        assert all(f <= 1.5 * band for f in flucts[k])


def test_er_window_count_monotonicity(doubling):
    # truncating the stream (fewer windows) can only lower the maximum
    u = coin()
    k = 60
    phi, _ = coin_rate(0.2)
    full_len = int(math.exp(k * phi))
    vals = np.concatenate(list(orbit_value_chunks(doubling, u, seed=9, total=full_len)))
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    sums = prefix[k:] - prefix[:-k]
    m_full = float(np.max(sums))
    m_half = float(np.max(sums[: len(sums) // 2]))
    assert m_half <= m_full


def test_er_rejects_alpha_zero(doubling):
    with pytest.raises(DomainError):
        er_law_check(doubling, coin(), 0.0, *coin_rate(0.0), [50], seed=1)


@pytest.mark.parametrize("alpha,says", [(-0.2, "not positive"), (math.nan, "outside")])
def test_er_rejects_alpha_below_the_mean_or_off_the_grid(doubling, alpha, says):
    # below the mean beta(alpha) < 0, and the band +/- 1/(2 beta) came out
    # upside down (band_lo 0.590 > band_hi -0.590 at alpha = -0.2); a NaN
    # alpha is refused even with the rate data of a valid one
    phi, beta = coin_rate(alpha if math.isfinite(alpha) else 0.2)
    with pytest.raises(DomainError, match=says):
        er_law_check(doubling, coin(), alpha, phi, beta, [50], seed=1)


def test_er_budget_cap(doubling):
    with pytest.raises(BudgetExceededError):
        er_law_check(doubling, coin(), 0.4, *coin_rate(0.4), [500], seed=1,
                     length_cap=10**6)


def test_er_grid_streams_one_orbit_and_keeps_each_k(monkeypatch, doubling):
    # one stream of the longest length serves the grid; each k reads the
    # same values as a grid of that k alone
    calls = []
    stream = erdos_renyi._orbit_values

    def counted(*args, **kwargs):
        calls.append(args[3])
        return stream(*args, **kwargs)

    monkeypatch.setattr(erdos_renyi, "_orbit_values", counted)
    for u in (coin(), sawtooth()):
        calls.clear()
        ser = er_law_check(doubling, u, 0.2, *coin_rate(0.2), [60, 20, 100, 20],
                           seed=4)
        assert calls == [max(ser.window_counts + ser.k_values - 1)]
        for i, k in enumerate(ser.k_values):
            one = er_law_check(doubling, u, 0.2, *coin_rate(0.2), [k], seed=4)
            assert bits(one.M_values) == bits(ser.M_values[i:i + 1])
            assert one.window_counts[0] == ser.window_counts[i]
            assert one.window_unit == ser.window_unit


def test_er_refuses_an_over_cap_grid_before_it_draws(monkeypatch, doubling):
    # k = 50 is within the cap and k = 4000 far past it: nothing is streamed
    calls = []
    monkeypatch.setattr(erdos_renyi, "_orbit_values", lambda *a, **kw: calls.append(a))
    with pytest.raises(BudgetExceededError, match="k=4000"):
        er_law_check(doubling, coin(), 0.2, *coin_rate(0.2), [50, 4000], seed=1,
                     length_cap=1_000_000)
    # a k phi past the float range is refused as well (it raised OverflowError)
    with pytest.raises(BudgetExceededError, match="k=10000"):
        er_law_check(doubling, coin(), 0.2, *coin_rate(0.2), [50, 10_000], seed=1)
    # an empty grid draws nothing either, and has no integer sums to name
    ser = er_law_check(doubling, coin(), 0.2, *coin_rate(0.2), [], seed=1)
    assert calls == [] and len(ser.M_values) == 0 and ser.window_unit is None


@pytest.mark.parametrize("k_grid", [[1, 20], [20, 0], [-3]])
def test_er_refuses_windows_below_2_before_it_draws(monkeypatch, doubling, k_grid):
    # the fluctuation (M_k - k alpha)/log k divides by log 1 = 0: k = 1 wrote inf
    calls = []
    monkeypatch.setattr(erdos_renyi, "_orbit_values", lambda *a, **kw: calls.append(a))
    with pytest.raises(DomainError, match="at least 2"):
        er_law_check(doubling, coin(), 0.2, *coin_rate(0.2), k_grid, seed=1)
    assert calls == []


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

def test_ld_probability_binomial_oracle(doubling):
    est = ld_probability_mc(doubling, coin(), 0.2, 100, 200_000, 11, *coin_rate(0.2))
    exact = float(binom.sf(70, 100, 0.5))
    lo, hi, false_alarm = binomial_band(est.trials, exact)
    assert lo <= est.successes <= hi, (
        f"successes {est.successes} outside [{lo}, {hi}], the central band of the "
        f"exact binomial count (false alarm {false_alarm:.2%})")


def test_ld_probability_alpha_zero_is_half(doubling):
    est = ld_probability_mc(doubling, coin(), 1e-9, 100, 50_000, 3,
                            *coin_rate(1e-9))
    # lattice-exact: P(S_100 > 0) = (1 - P(B=50))/2
    exact = float(0.5 * (1.0 - binom.pmf(50, 100, 0.5)))
    lo, hi, false_alarm = binomial_band(est.trials, exact)
    assert lo <= est.successes <= hi, (
        f"successes {est.successes} outside [{lo}, {hi}], the central band of the "
        f"exact binomial count (false alarm {false_alarm:.2%})")


def test_ld_normalized_ratios_bounded_at_feasible_alpha(doubling):
    ratios = []
    for k in (50, 100, 200, 400):
        est = ld_probability_mc(doubling, coin(), 0.1, k, 300_000, 4, *coin_rate(0.1))
        assert not est.one_sided
        ratios.append(est.normalized_ratio)
    assert max(ratios) / min(ratios) < 10.0


def test_ld_feasibility_guard(doubling):
    with pytest.raises(BudgetExceededError):
        ld_probability_mc(doubling, coin(), 0.2, 200, 100_000, 1, *coin_rate(0.2))
    with pytest.raises(ValueError):
        ld_probability_mc(doubling, coin(), 0.2, 50, 100, 1, *coin_rate(0.2))


def test_decoupling_r0_matches_single_and_decay(doubling):
    phi, beta = coin_rate(0.1)
    rows = decoupling_check(doubling, coin(), 0.1, 50, [0, 10, 25, 50],
                            100_000, 5, phi, beta)
    single = ld_probability_mc(doubling, coin(), 0.1, 50, 100_000, 5, phi, beta)
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
