import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergostat.errors import DegenerateVarianceError, DomainError
from ergostat.maps import make_map, orbit, symbol_chunks
from ergostat.transfer import invariant_density, ulam_matrix
from ergostat.entropy import (
    _RETURN_WINDOW,
    _pullback_interval_layers,
    cylinder_log_measures,
    entropy_constants,
    ow_run,
    return_times_upto,
    rokhlin_entropy,
    smb_run,
)
from oracles import (
    CylinderInterval,
    cylinder_interval,
    cylinder_measure,
    itinerary,
    return_time,
)


@pytest.fixture(scope="module")
def doubling():
    return make_map("doubling")


@pytest.fixture(scope="module")
def perturbed():
    return make_map("perturbed-doubling")


# -- itineraries --------------------------------------------------------------

def test_itinerary_examples(doubling):
    assert itinerary(doubling, 0.3, 4).tolist() == [0, 1, 0, 0]
    assert itinerary(doubling, 1.0 / 3.0, 6).tolist() == [0, 1, 0, 1, 0, 1]
    tent = make_map("tent")
    assert itinerary(tent, 0.2, 2).tolist() == [0, 0]


def test_itinerary_breakpoint_collision(doubling):
    with pytest.raises(DomainError):
        itinerary(doubling, 0.5, 1)
    with pytest.raises(DomainError):
        itinerary(doubling, 0.25, 3)     # second iterate hits 0


# -- cylinders ----------------------------------------------------------------

def test_cylinder_dyadic_word(doubling):
    c = cylinder_interval(doubling, [1, 0, 1])
    assert (c.lo, c.hi) == (0.625, 0.75)
    rng = np.random.default_rng(2)
    for k in (1, 7, 23, 40):
        word = rng.integers(0, 2, size=k)
        assert cylinder_interval(doubling, word).width == 2.0 ** -k


def test_cylinder_three_branch_word():
    l3 = make_map("linear", slopes=[3, 3, 3])
    c = cylinder_interval(l3, [2, 0])
    assert c.lo == pytest.approx(6.0 / 9.0, abs=1e-15)
    assert c.hi == pytest.approx(7.0 / 9.0, abs=1e-15)


def test_cylinder_contains_point_and_nests(doubling, perturbed):
    rng = np.random.default_rng(11)
    for pmap in (doubling, perturbed):
        for _ in range(200):
            x = float(rng.random())
            try:
                itin = itinerary(pmap, x, 30)
            except DomainError:
                continue
            prev = CylinderInterval(0.0, 1.0, 0, ())
            for n in (5, 12, 21, 30):
                c = cylinder_interval(pmap, itin[:n])
                assert c.lo <= x < c.hi or math.isclose(c.hi, x)
                assert c.lo >= prev.lo - 1e-15 and c.hi <= prev.hi + 1e-15
                prev = c


def test_cylinder_expansion_width_bound(perturbed):
    itin = itinerary(perturbed, 0.3141, 25)
    c = cylinder_interval(perturbed, itin)
    eta = perturbed.expansion_constant
    assert c.width <= eta ** -25 * 1.01 + 1e-12


def test_cylinder_iterates_track_symbols(doubling, perturbed):
    # f^t maps the cylinder into the branch cell of symbol t+1: spot-check
    # endpoints and midpoint
    for pmap in (doubling, perturbed):
        itin = itinerary(pmap, 0.437, 12)
        c = cylinder_interval(pmap, itin)
        for probe in (c.lo + 1e-12, 0.5 * (c.lo + c.hi), c.hi - 1e-12):
            x = probe
            for t in range(12):
                assert int(pmap.branch_index(x)) == int(itin[t])
                x = float(pmap.apply(x))


def test_cylinder_measures_partition_to_one(doubling, perturbed):
    h2 = invariant_density(ulam_matrix(doubling, N=1024))
    total = sum(cylinder_measure(h2, cylinder_interval(doubling, w))
                for w in itertools.product((0, 1), repeat=10))
    assert total == pytest.approx(1.0, abs=1e-6)
    hp = invariant_density(ulam_matrix(perturbed, N=1024))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        total_p = sum(cylinder_measure(hp, cylinder_interval(perturbed, w))
                      for w in itertools.product((0, 1), repeat=8))
    assert total_p == pytest.approx(1.0, abs=1e-6)


def test_cylinder_measure_examples(doubling):
    h = invariant_density(ulam_matrix(doubling, N=1024))
    assert cylinder_measure(h, cylinder_interval(doubling, [1, 0, 1])) == 2.0 ** -3
    assert cylinder_measure(h, cylinder_interval(doubling, [])) == pytest.approx(1.0, abs=1e-12)
    tent = make_map("tent")
    ht = invariant_density(ulam_matrix(tent, N=1024))
    c = cylinder_interval(tent, [0, 1])          # [0.25, 0.5)
    assert (c.lo, c.hi) == (0.25, 0.5)
    assert cylinder_measure(ht, c) == pytest.approx(0.25, abs=1e-3)


def test_cylinder_resolution_warning(doubling):
    h = invariant_density(ulam_matrix(doubling, N=64))
    with pytest.warns(UserWarning, match="resolution"):
        cylinder_measure(h, cylinder_interval(doubling, [0] * 12))


def test_inadmissible_word_rejected():
    # non-full branches: right branch of this map only reaches [0, 0.8]
    m = make_map("custom", breakpoints=[0.0, 0.5, 1.0], slopes=[2.0, 1.6],
                 intercepts=[0.0, -0.8])
    with pytest.raises(DomainError):
        # word demanding the image of branch 1 to reach (0.8, 1] upstream
        cylinder_interval(m, [1, 1, 1, 1, 1, 1, 1, 1])


@st.composite
def _linear_map_words(draw):
    """A random piecewise-linear map (full branches, or branches whose image
    is a random subinterval) and a random word over its branches."""
    b = draw(st.integers(2, 4))
    inner = draw(st.lists(st.floats(0.05, 0.95), min_size=b - 1, max_size=b - 1,
                          unique=True).filter(
        lambda v: np.min(np.diff(np.sort([0.0, *v, 1.0]))) > 0.04))
    bp = np.array([0.0, *sorted(inner), 1.0])
    full = draw(st.booleans())
    slopes, intercepts = [], []
    for lo, w in zip(bp[:-1], np.diff(bp)):
        magnitude = 1.0 / w if full else draw(st.floats(1.05, 1.0 / w))
        span = magnitude * w
        offset = 0.0 if full else draw(st.floats(0.0, max(0.0, 1.0 - span)))
        s = magnitude if draw(st.booleans()) else -magnitude
        slopes.append(s)
        intercepts.append(offset - s * lo if s > 0 else offset + span - s * lo)
    params = {"breakpoints": bp.tolist(), "slopes": slopes}
    if not full:
        params["intercepts"] = intercepts
    word = draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=40))
    return make_map("custom", **params), word


@settings(max_examples=100, deadline=None)
@given(case=_linear_map_words())
def test_layered_pullback_equals_per_word_oracle(case):
    # every depth-k cylinder of the layered pullback has the endpoints of
    # the per-word pullback, bit for bit, for as long as the oracle's
    # interval stays nonempty (its float endpoints collapse, or a word of a
    # map with short branch images is inadmissible)
    pmap, word = case
    n = len(word)
    lo, hi = _pullback_interval_layers(pmap, np.array(word, dtype=np.uint8), n, n)
    for k in range(1, n + 1):
        try:
            c = cylinder_interval(pmap, word[:k])
        except DomainError:
            break
        assert (lo[k - 1], hi[k - 1]) == (c.lo, c.hi), k


# -- Rokhlin entropy ----------------------------------------------------------

@pytest.mark.parametrize("name,slopes,expected", [
    ("doubling", None, math.log(2.0)),
    ("tent", None, math.log(2.0)),
    ("linear", [3, 3, 3], math.log(3.0)),
])
def test_rokhlin_constant_slope(name, slopes, expected):
    pmap = make_map(name, slopes=slopes) if slopes else make_map(name)
    N = 729 if slopes else 1024
    assert rokhlin_entropy(pmap, ulam_matrix(pmap, N=N)) == pytest.approx(expected, abs=1e-6)


# -- return times -------------------------------------------------------------

def test_return_time_examples():
    assert return_time(np.array([0, 1, 0, 1, 0, 1, 1]), 2) == 2
    assert return_time(np.array([0, 0, 1]), 1) == 1


def test_return_time_censored():
    assert return_time(np.array([0, 1, 1, 1, 1, 1]), 2) is None
    # cap cuts the scan short
    stream = np.concatenate([[3], np.zeros(5000, dtype=np.int64), [3, 0]])
    assert return_time(stream, 2, cap=100) is None
    assert return_time(stream, 2) == 5001


def test_return_time_matches_naive_matcher():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        arr = rng.integers(0, 3, size=int(rng.integers(8, 120))).astype(np.uint8)
        n = int(rng.integers(1, 7))
        naive = next((k for k in range(1, len(arr) - n + 1)
                      if np.array_equal(arr[k:k + n], arr[:n])), None)
        assert return_time(arr, n) == naive


def test_return_times_upto_consistent(doubling):
    for seed in range(1, 6):
        stream = np.concatenate(
            list(symbol_chunks(doubling, seed=seed, limit=1 << 16)))
        upto = return_times_upto(stream, 8, cap=len(stream))
        for k in range(1, 9):
            single = return_time(stream, k)
            got = int(upto[k - 1]) if upto[k - 1] > 0 else None
            assert got == single
        assert np.all(np.diff(upto[upto > 0]) >= 0)


def _counted(stream, pulled):
    for chunk in stream:
        pulled.append(len(chunk))
        yield chunk


@pytest.mark.parametrize("name", ["perturbed-doubling", "doubling"])
def test_return_times_upto_independent_of_stream_chunking(name):
    # float iteration carries x across chunks and symbolic draws come in
    # fixed blocks, so a seed defines one stream whatever the chunk size;
    # the search reads it only as far as its last window reaches
    pmap = make_map(name)
    n = 12
    for seed in (1, 2):
        whole = np.concatenate(list(symbol_chunks(pmap, seed=seed, limit=1 << 17)))
        expected = return_times_upto(whole, n)
        assert np.all(expected > 0)
        for k in range(1, n + 1):
            assert return_time(whole, k) == expected[k - 1]
        for chunk in (1, 7, 4096, 1 << 20):
            pulled = []
            got = return_times_upto(
                _counted(symbol_chunks(pmap, seed=seed, chunk=chunk), pulled), n)
            assert np.array_equal(got, expected)
            assert sum(pulled) <= expected.max() + n + _RETURN_WINDOW + chunk
        # against the KMP oracle under the same chunkings: a cap that cuts
        # inside a window, a stream that ends before R_n, a 3-symbol stream
        inside = int(expected[n // 2] + expected[-1]) // 2
        ended = whole[:expected[-1] + n - 1]
        for stream, depth, cap in ((whole, n, inside), (ended, n, 10**9), (whole[:3], 3, 10**9)):
            oracle = [return_time(stream, k, cap=cap) or -1 for k in range(1, depth + 1)]
            for chunk in (1, 7, 4096, 1 << 20):
                chunks = (stream[i:i + chunk] for i in range(0, len(stream), chunk))
                assert return_times_upto(chunks, depth, cap=cap).tolist() == oracle


def test_return_time_exponential_law(doubling):
    # R_n * mu(P_n) is asymptotically Exp(1): unit mean (Kac)
    n = 10
    vals = []
    for seed in range(1, 1001):
        r = return_times_upto(symbol_chunks(doubling, seed=seed), n, cap=10**6)[n - 1]
        assert r > 0
        vals.append(r * 2.0 ** -n)
    assert np.mean(vals) == pytest.approx(1.0, rel=0.10)


# -- streaming log measures -----------------------------------------------------

def test_log_measures_doubling_exact(doubling):
    h = invariant_density(ulam_matrix(doubling, N=2048))
    orb = orbit(doubling, seed=3, n=5000)
    lm = cylinder_log_measures(doubling, orb.symbols, h)
    ks = np.arange(1, 5001)
    assert np.max(np.abs(-lm / ks - math.log(2.0))) < 1e-13


@pytest.mark.parametrize("breakpoints,slopes", [
    ([0.0, 0.3333333333333333, 1.0], [3.0, 1.5]),
    ([0.0, 0.2, 0.4, 0.6, 1.0], [5.0, 5.0, 5.0, 2.5]),
], ids=["3-1.5", "5-5-5-2.5"])
def test_smb_full_branch_closed_form(breakpoints, slopes):
    # a full-branch linear map preserves Lebesgue, so the Ulam density is 1
    # and -log mu(P_k) = sum_{t<k} log|s_{i_t}|; the cylinders of the second
    # map collapse in float64 after about 28 levels, short of the 45 the
    # density factor pulls back
    pmap = make_map("custom", breakpoints=breakpoints, slopes=slopes)
    consts = entropy_constants(pmap, ulam_matrix(pmap, N=1024))
    n = 5000
    for seed in (1, 2, 3):
        diag = smb_run(pmap, consts, n, seed=seed, checkpoints=[n])
        exact = np.cumsum(np.log(slopes)[orbit(pmap, seed, n).symbols])
        assert np.max(np.abs(diag.minus_log_mu - exact)) <= 1e-11, seed


def test_log_measures_smooth_match_direct(perturbed):
    op = ulam_matrix(perturbed, N=2048)
    h = invariant_density(op)
    orb = orbit(perturbed, seed=5, n=400)
    lm = cylinder_log_measures(perturbed, orb.symbols, h, points=orb.points)
    for k in (1, 4, 9, 15, 20):
        cyl = cylinder_interval(perturbed, orb.symbols[:k])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            direct = math.log(cylinder_measure(h, cyl))
        assert lm[k - 1] == pytest.approx(direct, abs=1e-9)
    # large depth: per-level measure decay approaches the entropy
    h_rok = rokhlin_entropy(perturbed, op)
    assert -lm[-1] / 400 == pytest.approx(h_rok, rel=0.05)


def _mp_log_width(mpmath, eps, word):
    """log width of the cylinder of `word` by a bisection pullback at 50
    digits, for the map f(x) = 2x + eps sin(2 pi x) mod 1 as the program
    builds it (eps and 2 pi rounded to float64)."""
    mp = mpmath.mp
    eps, two_pi = mp.mpf(eps), mp.mpf(2.0 * math.pi)
    lo, hi = (mp.mpf(0), mp.mpf(0.5)) if word[-1] == 0 else (mp.mpf(0.5), mp.mpf(1))
    for s in reversed(word[:-1]):
        ends = []
        for y in (lo, hi):
            a, b = mp.mpf(s) / 2, mp.mpf(s + 1) / 2
            for _ in range(170):          # 2^-170 is below 1e-51
                mid = (a + b) / 2
                if 2 * mid - s + eps * mp.sin(two_pi * mid) < y:
                    a = mid
                else:
                    b = mid
            ends.append(a)
        lo, hi = ends
    return mp.log(hi - lo)


def test_cylinder_log_widths_match_mpmath_pullback(perturbed):
    # Both cylinder paths invert branches by bracketed Newton to an ulp.
    # The old 60-step bisection stopped at a 1e-14 bracket and was off by
    # 8e-11 .. 2e-10 at depth 15 and 9e-10 .. 7.5e-9 at depth 20 on these
    # seeds, failing both bounds below.  At depth 20 (width ~1e-6) rounding
    # the two endpoints to float64 alone moves log width by up to
    # spacing(hi) / width, 1e-10 for hi in [0.5, 1), so no float64 pullback
    # meets 1e-11 there for every word: the bound at depth 20 is four such
    # spacings (the levels before the last add at most as much again, and
    # Newton stops within an ulp, not half of one).
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    flat = np.ones(2048)                   # log mu = log width
    for seed in (1, 2, 3, 4):
        orb = orbit(perturbed, seed=seed, n=20)
        lm = cylinder_log_measures(perturbed, orb.symbols, flat, points=orb.points)
        for k in (5, 10, 15, 20):
            word = [int(s) for s in orb.symbols[:k]]
            exact = _mp_log_width(mpmath, 0.05, word)
            cyl = cylinder_interval(perturbed, word)
            bound = 1e-11
            if k == 20:
                bound = max(bound, 4.0 * np.spacing(cyl.hi) / cyl.width)
            for got in (math.log(cyl.width), lm[k - 1]):
                assert abs(float(got - exact)) <= bound, (seed, k)


# -- SMB / OW runs --------------------------------------------------------------

def test_smb_refused_for_constant_slope(doubling):
    # the degeneracy flag fires on the way to the refusal
    with pytest.warns(UserWarning, match="numerically zero"):
        with pytest.raises(DegenerateVarianceError):
            smb_run(doubling, entropy_constants(doubling, ulam_matrix(doubling, N=2048)), 500,
                    seed=1, checkpoints=[500])


def test_smb_perturbed_median_kappa_decreases(perturbed):
    consts = entropy_constants(perturbed, ulam_matrix(perturbed, N=2048))
    lo, hi = [], []
    for seed in range(1, 11):
        diag = smb_run(perturbed, consts, 10_000, seed=seed, checkpoints=[1000, 10_000])
        lo.append(diag.kappa_values[0])
        hi.append(diag.kappa_values[1])
        assert diag.kappa_values.max() < 0.15
    assert np.median(hi) < np.median(lo)


def test_ow_run_doubling_refused(doubling):
    with pytest.warns(UserWarning, match="numerically zero"):
        with pytest.raises(DegenerateVarianceError):
            ow_run(doubling, entropy_constants(doubling, ulam_matrix(doubling, N=2048)), 20,
                   seed=1, checkpoints=[20])


def test_smb_atom_spread_matches_green_kubo(perturbed):
    # triangle check of the pipeline: the depth-n statistic
    # (-log mu(P_n) - n h)/sqrt(n) across seeds should spread like the
    # Green-Kubo sigma for u = log|f'| - h
    from ergostat.transfer import center_observable, green_kubo_sigma2
    from ergostat.maps import log_derivative, orbit as make_orbit

    op = ulam_matrix(perturbed, N=2048)
    h_table = invariant_density(op)
    h = rokhlin_entropy(perturbed, op)
    sigma = math.sqrt(green_kubo_sigma2(
        op, center_observable(op, log_derivative(perturbed))))
    n = 2000
    finals = []
    for seed in range(1, 41):
        orb = make_orbit(perturbed, seed, n)
        lm = cylinder_log_measures(perturbed, orb.symbols, h_table, points=orb.points)
        finals.append((-lm[-1] - n * h) / math.sqrt(n))
    spread = float(np.std(finals))
    assert spread == pytest.approx(sigma, rel=0.30)
    assert abs(float(np.mean(finals))) < 3.0 * sigma / math.sqrt(len(finals)) + 0.05


def test_ow_run_perturbed_sandwich_and_entropy(perturbed):
    diag = ow_run(perturbed, entropy_constants(perturbed, ulam_matrix(perturbed, N=2048)), 18,
                  seed=4, checkpoints=[18], cap=10**7)
    assert diag.kind == "ow"
    assert diag.censored == 0
    assert np.mean(diag.sandwich_ok) >= 0.5
    # (1/n) log R_n estimates the entropy at this depth
    assert diag.log_returns[-1] / 18 == pytest.approx(diag.h_rokhlin, rel=0.35)
    assert np.all(diag.kappa_values >= 0)
