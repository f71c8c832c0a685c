"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.

The paper's laws are asymptotic, so a statistical clause at desk scale
takes its level from the exact law of its own statistic at the same size,
with a stated false-alarm probability (at most 1%) for a correct program.
On the doubling map every such statistic has an exact reference built from
fair coin bits; the bits come from their own PCG64 stream and never pass
through `ergostat.maps`, so no level is read off program output.

- 05b / 06b: kappa at n = 1e5 against the order statistic of 400 reference
  orbits at which the count rule fails a correct program with exact
  (exchangeable) probability <= 1%: sums >= 8/10 seeds below (0.96%),
  maxima >= 9/10 (0.76%).  Both reject sigma^2 = 1 in place of 1/4; at this
  n neither can tell sigma^2 = 1/4 from sigma^2/4.
- 07b: the band-containment count over 20 seeds x 3 k against the 0.9%
  lower tail of sum_k Binomial(20, p_k), p_k a 99% lower bound from exact
  fair-coin streams, plus at most one seed per k above the upper edge
  (closed-form union bound, < 0.1%).  A tenth of the windows fails it.
- 09a: direct Monte Carlo at k = 50, 100 inside the central 99.6% of the
  exact binomial count (<= 0.8%), the refusal at k = 200, 400, and the
  ratio bound with exact tails there.  phi off by 0.01 fails it.
- 09b: the k = 100 success count of 1e6 direct trials inside the central
  band of the exact binomial count, 0.5% cut from each tail (0.82%).
- 08 stays red: the raw inversion log(N)/k overshoots phi(m(k)) by
  (log(k)/2 + D_k)/k, too much for 15% at N = 2^20 (see the README,
  "Known-red acceptance checks").
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import lfilter
from scipy.stats import beta as beta_law
from scipy.stats import binom

from ergostat.asclt import asclt_run, maxima_run, normalized_statistic_atoms
from ergostat.cli import run as cli_run
from ergostat.config import parse_config
from ergostat.entropy import (
    cylinder_log_measures,
    return_times_upto,
    rokhlin_entropy,
)
from ergostat.errors import BudgetExceededError
from ergostat.maps import (
    Observable,
    coboundary,
    coin,
    make_map,
    orbit,
    sawtooth,
    symbol_chunks,
)
from ergostat.measures import (
    GaussianLaw,
    HalfGaussianLaw,
    kantorovich_ladder,
)
from ergostat.erdos_renyi import (
    er_law_check,
    ld_probability_mc,
    rate_estimator,
)
from ergostat.transfer import (
    green_kubo_sigma2,
    invariant_density,
    pressure_curve,
    ulam_matrix,
)
from oracles import (
    WeightedMeasure,
    binomial_band,
    coin_rate,
    kantorovich_bruteforce,
    kantorovich_reference,
)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def cramer(a: float) -> float:
    """Rate function of the +/-1/2 coin (closed form)."""
    return (0.5 + a) * math.log1p(2 * a) + (0.5 - a) * math.log1p(-2 * a)


@pytest.fixture(scope="module")
def doubling():
    return make_map("doubling")


# -- exact fair-bit references ---------------------------------------------------

REFERENCE_SEED = 210286   # fixed and documented: the paper's arXiv number
REFERENCE_TAIL = 60       # bits past the horizon: orbit points exact to 2^-60


def reference_bits(gen: np.random.Generator, shape) -> np.ndarray:
    """Fair 0/1 bits (uint8) unpacked from the generator's raw bytes."""
    n = math.prod(shape)
    raw = np.frombuffer(gen.bytes((n + 7) // 8), dtype=np.uint8)
    return np.unpackbits(raw)[:n].reshape(shape)


def exchangeable_false_alarm(n_ref: int, above: int, fresh: int, allowed: int) -> float:
    """P(more than `allowed` of `fresh` new draws exceed the reference order
    statistic with `above` of the `n_ref` reference draws above it).

    Exact for any continuous law shared by the new and the reference draws:
    their joint ranks are a uniformly random arrangement, and w new draws
    above the statistic can be placed in C(above + w, w) C(below + fresh - w,
    fresh - w) of the C(n_ref + fresh, fresh) arrangements.
    """
    below = n_ref - above - 1
    ok = sum(math.comb(above + w, w) * math.comb(below + fresh - w, fresh - w)
             for w in range(allowed + 1))
    return 1.0 - ok / math.comb(n_ref + fresh, fresh)


def order_level(reference: np.ndarray, fresh: int, allowed: int,
                max_false_alarm: float = 0.01) -> tuple[float, float]:
    """Lowest reference order statistic at which "at most `allowed` of
    `fresh` correct runs exceed it" fails with probability <= max_false_alarm;
    returns the level and its exact false-alarm probability."""
    ref = np.sort(reference)
    if exchangeable_false_alarm(len(ref), 0, fresh, allowed) > max_false_alarm:
        raise ValueError("too few reference draws for the false-alarm target")
    above = 0
    while exchangeable_false_alarm(len(ref), above + 1, fresh, allowed) <= max_false_alarm:
        above += 1
    return float(ref[-1 - above]), exchangeable_false_alarm(len(ref), above, fresh, allowed)


def reference_kappas(values: np.ndarray, law, running_max: bool) -> np.ndarray:
    """kappa of the 1/k-weighted measure of S_k/sqrt(k) (or running maxima)
    for each row of observable values, k = 1..n."""
    n = values.shape[1]
    s = np.cumsum(values, axis=1)
    if running_max:
        s = np.maximum.accumulate(s, axis=1)
    atoms = s / np.sqrt(np.arange(1, n + 1))
    return np.array([kantorovich_ladder(a, law, [n])[1][0] for a in atoms])


def reference_kappa_sample(observable: str, n: int, orbits: int,
                           seed: int = REFERENCE_SEED) -> np.ndarray:
    """kappa at n over independent exact doubling orbits in law.

    "sawtooth": x_t - 1/2 with x_t = (s_t + x_{t+1})/2 run backwards from
    fair bits s_t (Lebesgue-distributed doubling orbits), against N(0, 1/4).
    "coin": s_t - 1/2, running maxima, against the half-Gaussian G(1/2).
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    out = []
    for start in range(0, orbits, 20):     # 20 orbits at a time: tens of MB
        bits = reference_bits(gen, (min(20, orbits - start), n + REFERENCE_TAIL))
        if observable == "sawtooth":
            x = lfilter([0.5], [1.0, -0.5], bits[:, ::-1].astype(float), axis=1)[:, ::-1]
            out.append(reference_kappas(x[:, :n] - 0.5, GaussianLaw(0.5), False))
        else:
            out.append(reference_kappas(bits[:, :n] - 0.5, HalfGaussianLaw(0.5), True))
    return np.concatenate(out)


# -- 1 ------------------------------------------------------------------------

def test_criterion_01_invariant_density(doubling):
    t0 = time.perf_counter()
    dev_d = float(np.max(np.abs(invariant_density(ulam_matrix(doubling, N=4096)) - 1.0)))
    tent = make_map("tent")
    dev_t = float(np.max(np.abs(invariant_density(ulam_matrix(tent, N=4096)) - 1.0)))
    wall = time.perf_counter() - t0
    ok = dev_d < 1e-3 and dev_t < 1e-3 and wall < 10.0
    assert report("01", ok,
                  f"sup|h-1|: doubling {dev_d:.2e}, tent {dev_t:.2e}, {wall:.1f}s")


# -- 2 ------------------------------------------------------------------------

def test_criterion_02_pressure_exactness(doubling):
    c = 0.7
    u_const = Observable("const", lambda x: np.full_like(np.asarray(x, float), c))
    curve = pressure_curve(ulam_matrix(doubling, N=1024), u_const, np.array([-1.0, 0.0, 1.0]))
    dev = float(np.max(np.abs(curve.F_values - c * curve.beta_grid)))
    zero_dev = abs(curve.F_values[1])
    # F(0) = 0 holds on every curve by construction; spot-check two more
    for u in (coin(), sawtooth()):
        cv = pressure_curve(ulam_matrix(doubling, N=512), u, np.array([-1.0, 0.0, 1.0]))
        zero_dev = max(zero_dev, abs(float(cv.F_values[1])))
    ok = dev < 1e-8 and zero_dev < 1e-10
    assert report("02", ok, f"|F - beta*c| {dev:.2e}, |F(0)| {zero_dev:.2e}")


# -- 3 ------------------------------------------------------------------------

def test_criterion_03_green_kubo(doubling):
    # independent oracle: C_j = int (x-1/2)({2^j x}-1/2) dx = 2^-j / 12
    for j in range(0, 8):
        val, _ = quad(lambda x: (x - 0.5) * ((x * 2.0**j) % 1.0 - 0.5), 0, 1,
                      limit=400, points=[i * 2.0**-j for i in range(2**j + 1)] if j <= 8 else None)
        assert val == pytest.approx(2.0**-j / 12.0, abs=1e-10)
    oracle = 1.0 / 12.0 + 2.0 * sum(2.0**-j / 12.0 for j in range(1, 60))
    assert oracle == pytest.approx(0.25, abs=1e-15)

    s2 = green_kubo_sigma2(ulam_matrix(doubling, N=2048), sawtooth())
    with pytest.warns(UserWarning, match="numerically zero"):
        s2_cob = green_kubo_sigma2(ulam_matrix(doubling, N=2048), coboundary(doubling))
    ok = abs(s2 - 0.25) <= 0.02 * 0.25 and abs(s2_cob) < 1e-6
    assert report("03", ok, f"sigma2 {s2:.6f} (target 0.25 +/-2%), coboundary {s2_cob:.2e}")


# -- 4 ------------------------------------------------------------------------

def test_criterion_04_kantorovich_oracles():
    g1 = GaussianLaw(1.0)
    point = kantorovich_ladder(np.zeros(1), g1, [1])[1][0]
    dev_point = abs(point - math.sqrt(2.0 / math.pi))

    # two-atom case: the adaptive-quadrature oracle (and scipy.integrate)
    # give 0.53537732155; the closed form must match both to 1e-8 (weights
    # 1/2, 1/2 are no ladder checkpoint's, so the first closed form)
    emp2 = WeightedMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    two_closed = kantorovich_reference(emp2, g1)
    two_brute = kantorovich_bruteforce(emp2, g1)
    dev_two = abs(two_closed - 0.5353773215478800)

    rng = np.random.default_rng(20240817)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 1001))
        x = rng.normal(loc=rng.normal() * 0.5, scale=0.3 + 2.0 * rng.random(), size=n)
        law = GaussianLaw(0.4 + 2.0 * rng.random())
        closed = kantorovich_ladder(x, law, [n])[1][0]
        worst = max(worst, abs(closed - kantorovich_bruteforce(WeightedMeasure.harmonic(x), law)))
    ok = dev_point < 1e-9 and dev_two < 1e-6 and abs(two_closed - two_brute) < 1e-8 \
        and worst < 1e-8
    assert report("04", ok,
                  f"kappa(delta0) dev {dev_point:.1e}, two-atom dev {dev_two:.1e}, "
                  f"worst oracle gap {worst:.1e} over 100 measures")


# -- 5 ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def asclt_batch(doubling):
    t0 = time.perf_counter()
    diags = [asclt_run(doubling, sawtooth(), 100_000, seed,
                       checkpoints=[1000, 100_000], sigma2=0.25)
             for seed in range(1, 11)]
    return diags, time.perf_counter() - t0


def test_criterion_05a_asclt_median_decrease(asclt_batch):
    diags, wall = asclt_batch
    lo = np.median([d.kappa_values[0] for d in diags])
    hi = np.median([d.kappa_values[1] for d in diags])
    ok = hi < lo and wall < 120.0
    assert report("05a", ok,
                  f"median kappa 1e3 -> 1e5: {lo:.4f} -> {hi:.4f}, {wall:.0f}s")


@pytest.fixture(scope="module")
def sums_reference():
    return reference_kappa_sample("sawtooth", n=100_000, orbits=400)


def test_criterion_05b_asclt_absolute_level(asclt_batch, sums_reference):
    # kappa at n = 1e5 sits on the per-trajectory sampling floor of the
    # 1/k-weighted measure (effective sample size ~ log n), so its level is
    # an order statistic of the same kappa over 400 exact reference orbits.
    # ">= 9/10 below" would need the reference's 99% point, where sigma^2 = 1
    # still passes on most seed sets; ">= 8/10" rejects it.
    diags, _ = asclt_batch
    vals = np.array([d.kappa_values[1] for d in diags])
    level, false_alarm = order_level(sums_reference, fresh=10, allowed=2)
    good = int(np.sum(vals <= level))
    ok = good >= 8
    report("05b", ok, f"kappa@1e5 <= {level:.3f} for {good}/10 seeds "
                      f"(values {np.round(vals, 3).tolist()}; false alarm "
                      f"{false_alarm:.2%})")
    assert ok, (f"criterion demands kappa(E_1e5, N(0,0.25)) <= {level:.3f} for "
                f">= 8/10 seeds; measured {good}/10. A correct program fails "
                f"this with probability {false_alarm:.2%}: the level is the "
                "reference order statistic of kappa over 400 exact doubling "
                "orbits (see README 'Known-red acceptance checks')")


# -- 6 ------------------------------------------------------------------------

def test_criterion_06a_maxima_degenerate_case(doubling):
    pos = Observable("pos", lambda x: np.asarray(x, float) + 0.1)
    a_plain = normalized_statistic_atoms(doubling, pos, 20_000, seed=3)
    a_max = normalized_statistic_atoms(doubling, pos, 20_000, seed=3, running_max=True)
    ok = np.array_equal(a_plain, a_max)
    assert report("06a", ok, "M_n = E_n exactly for a nonnegative observable")


@pytest.fixture(scope="module")
def maxima_reference():
    return reference_kappa_sample("coin", n=100_000, orbits=400)


def test_criterion_06b_maxima_absolute_level(doubling, maxima_reference):
    vals = np.array([
        maxima_run(doubling, coin(), 100_000, seed, checkpoints=[100_000],
                   sigma2=0.25).kappa_values[0]
        for seed in range(1, 11)])
    level, false_alarm = order_level(maxima_reference, fresh=10, allowed=1)
    good = int(np.sum(vals <= level))
    ok = good >= 9
    report("06b", ok, f"kappa(M,G(0.5))@1e5 <= {level:.3f} for {good}/10 seeds "
                      f"(values {np.round(vals, 3).tolist()}; false alarm "
                      f"{false_alarm:.2%})")
    assert ok, (f"criterion demands kappa(M_1e5, G(0.5)) <= {level:.3f} for "
                f">= 9/10 seeds; measured {good}/10. A correct program fails "
                f"this with probability {false_alarm:.2%}: the level is the "
                "reference order statistic of kappa over 400 exact +/-1/2 coin "
                "walks (see README 'Known-red acceptance checks')")


# -- 7 ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def er_series(doubling):
    series = [er_law_check(doubling, coin(), 0.2, *coin_rate(0.2), [50, 100, 200], seed)
              for seed in range(1, 21)]
    return series


def test_criterion_07a_er_band_shrinks(er_series):
    med = [np.median([abs(s.averages[i] - 0.2) for s in er_series]) for i in range(3)]
    ok = med[0] > med[1] > med[2]
    assert report("07a", ok,
                  f"median |M_k/k - 0.2| at k=50,100,200: "
                  f"{med[0]:.4f} > {med[1]:.4f} > {med[2]:.4f}")


ER_ALPHA = 0.2
ER_K = (50, 100, 200)


def coin_window_counts(alpha: float, k_grid) -> list[int]:
    """[exp(k phi(alpha))] - k + 1 windows per k, with the closed-form phi."""
    return [max(int(math.exp(k * cramer(alpha))), k) - k + 1 for k in k_grid]


def max_window_heads(gen: np.random.Generator, k: int, n_windows: int) -> int:
    """Most heads in any of the first n_windows length-k windows of a fair-bit stream."""
    n = n_windows + k - 1
    c = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(reference_bits(gen, (n,)), dtype=np.int32, out=c[1:])
    return int(np.max(c[k:] - c[:-k]))


@pytest.fixture(scope="module")
def er_reference():
    """Fluctuations (M_k - k alpha)/log k of exact fair-coin streams at the
    closed-form window counts: 4000 streams at k = 50, 100 and 100 streams
    (1.4e7 bits each) at k = 200."""
    gen = np.random.Generator(np.random.PCG64(REFERENCE_SEED))
    out = {}
    for k, n_windows, streams in zip(ER_K, coin_window_counts(ER_ALPHA, ER_K),
                                     (4000, 4000, 100)):
        heads = np.array([max_window_heads(gen, k, n_windows) for _ in range(streams)])
        out[k] = (heads - k / 2 - k * ER_ALPHA) / math.log(k)
    return out


def test_criterion_07b_er_fluctuation_band(er_series, er_reference):
    # the band +/-1/(2 beta) is a liminf/limsup law, and at 12, 3646 and
    # 1.4e7 windows the maximum still sits below its lower edge, so the
    # containment count takes its level from exact fair-coin streams
    band = er_series[0].band
    flucts = np.array([s.fluctuations for s in er_series])   # (20 seeds, 3 k)
    inside = int(np.sum(np.abs(flucts) <= 1.5 * band))
    above = np.sum(flucts > 1.5 * band, axis=0).tolist()
    counts = coin_window_counts(ER_ALPHA, ER_K)

    ref_half = 1.5 / (2.0 * math.log((1 + 2 * ER_ALPHA) / (1 - 2 * ER_ALPHA)))
    # one-sided 99% Clopper-Pearson lower bound on each per-k containment rate
    rates, p_lo = [], []
    for k in ER_K:
        hits, total = int(np.sum(np.abs(er_reference[k]) <= ref_half)), len(er_reference[k])
        rates.append(round(hits / total, 3))
        p_lo.append(float(beta_law.ppf(0.01, hits, total - hits + 1)) if hits else 0.0)
    pmf = np.array([1.0])
    for p in p_lo:     # seeds are independent; the three k of one seed nearly so
        pmf = np.convolve(pmf, binom.pmf(np.arange(21), 20, p))
    cdf = np.cumsum(pmf)
    min_inside = int(np.searchsorted(cdf, 0.009, side="right"))
    low_alarm = float(cdf[min_inside - 1]) if min_inside else 0.0
    # above the upper edge needs one window with more than k/2 + k alpha +
    # 1.5 log(k)/(2 beta) heads: union bound over the windows of one seed
    q_above = [min(1.0, n * float(binom.sf(math.floor(k / 2 + k * ER_ALPHA
                                                      + ref_half * math.log(k)), k, 0.5)))
               for k, n in zip(ER_K, counts)]
    high_alarm = sum(float(binom.sf(1, 20, q)) for q in q_above)

    ok = (er_series[0].window_counts.tolist() == counts and inside >= min_inside
          and max(above) <= 1)
    report("07b", ok, f"fluctuations inside +/-1.5/(2 beta) = +/-{1.5*band:.3f} "
                      f"for {inside}/60 (seed,k) pairs (level {min_inside}), "
                      f"above per k {above} (at most 1); false alarm "
                      f"{low_alarm + high_alarm:.2%}")
    assert ok, (f"criterion demands >= {min_inside}/60 (seed,k) pairs inside "
                "+/-1.5/(2 beta) and at most one seed per k above it, at window "
                f"counts {counts}; measured {inside}/60, above {above}, counts "
                f"{er_series[0].window_counts.tolist()}. The level is the "
                "lower tail of sum_k Binomial(20, p_k), p_k a 99% lower bound "
                f"from exact fair-coin streams (reference containment {rates}; "
                "see README 'Known-red acceptance checks')")


# -- 8 ------------------------------------------------------------------------

def test_criterion_08_rate_estimator(doubling):
    est = rate_estimator(doubling, coin(), 2**20,
                         np.unique(np.geomspace(30, 600, 25).astype(int)), seed=1)
    errs, d_k = [], []
    for k, m, r in zip(est.k_values, est.levels, est.rate_estimates):
        if 0.1 <= m <= 0.35:
            errs.append(abs(r - cramer(m)) / cramer(m))
            # log N - k phi(m_k) - log(k)/2: the part of the overshoot beyond
            # the paper's -log(k)/(2 beta k) correction
            d_k.append(math.log(est.N) - k * cramer(m) - 0.5 * math.log(k))
    worst = max(errs)
    ok = worst <= 0.15 and len(errs) >= 5
    report("08", ok, f"max relative phi error over levels [0.1,0.35]: "
                     f"{worst:.0%} across {len(errs)} points, "
                     f"D_k in [{min(d_k):.1f}, {max(d_k):.1f}]")
    assert ok, ("criterion demands <= 15% relative error in phi; measured "
                f"max {worst:.0%} (median {np.median(errs):.0%}). The raw "
                "inversion log(N)/k exceeds phi(m(k)) by (log(k)/2 + D_k)/k, "
                "a fraction (log(k)/2 + D_k)/log(N) of itself: at N = 2^20 "
                "and k >= 30 the log(k)/2 term alone makes that 12%, a 14% "
                f"error in phi; measured D_k in [{min(d_k):.1f}, "
                f"{max(d_k):.1f}]. See README 'Known-red acceptance checks'")


# -- 9 ------------------------------------------------------------------------

def test_criterion_09a_estime_normalized_ratios(doubling):
    # 1e6 direct trials resolve the tail only while k*phi(0.2) <= 12 (k = 50,
    # 100); beyond it the estimator refuses, and the sandwich ratio takes the
    # exact binomial tail with the closed-form phi and beta
    phi, beta = coin_rate(0.2)
    ratios, counts, refused = {}, {}, []
    for k in (50, 100, 200, 400):
        exact = float(binom.sf(7 * k // 10, k, 0.5))    # P(S_k > 0.2 k)
        try:
            est = ld_probability_mc(doubling, coin(), 0.2, k, 1_000_000, 11, phi, beta)
        except BudgetExceededError:
            refused.append(k)
            ratios[k] = exact * abs(beta) * math.sqrt(k) * math.exp(k * phi)
            continue
        # central 99.6% of the exact success count: false alarm <= 0.4% per k
        lo = int(binom.ppf(0.002, est.trials, exact))
        hi = int(binom.isf(0.002, est.trials, exact))
        counts[k] = (est.successes, lo, hi)
        ratios[k] = est.normalized_ratio
    covered = all(lo <= n <= hi for n, lo, hi in counts.values())
    spread = max(ratios.values()) / min(ratios.values())
    ok = refused == [200, 400] and covered and spread < 10.0
    report("09a", ok, "ratios {} (max/min {:.2f}), successes {}, refused k={}".format(
        {k: round(v, 3) for k, v in ratios.items()}, spread,
        {k: f"{n} in [{lo}, {hi}]" for k, (n, lo, hi) in counts.items()}, refused))
    assert ok, (
        "criterion demands direct Monte Carlo at k = 50, 100 inside the central "
        "99.6% of the exact binomial count (false alarm <= 0.8% in all), the "
        "feasibility refusal at k = 200, 400 (k*phi(0.2) = 16.5 and 32.9 > 12; "
        "exact tails 3.15e-9 and 1.6e-16, i.e. 0.003 and 1.6e-10 expected "
        "successes per 1e6 trials), and sandwich ratios within a factor 10; "
        f"measured ratios {ratios}, refused {refused}, (successes, lo, hi) "
        f"{counts}. See README 'Known-red acceptance checks'")


def test_criterion_09b_estime_binomial_oracle(doubling):
    est = ld_probability_mc(doubling, coin(), 0.2, 100, 1_000_000, 11,
                            *coin_rate(0.2))
    exact = float(binom.sf(70, 100, 0.5))
    lo, hi, false_alarm = binomial_band(est.trials, exact)
    ok = lo <= est.successes <= hi
    assert report("09b", ok,
                  f"successes {est.successes} of {est.trials} in [{lo}, {hi}], the "
                  f"central band of the exact binomial count at p = {exact:.2e} "
                  f"(false alarm {false_alarm:.2%})")


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_entropy(doubling):
    h_table = invariant_density(ulam_matrix(doubling, N=2048))
    orb = orbit(doubling, seed=7, n=2000)
    lm = cylinder_log_measures(doubling, orb.symbols, h_table)
    ks = np.arange(1, 2001)
    smb_dev = float(np.max(np.abs(-lm / ks - math.log(2.0))))

    ow_means = []
    for seed in range(1, 101):
        r = return_times_upto(symbol_chunks(doubling, seed=seed), 20, cap=10**8)[19]
        ow_means.append(math.log(r) / 20.0)
    ow_mean = float(np.mean(ow_means))

    l3 = make_map("linear", slopes=[3, 3, 3])
    h3 = rokhlin_entropy(l3, ulam_matrix(l3, N=729))
    ok = smb_dev < 1e-13 and abs(ow_mean - math.log(2)) <= 0.1 * math.log(2) \
        and abs(h3 - math.log(3)) < 1e-6
    assert report("10", ok,
                  f"SMB dev {smb_dev:.1e}, OW mean {ow_mean:.4f} (log2 "
                  f"{math.log(2):.4f} +/-10%), Rokhlin(slope3) err {abs(h3 - math.log(3)):.1e}")


# -- 11 -----------------------------------------------------------------------

def test_criterion_11_sandwich(doubling):
    n, eps = 20, 1.0
    lower = -(1.0 + eps) * math.log(n)
    upper = math.log((1.0 + eps) * math.log(n))
    mu = 2.0 ** -n
    violations = 0
    products = []
    for seed in range(1, 1001):
        r = return_times_upto(symbol_chunks(doubling, seed=seed), n, cap=10**8)[n - 1]
        stat = math.log(r * mu)
        products.append(r * mu)
        if not (lower <= stat <= upper):
            violations += 1
    freq = violations / 1000.0
    mean_prod = float(np.mean(products))
    ok = freq <= 0.05 and abs(mean_prod - 1.0) <= 0.10
    assert report("11", ok,
                  f"sandwich violations {freq:.1%} (cap 5%), "
                  f"mean R*mu {mean_prod:.4f} (1 +/-10%)")


# -- 12 -----------------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    base = """
[map]
name = doubling

[observable]
name = coin

[run]
seeds = 3, 5
horizon = 5000
checkpoints = 1000, 5000
output_dir = {out}

[ulam]
resolution = 512

[erdos_renyi]
alpha = 0.2
k_grid = 50, 100
"""
    digests = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = parse_config(base.format(out=out))
        for sub in ("asclt", "density", "erdos-renyi"):
            assert cli_run(sub, cfg) == 0
        blob = b"".join(p.read_bytes() for p in sorted(out.glob("*.csv")))
        digests.append(blob)
    ok = digests[0] == digests[1]
    assert report("12", ok,
                  "CSV artifacts byte-identical across reruns (asclt, density, "
                  "erdos-renyi; 2 seeds each)")
