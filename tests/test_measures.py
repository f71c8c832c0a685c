import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ergostat import asclt, entropy, measures
from ergostat.asclt import asclt_run, maxima_run, normalized_statistic_atoms
from ergostat.errors import ConfigError, DomainError
from ergostat.entropy import entropy_constants, ow_run, smb_run
from ergostat.maps import coin, make_map, sawtooth
from ergostat.transfer import ulam_matrix
from scipy.special import ndtr as scipy_ndtr

from ergostat.measures import (
    _SCALAR_MAX,
    GaussianLaw,
    HalfGaussianLaw,
    _libm_exp,
    _ndtr_float,
    _stable_argsort,
    checkpoints_within,
    default_checkpoints,
    kantorovich_ladder,
    ndtr,
)
from oracles import (
    DiracLaw,
    InterpolatedLaw,
    WeightedMeasure,
    as_interpolated_law,
    bisection_reference,
    kantorovich_bruteforce,
    kantorovich_reference,
    law_cdf,
)

EULER_GAMMA = 0.5772156649015329


def _kappa(values, law, n=None) -> float:
    """kappa of the harmonic measure of values[:n], from a one-checkpoint
    ladder."""
    values = np.asarray(values, dtype=float)
    return float(kantorovich_ladder(values, law, [len(values) if n is None else n])[1][0])


# -- the harmonic measure of a ladder checkpoint ------------------------------

def test_ladder_merges_equal_atoms():
    # 1/D_4 (1 + 1/3 + 1/4) = 19/25 of the mass sits at 0, the rest at 1:
    # the distance to the point mass at 1 is 19/25, whatever the atoms' order
    law = DiracLaw(1.0)
    assert _kappa([0.0, 1.0, 0.0, 0.0], law) == pytest.approx(19.0 / 25.0, abs=1e-12)
    assert _kappa([0.0, 0.0, 0.0], GaussianLaw(1.0)) == _kappa([0.0], GaussianLaw(1.0))
    support, weights = WeightedMeasure.harmonic([0.0, 1.0, 0.0, 0.0]).merged
    assert support.tolist() == [0.0, 1.0]
    assert weights.tolist() == pytest.approx([19.0 / 25.0, 6.0 / 25.0], abs=1e-15)


def test_harmonic_normalizer_large_n():
    # the first of 10^6 atoms lies at -1, the rest at 1: it alone carries
    # 1/D_n, and the distance to the point mass at 1 is 2/D_n
    atoms = np.ones(10**6)
    atoms[0] = -1.0
    D = 2.0 / _kappa(atoms, DiracLaw(1.0))
    assert D == pytest.approx(math.log(10**6) + EULER_GAMMA, abs=1e-6)


def test_single_atom_measure():
    for a in (0.0, 3.25, 5.0):
        assert _kappa([3.25], DiracLaw(a)) == pytest.approx(abs(3.25 - a), abs=1e-12)


def test_total_mass_normalized():
    # against a point mass right of every atom, kappa is that point less
    # the measure's mean, which holds only for total mass 1
    rng = np.random.default_rng(3)
    x = rng.normal(size=500)
    w = 1.0 / np.arange(1, 501)
    assert _kappa(x, DiracLaw(10.0)) == pytest.approx(10.0 - np.sum(w * x) / np.sum(w),
                                                      rel=1e-12)


def test_non_finite_atoms_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="non-finite"):
            kantorovich_ladder(np.array([0.0, bad]), GaussianLaw(1.0))


# -- the normal CDF against scipy's -------------------------------------------

def _ndtr_inputs() -> np.ndarray:
    """Both sides of |x| = 1 and |x| = 8 (x = a / sqrt 2) and of the MAXLOG
    underflow (a near -37.7), signed zeros, infinities, NaN, and random
    values across the range."""
    rng = np.random.default_rng(2024)
    edges = np.array([math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384)])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    return np.concatenate([near, -near, [0.0, -0.0, np.inf, -np.inf, np.nan],
                           np.linspace(-37.8, -37.6, 4001), rng.normal(size=20000) * 3.0,
                           rng.uniform(-45.0, 45.0, 20000), rng.uniform(-1.5, 1.5, 5000)])


def test_ndtr_bitwise_equals_scipy():
    a = _ndtr_inputs()
    # drawn, sorted and reversed orders, each over two blocks
    for x in (a, np.sort(a), np.sort(a)[::-1].copy()):
        assert ndtr(x).tobytes() == scipy_ndtr(x).tobytes()
    assert np.array([_ndtr_float(v) for v in a.tolist()]).tobytes() == scipy_ndtr(a).tobytes()


@pytest.mark.parametrize("n", [1, _SCALAR_MAX, _SCALAR_MAX + 1, 100])
def test_ndtr_sizes_and_shapes_equal_scipy(n):
    # both sides of the scalar/vector threshold, 0-d and 2-d inputs
    a = _ndtr_inputs()
    for start in range(0, len(a) - n, 997):
        x = a[start:start + n]
        assert ndtr(x).tobytes() == scipy_ndtr(x).tobytes(), start
    grid = a[:6 * n].reshape(6, n)
    got = ndtr(grid)
    assert got.shape == grid.shape and got.tobytes() == scipy_ndtr(grid).tobytes()
    for v in a[:50]:
        for scalar in (float(v), np.float64(v), np.array(v)):
            got, want = ndtr(scalar), scipy_ndtr(scalar)
            assert type(got) is type(want) and np.array(got).tobytes() == np.array(want).tobytes()


def test_libm_exp_bitwise_equals_math_exp():
    # the complex route the vector path takes to the C library's exp, over the
    # arguments -x^2 it sees (1 <= x^2 <= MAXLOG) and beyond
    rng = np.random.default_rng(7)
    v = np.concatenate([-rng.uniform(1.0, 709.8, 200000), rng.uniform(-745.5, 709.0, 20000),
                        [-0.0, 0.0, -1.0, -709.782712893384, -745.2]])
    assert _libm_exp(v).tobytes() == np.array([math.exp(x) for x in v.tolist()]).tobytes()


@pytest.mark.parametrize("law", [
    GaussianLaw(0.7), HalfGaussianLaw(0.7), DiracLaw(0.25),
    InterpolatedLaw([-1.5, -0.2, 0.4, 2.0], [0.1, 0.35, 0.8, 1.0]),
], ids=["gauss", "half", "dirac", "interp"])
def test_cdf_float_is_cdf_bitwise(law):
    a = _ndtr_inputs()
    a = a[np.isfinite(a)]
    assert np.array([law.cdf_float(v) for v in a.tolist()]).tobytes() == law_cdf(law, a).tobytes()


@pytest.mark.parametrize("law", [GaussianLaw(0.7), HalfGaussianLaw(0.7), DiracLaw(0.25)],
                         ids=["gauss", "half", "dirac"])
@pytest.mark.parametrize("n", [1, 5, 32, 60])
def test_cdf_inverse_in_equals_vector_bisection(law, n):
    # crossings bisected one at a time on Python floats, with steps that stop
    # once the bracket no longer moves, land where 60 steps on arrays land,
    # levels at either end of the bracket included
    rng = np.random.default_rng(n)
    for _ in range(20):
        ends = np.sort(rng.uniform(-3.0, 3.0, n + 1))
        a, b = ends[:-1], ends[1:]
        fa, fb = law_cdf(law, a), law_cdf(law, b)
        u = rng.random(n)
        u[rng.random(n) < 0.1] = 0.0
        u[rng.random(n) < 0.1] = 1.0
        p = fa + u * (fb - fa)
        got = law.cdf_inverse_in(a, b, p)
        assert got.tobytes() == bisection_reference(law, a, b, p).tobytes()


# -- laws --------------------------------------------------------------------

@pytest.mark.parametrize("law", [GaussianLaw, HalfGaussianLaw], ids=["gauss", "half"])
@pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0])
def test_law_refuses_scale_not_finite_positive(law, sigma):
    with pytest.raises(ValueError, match="finite and positive"):
        law(sigma)


def test_law_cdf_values():
    assert law_cdf(GaussianLaw(1.0), 0.0) == pytest.approx(0.5)
    assert law_cdf(HalfGaussianLaw(1.0), 0.0) == 0.0
    assert law_cdf(GaussianLaw(2.0), 2.0) == pytest.approx(0.8413447460685429, abs=1e-9)


def test_half_gaussian_density_integrates_to_one():
    hg = HalfGaussianLaw(0.7)
    dens, _ = quad(lambda x: math.sqrt(2.0 / math.pi) / 0.7 * math.exp(-x * x / (2 * 0.49)),
                   0.0, 40.0)
    assert dens == pytest.approx(1.0, abs=1e-12)
    # CDF endpoints
    assert float(law_cdf(hg, -1.0)) == 0.0
    assert float(law_cdf(hg, 50.0)) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_cdf_monotone_and_centered():
    g = GaussianLaw(1.3)
    xs = np.linspace(-8, 8, 1001)
    cdf = law_cdf(g, xs)
    assert np.all(np.diff(cdf) >= 0)
    assert float(law_cdf(g, 0.0)) == pytest.approx(0.5)


# -- Kantorovich: frozen oracle values ---------------------------------------
# Values below were computed with the adaptive-quadrature oracle and cross
# checked against scipy.integrate.quad; see test_two_atom_value_oracle.

def test_kappa_point_mass_vs_gaussian():
    # E|Z| = sqrt(2/pi)
    assert _kappa([0.0], GaussianLaw(1.0)) == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=1e-9)


TWO_ATOM_KAPPA = 0.5353773215478800


def test_two_atom_value_oracle():
    # weights 1/2, 1/2: no ladder checkpoint, so the first closed form
    emp = WeightedMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    closed = kantorovich_reference(emp, GaussianLaw(1.0))
    brute = kantorovich_bruteforce(emp, GaussianLaw(1.0))

    def femp(x):
        return 0.0 if x < -1 else (0.5 if x < 1 else 1.0)
    pieces = [(-30, -1), (-1, 0), (0, 1), (1, 30)]
    independent = sum(quad(lambda x: abs(femp(x) - scipy_ndtr(x)), a, b,
                           limit=500, epsabs=1e-13)[0] for a, b in pieces)
    assert closed == pytest.approx(TWO_ATOM_KAPPA, abs=1e-9)
    assert brute == pytest.approx(TWO_ATOM_KAPPA, abs=1e-8)
    assert independent == pytest.approx(TWO_ATOM_KAPPA, abs=1e-10)


def test_kappa_dirac_translation():
    assert _kappa([2.5], DiracLaw(0.75)) == pytest.approx(1.75, abs=1e-12)


def test_far_atom_asymptotics():
    assert _kappa([1e6], GaussianLaw(1.0)) == pytest.approx(1e6, abs=1.0)
    assert kantorovich_bruteforce(WeightedMeasure.harmonic([1e6]), GaussianLaw(1.0)) == \
        pytest.approx(1e6, abs=1e-3)


def test_kappa_half_gaussian_point_mass():
    # kappa(delta_0, G(sigma)) is the half-Gaussian mean sigma*sqrt(2/pi)
    assert _kappa([0.0], HalfGaussianLaw(0.5)) == pytest.approx(
        0.5 * math.sqrt(2.0 / math.pi), abs=1e-12)


# -- oracle equivalence and structural invariants ----------------------------

def _random_atoms(rng, max_atoms=1000):
    n = int(rng.integers(1, max_atoms + 1))
    return rng.normal(loc=rng.normal() * 0.5, scale=0.3 + rng.random() * 2.0, size=n)


def test_oracle_equivalence_100_random_measures():
    rng = np.random.default_rng(20240817)
    for trial in range(100):
        x = _random_atoms(rng)
        law = GaussianLaw(0.4 + 2.0 * rng.random()) if trial % 3 else \
            HalfGaussianLaw(0.4 + 1.5 * rng.random())
        closed = _kappa(x, law)
        brute = kantorovich_bruteforce(WeightedMeasure.harmonic(x), law)
        assert abs(closed - brute) < 1e-8, f"trial {trial}: {closed} vs {brute}"


def test_scale_equivariance():
    rng = np.random.default_rng(11)
    x = _random_atoms(rng, max_atoms=200)
    base = _kappa(x, GaussianLaw(0.8))
    for s in (0.5, 2.0, 10.0):
        assert _kappa(x * s, GaussianLaw(0.8 * s)) == pytest.approx(
            s * base, abs=1e-9 * max(1.0, s))


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = _random_atoms(rng, max_atoms=100)
        mid = as_interpolated_law(WeightedMeasure.harmonic(x))
        gauss = GaussianLaw(0.5 + rng.random())
        d_direct = _kappa(x, gauss)
        d_via_mid = _kappa(x, mid)
        # law-to-law leg by quadrature, one smooth piece per node interval
        lo = min(float(np.min(x)), -10.0 * gauss.sigma) - 1.0
        hi = max(float(np.max(x)), 10.0 * gauss.sigma) + 1.0
        cuts = [lo] + [float(x) for x in mid.xs if lo < x < hi] + [hi]
        leg = sum(quad(lambda x: abs(mid.cdf_float(x) - gauss.cdf_float(x)),
                       a, b, limit=60)[0]
                  for a, b in zip(cuts[:-1], cuts[1:]))
        assert d_direct <= d_via_mid + leg + 1e-9


def test_law_vs_own_sample():
    rng = np.random.default_rng(99)
    n = 10_000
    sample = rng.normal(scale=1.0, size=n)
    # weights 1/n: no ladder checkpoint, so the first closed form, which
    # the quadrature oracle checks at these weights
    emp = WeightedMeasure(sample, np.full(n, 1.0 / n))
    closed = kantorovich_reference(emp, GaussianLaw(1.0))
    assert closed < 0.02
    assert closed == pytest.approx(kantorovich_bruteforce(emp, GaussianLaw(1.0)), abs=1e-8)


# -- the stable sort and the first closed-form kernel ----------------------------

def _small_integers_over(den):
    return st.lists(st.integers(-6, 6), min_size=1, max_size=300).map(
        lambda v: np.array(v, dtype=float) / den)


_SORT_INPUTS = st.one_of(
    _small_integers_over(3.0),
    _small_integers_over(7.0),
    st.lists(st.sampled_from([-0.0, 0.0, -1.0, 1.0]), min_size=1, max_size=300).map(np.array),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
             max_size=300).map(np.array),
)


def _running_maxima(steps):
    """Running maxima of the walk of `steps` over sqrt(k), as the maxima
    atoms are: long descending runs between records, ties at 0.0 while the
    maximum is 0, and -0.0 there after a step down."""
    top = np.maximum.accumulate(np.cumsum(steps))
    x = top / np.sqrt(np.arange(1.0, len(steps) + 1))
    x[(top == 0) & (steps < 0)] = -0.0
    return x


def _ascents_below_threshold(x):
    return np.count_nonzero(x[1:] > x[:-1]) < len(x) / 16


@settings(max_examples=300, deadline=None)
@given(x=_SORT_INPUTS,
       arrange=st.sampled_from(["drawn", "sorted", "reversed", "constant", "runs"]))
@example(x=np.array([0.25]), arrange="drawn")
@example(x=np.array([0.0, -0.0, 1.0 / 3.0, 0.0, -0.0, 1.0 / 3.0]), arrange="drawn")
@example(x=np.full(40, 2.5), arrange="constant")
@example(x=np.arange(50) / 7.0 % 1.0, arrange="reversed")
# a walk that only climbs (an ascent a step), and one that stays at or
# below 0 (ties at 0.0 and -0.0) before a record that it falls back from
@example(x=np.full(64, 1.0), arrange="runs")
@example(x=np.concatenate(([-1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0],
                           np.tile([1.0, -1.0, -1.0, 1.0], 40))), arrange="runs")
def test_stable_argsort_is_numpy_stable_argsort(x, arrange):
    if arrange == "sorted":
        x = np.sort(x)
    elif arrange == "reversed":
        x = np.sort(x)[::-1].copy()
    elif arrange == "constant":
        x = np.full(len(x), x[0])
    elif arrange == "runs":
        x = _running_maxima(np.where(x < 0.0, -1.0, 1.0))
    order, xs = _stable_argsort(x)
    assert np.array_equal(order, np.argsort(x, kind="stable"))
    assert xs.tobytes() == x[order].tobytes()


def test_stable_argsort_on_running_maxima_either_side_of_the_threshold():
    # walks with a drift up have many records (an ascent each), driftless
    # ones few: both sorts must give the stable order and the values' bits
    rng = np.random.default_rng(23)
    sides = set()
    for trial in range(40):
        n = int(rng.integers(2, 20_000))
        up = (0.5, 0.52, 0.6, 0.9)[trial % 4]
        x = _running_maxima(np.where(rng.random(n) < up, 1.0, -1.0))
        sides.add(_ascents_below_threshold(x))
        order, xs = _stable_argsort(x)
        assert np.array_equal(order, np.argsort(x, kind="stable")), trial
        assert xs.tobytes() == x[order].tobytes(), trial
    assert sides == {True, False}


def test_stable_argsort_on_tie_heavy_inputs():
    # long and short runs, -0.0 next to 0.0, and doubling/coin atoms, whose
    # S_k = 0 ties at 0.0
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(2, 20_000))
        x = rng.integers(-int(rng.integers(1, 60)), 60, n) / 3.0
        x[(x == 0.0) & (rng.random(n) < 0.5)] = -0.0
        order, xs = _stable_argsort(x)
        assert np.array_equal(order, np.argsort(x, kind="stable")), trial
        assert xs.tobytes() == x[order].tobytes(), trial
    x = normalized_statistic_atoms(make_map("doubling"), coin(), 200_000, 1)
    assert not _ascents_below_threshold(x)
    tracemalloc.start()
    order, xs = _stable_argsort(x)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert np.array_equal(order, np.argsort(x, kind="stable"))
    assert xs.tobytes() == x[order].tobytes()
    # the order, the sorted values and the tie mask (17 B per atom), and
    # bookkeeping over the tied places only (35 B per atom over every atom)
    assert peak / len(x) <= 18.0


def test_kantorovich_equals_first_kernel_bitwise():
    rng = np.random.default_rng(314)
    for trial in range(200):
        n = int(rng.integers(1, 2000))
        if trial % 4 == 0:
            x = rng.normal(size=n)                      # distinct atoms, no merge
        else:
            x = rng.integers(-40, 41, n) / (3.0 if trial % 2 else 7.0)
            x[rng.random(n) < 0.1] = -0.0               # -0.0 ties 0.0
        law = GaussianLaw(0.3 + rng.random()) if trial % 3 else \
            HalfGaussianLaw(0.3 + rng.random())
        ref = kantorovich_reference(WeightedMeasure.harmonic(x), law)
        assert _kappa(x, law).hex() == ref.hex(), trial


@pytest.mark.parametrize("obs", [sawtooth, coin], ids=["sawtooth", "coin"])
def test_ladder_on_doubling_atoms_equals_first_kernel(obs):
    # coin's S_k = 0 puts many tied atoms at 0.0, and running maxima tie more
    doubling = make_map("doubling")
    for running_max, law in ((False, GaussianLaw(0.5)), (True, HalfGaussianLaw(0.5))):
        atoms = normalized_statistic_atoms(doubling, obs(), 300_000, 1,
                                           running_max=running_max)
        cps, kappas = kantorovich_ladder(atoms, law)
        ref = [kantorovich_reference(WeightedMeasure.harmonic(atoms, m), law) for m in cps]
        assert kappas.tobytes() == np.array(ref).tobytes()


def test_bruteforce_cutoff_guard():
    with pytest.raises(ValueError):
        kantorovich_bruteforce(WeightedMeasure.harmonic([50.0]), GaussianLaw(1.0), cutoff=5.0)


# -- checkpoint ladder ---------------------------------------------------------

def test_ladder_equals_per_checkpoint_distances():
    # drawn atoms, and the same rounded to thirds with some zeros signed
    rng = np.random.default_rng(5)
    drawn = rng.normal(size=3000)
    tied = np.round(drawn * 3.0) / 3.0
    tied[(tied == 0.0) & (rng.random(3000) < 0.5)] = -0.0
    law = GaussianLaw(0.8)
    for atoms in (drawn, tied):
        cps, kappas = kantorovich_ladder(atoms, law, [10, 500, 3000])
        assert cps.tolist() == [10, 500, 3000]
        alone = [_kappa(atoms[:m], law) for m in cps]
        ref = [kantorovich_reference(WeightedMeasure.harmonic(atoms, m), law) for m in cps]
        assert kappas.tobytes() == np.array(alone).tobytes() == np.array(ref).tobytes()
    cps, _ = kantorovich_ladder(drawn, law)
    assert np.array_equal(cps, default_checkpoints(3000))


def test_masked_ladder_drops_atoms_and_their_weights():
    rng = np.random.default_rng(6)
    atoms = rng.normal(size=3000)
    keep = rng.random(3000) < 0.3
    keep[:20] = False
    law = HalfGaussianLaw(1.3)
    cps = [50, 1000, 3000]
    _, kappas = kantorovich_ladder(np.abs(atoms), law, cps, keep)
    alone = [kantorovich_ladder(np.abs(atoms[:m]), law, [m], keep[:m])[1][0] for m in cps]
    ref = [kantorovich_reference(WeightedMeasure.harmonic(np.abs(atoms), m, keep), law)
           for m in cps]
    assert kappas.tobytes() == np.array(alone).tobytes() == np.array(ref).tobytes()
    with pytest.raises(DomainError):
        kantorovich_ladder(atoms, law, [10, 3000], keep)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("masked", [False, True])
def test_ladder_refuses_a_non_finite_atom_past_its_first_checkpoint(bad, masked):
    # the checkpoints' measures carry the ladder's sorted view, and each still
    # checks its own atoms: the last checkpoint holds atom 700, the first not
    atoms = np.random.default_rng(8).normal(size=1000)
    atoms[700] = bad
    keep = np.ones(1000, dtype=bool) if masked else None
    with pytest.raises(DomainError, match="non-finite"):
        kantorovich_ladder(atoms, GaussianLaw(1.0), [500, 1000], keep)
    # without the last checkpoint the same atoms give the first one's kappa
    _, (kappa,) = kantorovich_ladder(atoms, GaussianLaw(1.0), [500], keep)
    assert kappa == _kappa(atoms[:500], GaussianLaw(1.0))
    assert kappa == kantorovich_reference(WeightedMeasure.harmonic(atoms, 500), GaussianLaw(1.0))


@pytest.mark.parametrize("bad", [[5000, 1000], [1000, 1000], [0, 5000], [-3], [10, 5001]])
def test_ladder_refuses_checkpoints_out_of_order_or_out_of_range(bad):
    # a ladder run on [5000, 1000] would label the first 1000 atoms'
    # distance, 0.71698, with checkpoint 5000, whose measure is at 0.19176
    atoms = np.random.default_rng(1).normal(size=5000)
    law = GaussianLaw(1.0)
    with pytest.raises(ConfigError, match="increase strictly"):
        kantorovich_ladder(atoms, law, bad)
    _, (kappa,) = kantorovich_ladder(atoms, law, [5000])
    assert kappa == kantorovich_reference(WeightedMeasure.harmonic(atoms, 5000), law)


@pytest.mark.parametrize("bad", [[10.7, 99.9], [10, 50.5], [np.nan], [10, np.inf]])
def test_ladder_refuses_checkpoints_that_are_not_whole_numbers(bad):
    # [10.7, 99.9] used to run as [10, 99], labelled as neither
    atoms = np.random.default_rng(1).normal(size=100)
    with pytest.raises(ConfigError, match="not whole numbers") as refused:
        kantorovich_ladder(atoms, GaussianLaw(1.0), bad)
    assert str([v for v in bad if not float(v).is_integer()]) in str(refused.value)
    assert checkpoints_within(100, [10.0, 99.0]).tolist() == [10, 99]


def test_ladder_takes_any_sequence_of_atoms():
    # a list (of floats or ints) gives the kappas of the float64 array
    atoms = np.random.default_rng(2).normal(size=2000)
    law = GaussianLaw(1.0)
    cps, kappas = kantorovich_ladder(atoms, law, [100, 2000])
    for seq in (atoms.tolist(), tuple(atoms)):
        got = kantorovich_ladder(seq, law, [100, 2000])
        assert got[0].tolist() == cps.tolist() and got[1].tobytes() == kappas.tobytes()
    whole = np.round(atoms * 4.0)
    assert (kantorovich_ladder(whole.astype(int).tolist(), law, [2000])[1].tobytes()
            == kantorovich_ladder(whole, law, [2000])[1].tobytes())


@pytest.fixture(scope="module")
def two_slope():
    pmap = make_map("custom", breakpoints=[0.0, 1.0 / 3.0, 1.0], slopes=[3.0, 1.5])
    return pmap, entropy_constants(pmap, ulam_matrix(pmap, N=256))


def test_every_runner_defaults_an_empty_ladder_and_refuses_a_bad_one_first(
        monkeypatch, two_slope):
    # an empty ladder is the default one, for the ladder and for the four
    # runs; a bad one is refused before any orbit work
    pmap, consts = two_slope
    doubling = make_map("doubling")
    runs = {
        "asclt": lambda cps: asclt_run(doubling, sawtooth(), 2000, 1, cps, sigma2=0.25),
        "maxima": lambda cps: maxima_run(doubling, coin(), 2000, 1, cps, sigma2=0.25),
        "smb": lambda cps: smb_run(pmap, consts, 500, 1, checkpoints=cps),
        "ow": lambda cps: ow_run(pmap, consts, 12, 1, checkpoints=cps),
    }
    for name, run in runs.items():
        default, empty = run(None), run([])
        assert np.array_equal(empty.checkpoints, default.checkpoints), name
        assert empty.kappa_values.tobytes() == default.kappa_values.tobytes(), name
    atoms = np.random.default_rng(2).normal(size=2000)
    cps, kappas = kantorovich_ladder(atoms, GaussianLaw(1.0), [])
    assert cps.tolist() == [1000, 2000]
    assert kappas.tobytes() == kantorovich_ladder(atoms, GaussianLaw(1.0))[1].tobytes()

    def no_orbit(*args, **kwargs):
        raise AssertionError("orbit work before the ladder was checked")
    monkeypatch.setattr(asclt, "orbit_value_chunks", no_orbit)
    monkeypatch.setattr(entropy, "orbit", no_orbit)
    monkeypatch.setattr(entropy, "symbol_chunks", no_orbit)
    for bad in ([0, 10], [10, 5], [10, 10], [5, 100_000]):
        for name, run in runs.items():
            with pytest.raises(ConfigError, match="increase strictly"):
                run(bad)
        with pytest.raises(ConfigError, match="increase strictly"):
            kantorovich_ladder(atoms, GaussianLaw(1.0), bad)


@pytest.mark.parametrize("block", [1, 2, 3, 64])
def test_ladder_blocks_equal_first_kernel(monkeypatch, block):
    # the segment kernel and the law evaluations at block lengths that put
    # block boundaries everywhere: inside tie runs (coin's S_k = 0, half of
    # them signed -0.0), in running-maximum atoms, on crossing segments and
    # in a masked ladder whose censored atoms are NaN
    monkeypatch.setattr(measures, "_SEGMENT_BLOCK", block)
    monkeypatch.setattr(measures, "_LAW_BLOCK", block)
    crossings = []
    inverse = measures.Law.cdf_inverse_in

    def counted(law, a, b, p):
        crossings.append(np.size(p))
        return inverse(law, a, b, p)
    monkeypatch.setattr(measures.Law, "cdf_inverse_in", counted)

    n, cps = 2000, [5, 64, 700, 2000]
    doubling = make_map("doubling")
    tied = normalized_statistic_atoms(doubling, coin(), n, 3)
    zeros = np.flatnonzero(tied == 0.0)
    assert len(zeros) >= 8
    tied[zeros[::2]] = -0.0
    maxima = normalized_statistic_atoms(doubling, sawtooth(), n, 3, running_max=True)
    rng = np.random.default_rng(11)
    drawn = rng.normal(size=n)
    keep = rng.random(n) < 0.4
    keep[:3] = True
    censored = np.where(keep, np.abs(drawn), np.nan)
    cases = [("tied", tied, GaussianLaw(1.0), None),
             ("maxima", maxima, HalfGaussianLaw(0.5), None),
             ("drawn", drawn, GaussianLaw(0.9), None),
             ("masked", censored, HalfGaussianLaw(1.3), keep)]
    for name, atoms, law, mask in cases:
        crossings.clear()
        _, kappas = kantorovich_ladder(atoms, law, cps, mask)
        ref = [kantorovich_reference(WeightedMeasure.harmonic(atoms, m, mask), law)
               for m in cps]
        assert kappas.tobytes() == np.array(ref).tobytes(), name
        if name == "drawn":
            assert sum(crossings) > 10
