import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ergostat.asclt import normalized_statistic_atoms
from ergostat.errors import DomainError
from ergostat.maps import coin, make_map, sawtooth
from scipy.special import ndtr as scipy_ndtr

from ergostat.measures import (
    _SCALAR_MAX,
    GaussianLaw,
    HalfGaussianLaw,
    WeightedEmpiricalMeasure,
    _libm_exp,
    _ndtr_float,
    _stable_argsort,
    build_empirical,
    default_checkpoints,
    kantorovich,
    kantorovich_ladder,
    ndtr,
)
from oracles import (
    DiracLaw,
    InterpolatedLaw,
    as_interpolated_law,
    bisection_reference,
    kantorovich_bruteforce,
    kantorovich_reference,
    law_cdf,
    normalized_weights,
    support,
)

EULER_GAMMA = 0.5772156649015329


# -- weighted empirical measures --------------------------------------------

def test_build_empirical_merges_equal_atoms():
    emp = build_empirical([0.0, 0.0, 0.0], 3)
    assert support(emp).tolist() == [0.0]
    assert emp.normalizer == pytest.approx(11.0 / 6.0, abs=1e-12)
    assert normalized_weights(emp).sum() == pytest.approx(1.0, abs=1e-12)


def test_harmonic_normalizer_large_n():
    emp = build_empirical(np.zeros(10**6), 10**6)
    assert emp.normalizer == pytest.approx(math.log(10**6) + EULER_GAMMA, abs=1e-6)


def test_single_atom_measure():
    emp = build_empirical([3.25], 1)
    assert emp.normalizer == 1.0
    assert len(emp.positions) == 1
    assert support(emp).tolist() == [3.25]


def test_total_mass_normalized():
    rng = np.random.default_rng(3)
    emp = build_empirical(rng.normal(size=500), 500)
    assert abs(normalized_weights(emp).sum() - 1.0) < 1e-12


def test_non_finite_atoms_rejected():
    with pytest.raises(DomainError):
        WeightedEmpiricalMeasure(np.array([0.0, np.nan]), np.array([1.0, 0.5]))


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
    emp = build_empirical([0.0], 1)
    # E|Z| = sqrt(2/pi)
    assert kantorovich(emp, GaussianLaw(1.0)) == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=1e-9)


TWO_ATOM_KAPPA = 0.5353773215478800


def test_two_atom_value_oracle():
    emp = WeightedEmpiricalMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    closed = kantorovich(emp, GaussianLaw(1.0))
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
    emp = build_empirical([2.5], 1)
    assert kantorovich(emp, DiracLaw(0.75)) == pytest.approx(1.75, abs=1e-12)


def test_far_atom_asymptotics():
    emp = build_empirical([1e6], 1)
    assert kantorovich(emp, GaussianLaw(1.0)) == pytest.approx(1e6, abs=1.0)
    assert kantorovich_bruteforce(emp, GaussianLaw(1.0)) == pytest.approx(1e6, abs=1e-3)


def test_kappa_half_gaussian_point_mass():
    # kappa(delta_0, G(sigma)) is the half-Gaussian mean sigma*sqrt(2/pi)
    emp = build_empirical([0.0], 1)
    assert kantorovich(emp, HalfGaussianLaw(0.5)) == pytest.approx(
        0.5 * math.sqrt(2.0 / math.pi), abs=1e-12)


# -- oracle equivalence and structural invariants ----------------------------

def _random_measure(rng, max_atoms=1000):
    n = int(rng.integers(1, max_atoms + 1))
    values = rng.normal(loc=rng.normal() * 0.5, scale=0.3 + rng.random() * 2.0, size=n)
    return build_empirical(values, n)


def test_oracle_equivalence_100_random_measures():
    rng = np.random.default_rng(20240817)
    for trial in range(100):
        emp = _random_measure(rng)
        law = GaussianLaw(0.4 + 2.0 * rng.random()) if trial % 3 else \
            HalfGaussianLaw(0.4 + 1.5 * rng.random())
        closed = kantorovich(emp, law)
        brute = kantorovich_bruteforce(emp, law)
        assert abs(closed - brute) < 1e-8, f"trial {trial}: {closed} vs {brute}"


def test_scale_equivariance():
    rng = np.random.default_rng(11)
    emp = _random_measure(rng, max_atoms=200)
    base = kantorovich(emp, GaussianLaw(0.8))
    for s in (0.5, 2.0, 10.0):
        scaled = WeightedEmpiricalMeasure(emp.positions * s, emp.weights)
        assert kantorovich(scaled, GaussianLaw(0.8 * s)) == pytest.approx(
            s * base, abs=1e-9 * max(1.0, s))


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        emp = _random_measure(rng, max_atoms=100)
        mid = as_interpolated_law(emp)
        gauss = GaussianLaw(0.5 + rng.random())
        d_direct = kantorovich(emp, gauss)
        d_via_mid = kantorovich(emp, mid)
        # law-to-law leg by quadrature, one smooth piece per node interval
        lo = min(float(support(emp)[0]), -10.0 * gauss.sigma) - 1.0
        hi = max(float(support(emp)[-1]), 10.0 * gauss.sigma) + 1.0
        cuts = [lo] + [float(x) for x in mid.xs if lo < x < hi] + [hi]
        leg = sum(quad(lambda x: abs(mid.cdf_float(x) - gauss.cdf_float(x)),
                       a, b, limit=60)[0]
                  for a, b in zip(cuts[:-1], cuts[1:]))
        assert d_direct <= d_via_mid + leg + 1e-9


def test_law_vs_own_sample():
    rng = np.random.default_rng(99)
    n = 10_000
    sample = rng.normal(scale=1.0, size=n)
    emp = WeightedEmpiricalMeasure(sample, np.full(n, 1.0 / n))
    assert kantorovich(emp, GaussianLaw(1.0)) < 0.02


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


@settings(max_examples=300, deadline=None)
@given(x=_SORT_INPUTS, arrange=st.sampled_from(["drawn", "sorted", "reversed", "constant"]))
@example(x=np.array([0.25]), arrange="drawn")
@example(x=np.array([0.0, -0.0, 1.0 / 3.0, 0.0, -0.0, 1.0 / 3.0]), arrange="drawn")
@example(x=np.full(40, 2.5), arrange="constant")
@example(x=np.arange(50) / 7.0 % 1.0, arrange="reversed")
def test_stable_argsort_is_numpy_stable_argsort(x, arrange):
    if arrange == "sorted":
        x = np.sort(x)
    elif arrange == "reversed":
        x = np.sort(x)[::-1].copy()
    elif arrange == "constant":
        x = np.full(len(x), x[0])
    assert np.array_equal(_stable_argsort(x), np.argsort(x, kind="stable"))


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
        emp = build_empirical(x)
        assert kantorovich(emp, law).hex() == kantorovich_reference(emp, law).hex(), trial


@pytest.mark.parametrize("obs", [sawtooth, coin], ids=["sawtooth", "coin"])
def test_ladder_on_doubling_atoms_equals_first_kernel(obs):
    # coin's S_k = 0 puts many tied atoms at 0.0, and running maxima tie more
    doubling = make_map("doubling")
    for running_max, law in ((False, GaussianLaw(0.5)), (True, HalfGaussianLaw(0.5))):
        atoms = normalized_statistic_atoms(doubling, obs(), 300_000, 1,
                                           running_max=running_max)
        cps, kappas = kantorovich_ladder(atoms, law)
        ref = [kantorovich_reference(build_empirical(atoms, m), law) for m in cps]
        assert kappas.tobytes() == np.array(ref).tobytes()


def test_bruteforce_cutoff_guard():
    emp = build_empirical([50.0], 1)
    with pytest.raises(ValueError):
        kantorovich_bruteforce(emp, GaussianLaw(1.0), cutoff=5.0)


# -- checkpoint ladder ---------------------------------------------------------

def test_ladder_equals_per_checkpoint_distances():
    rng = np.random.default_rng(5)
    atoms = rng.normal(size=3000)
    law = GaussianLaw(0.8)
    cps, kappas = kantorovich_ladder(atoms, law, [10, 500, 3000])
    assert cps.tolist() == [10, 500, 3000]
    for m, kappa in zip(cps, kappas):
        assert kappa == kantorovich(build_empirical(atoms, m), law)
    cps, _ = kantorovich_ladder(atoms, law)
    assert np.array_equal(cps, default_checkpoints(3000))


def test_masked_ladder_drops_atoms_and_their_weights():
    rng = np.random.default_rng(6)
    atoms = rng.normal(size=3000)
    keep = rng.random(3000) < 0.3
    keep[:20] = False
    law = HalfGaussianLaw(1.3)
    _, kappas = kantorovich_ladder(np.abs(atoms), law, [50, 1000, 3000], keep)
    weights = 1.0 / np.arange(1, 3001)
    for m, kappa in zip([50, 1000, 3000], kappas):
        sel = keep[:m]
        emp = WeightedEmpiricalMeasure(np.abs(atoms[:m][sel]), weights[:m][sel])
        assert kappa == kantorovich(emp, law)
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
    assert kappa == kantorovich(build_empirical(atoms, 500), GaussianLaw(1.0))
