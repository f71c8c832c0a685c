import math

import numpy as np
import pytest
from scipy.integrate import quad

from ergostat.measures import (
    DiracLaw,
    GaussianLaw,
    HalfGaussianLaw,
    WeightedEmpiricalMeasure,
    build_empirical,
    kantorovich,
    kantorovich_bruteforce,
)

EULER_GAMMA = 0.5772156649015329


# -- weighted empirical measures --------------------------------------------

def test_build_empirical_merges_equal_atoms():
    emp = build_empirical([0.0, 0.0, 0.0], 3)
    assert emp.support().tolist() == [0.0]
    assert emp.normalizer == pytest.approx(11.0 / 6.0, abs=1e-12)
    assert emp.normalized_weights().sum() == pytest.approx(1.0, abs=1e-12)


def test_harmonic_normalizer_large_n():
    emp = build_empirical(np.zeros(10**6), 10**6)
    assert emp.normalizer == pytest.approx(math.log(10**6) + EULER_GAMMA, abs=1e-6)


def test_single_atom_measure():
    emp = build_empirical([3.25], 1)
    assert emp.normalizer == 1.0
    assert emp.n == 1
    assert emp.support().tolist() == [3.25]


def test_total_mass_normalized():
    rng = np.random.default_rng(3)
    emp = build_empirical(rng.normal(size=500), 500)
    assert abs(emp.normalized_weights().sum() - 1.0) < 1e-12


def test_non_finite_atoms_rejected():
    from ergostat.errors import DomainError
    with pytest.raises(DomainError):
        WeightedEmpiricalMeasure(np.array([0.0, np.nan]), np.array([1.0, 0.5]), 2)


# -- laws --------------------------------------------------------------------

def test_law_cdf_values():
    assert GaussianLaw(1.0).cdf(0.0) == pytest.approx(0.5)
    assert HalfGaussianLaw(1.0).cdf(0.0) == 0.0
    assert GaussianLaw(2.0).cdf(2.0) == pytest.approx(0.8413447460685429, abs=1e-9)


def test_half_gaussian_density_integrates_to_one():
    hg = HalfGaussianLaw(0.7)
    dens, _ = quad(lambda x: math.sqrt(2.0 / math.pi) / 0.7 * math.exp(-x * x / (2 * 0.49)),
                   0.0, 40.0)
    assert dens == pytest.approx(1.0, abs=1e-12)
    # CDF endpoints
    assert float(hg.cdf(-1.0)) == 0.0
    assert float(hg.cdf(50.0)) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_cdf_monotone_and_centered():
    g = GaussianLaw(1.3)
    xs = np.linspace(-8, 8, 1001)
    cdf = g.cdf(xs)
    assert np.all(np.diff(cdf) >= 0)
    assert float(g.cdf(0.0)) == pytest.approx(0.5)


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
    emp = WeightedEmpiricalMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 2)
    closed = kantorovich(emp, GaussianLaw(1.0))
    brute = kantorovich_bruteforce(emp, GaussianLaw(1.0))
    from scipy.special import ndtr
    def femp(x):
        return 0.0 if x < -1 else (0.5 if x < 1 else 1.0)
    pieces = [(-30, -1), (-1, 0), (0, 1), (1, 30)]
    independent = sum(quad(lambda x: abs(femp(x) - ndtr(x)), a, b,
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
        scaled = WeightedEmpiricalMeasure(emp.positions * s, emp.weights, emp.n)
        assert kantorovich(scaled, GaussianLaw(0.8 * s)) == pytest.approx(
            s * base, abs=1e-9 * max(1.0, s))


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        emp = _random_measure(rng, max_atoms=100)
        mid = emp.as_interpolated_law()
        gauss = GaussianLaw(0.5 + rng.random())
        d_direct = kantorovich(emp, gauss)
        d_via_mid = kantorovich(emp, mid)
        # law-to-law leg by quadrature, one smooth piece per node interval
        lo = min(float(emp.support()[0]), -10.0 * gauss.sigma) - 1.0
        hi = max(float(emp.support()[-1]), 10.0 * gauss.sigma) + 1.0
        cuts = [lo] + [float(x) for x in mid.xs if lo < x < hi] + [hi]
        leg = sum(quad(lambda x: abs(float(mid.cdf(x)) - float(gauss.cdf(x))),
                       a, b, limit=60)[0]
                  for a, b in zip(cuts[:-1], cuts[1:]))
        assert d_direct <= d_via_mid + leg + 1e-9


def test_law_vs_own_sample():
    rng = np.random.default_rng(99)
    n = 10_000
    sample = rng.normal(scale=1.0, size=n)
    emp = WeightedEmpiricalMeasure(sample, np.full(n, 1.0 / n), n)
    assert kantorovich(emp, GaussianLaw(1.0)) < 0.02


def test_bruteforce_cutoff_guard():
    emp = build_empirical([50.0], 1)
    with pytest.raises(ValueError):
        kantorovich_bruteforce(emp, GaussianLaw(1.0), cutoff=5.0)
