import tracemalloc
from functools import partial

import numpy as np
import pytest

from ergostat import asclt
from ergostat.errors import DegenerateVarianceError
from ergostat.maps import (
    Observable,
    coboundary,
    coin,
    make_map,
    orbit_value_chunks,
    sawtooth,
)
from ergostat.asclt import (
    asclt_run,
    maxima_run,
    normalized_statistic_atoms,
    AscltDiagnostics,
)
from ergostat.measures import (
    GaussianLaw,
    HalfGaussianLaw,
    default_checkpoints,
    kantorovich_ladder,
)
from ergostat.transfer import green_kubo_sigma2, ulam_matrix
from oracles import (
    WeightedMeasure,
    kantorovich_reference,
    left_tail,
    rate_diagnostic,
    right_tail,
    statistic_atoms_reference,
)


@pytest.fixture(scope="module")
def doubling():
    return make_map("doubling")


def test_default_checkpoints_ladder():
    cps = default_checkpoints(10**6)
    assert cps[0] == 1000 and cps[-1] == 10**6
    assert np.all(np.diff(cps) > 0)
    assert default_checkpoints(500).tolist() == [500]


def test_small_run_matches_direct_construction(doubling):
    u = sawtooth()
    diag = asclt_run(doubling, u, 4, seed=5, checkpoints=[4], sigma2=0.25)
    atoms = normalized_statistic_atoms(doubling, u, 4, seed=5)
    assert diag.kappa_values[0] == kantorovich_reference(WeightedMeasure.harmonic(atoms),
                                                         GaussianLaw(0.5))


def test_incremental_equals_rebuild(doubling):
    u = sawtooth()
    long = asclt_run(doubling, u, 5000, seed=2, checkpoints=[1000, 5000], sigma2=0.25)
    short = asclt_run(doubling, u, 1000, seed=2, checkpoints=[1000], sigma2=0.25)
    assert long.kappa_values[0] == short.kappa_values[0]


def test_determinism_bit_identical(doubling):
    a = asclt_run(doubling, sawtooth(), 20_000, seed=9, sigma2=0.25,
                  checkpoints=[1000, 20_000])
    b = asclt_run(doubling, sawtooth(), 20_000, seed=9, sigma2=0.25,
                  checkpoints=[1000, 20_000])
    assert np.array_equal(a.kappa_values, b.kappa_values)
    assert np.array_equal(a.normalized_rates, b.normalized_rates)


def test_coboundary_refused(doubling):
    u = coboundary(doubling)
    with pytest.warns(UserWarning, match="numerically zero"):
        sigma2 = green_kubo_sigma2(ulam_matrix(doubling, N=1024), u)
    with pytest.raises(DegenerateVarianceError):
        asclt_run(doubling, u, 2000, seed=1, checkpoints=[1000], sigma2=sigma2)


@pytest.mark.parametrize("runner", [asclt_run, maxima_run])
def test_refusal_floor(doubling, runner):
    with pytest.raises(DegenerateVarianceError):
        runner(doubling, sawtooth(), 1000, seed=1, sigma2=1e-6)
    diag = runner(doubling, sawtooth(), 1000, seed=1, sigma2=2e-6)
    assert diag.sigma_used == np.sqrt(2e-6)


def test_running_maxima_nondecreasing_and_positive_case(doubling):
    u = sawtooth()
    atoms_max = normalized_statistic_atoms(doubling, u, 3000, seed=4, running_max=True)
    k = np.arange(1, 3001)
    smax = atoms_max * np.sqrt(k)
    assert np.all(np.diff(smax) >= -1e-12)

    # nonnegative observable: S*_k = S_k, so the two atom streams coincide
    pos = Observable("pos", lambda x: np.asarray(x, float) + 0.1)
    a1 = normalized_statistic_atoms(doubling, pos, 2000, seed=3)
    a2 = normalized_statistic_atoms(doubling, pos, 2000, seed=3, running_max=True)
    assert np.array_equal(a1, a2)


def test_maxima_run_single_step(doubling):
    diag = maxima_run(doubling, coin(), 4, seed=8, checkpoints=[4], sigma2=0.25)
    assert diag.kappa_values[0] >= 0


def test_single_atom_maxima_measure(doubling):
    # M_1 is the point mass at S_1; its distance to the limit law is the
    # direct single-atom computation
    atom = normalized_statistic_atoms(doubling, coin(), 1, seed=8, running_max=True)
    (direct,) = kantorovich_ladder(atom, HalfGaussianLaw(0.5), [1])[1]
    assert direct >= 0
    law = HalfGaussianLaw(0.5)
    s1 = float(atom[0])
    expected = float(left_tail(law, s1) + right_tail(law, s1)) if s1 >= 0 else \
        -s1 + float(right_tail(law, 0.0))
    assert direct == pytest.approx(expected, abs=1e-12)


def test_maxima_atoms_dominate_sum_atoms(doubling):
    a_sum = normalized_statistic_atoms(doubling, sawtooth(), 5000, seed=6)
    a_max = normalized_statistic_atoms(doubling, sawtooth(), 5000, seed=6,
                                       running_max=True)
    assert np.all(a_max >= a_sum)
    assert a_max.min() >= a_sum.min()


def test_median_kappa_decreases(doubling):
    k_lo, k_hi = [], []
    for seed in range(1, 11):
        diag = asclt_run(doubling, sawtooth(), 100_000, seed,
                         checkpoints=[1000, 100_000], sigma2=0.25)
        k_lo.append(diag.kappa_values[0])
        k_hi.append(diag.kappa_values[1])
    assert np.median(k_hi) < np.median(k_lo)


def test_rate_diagnostic_synthetic():
    # constant kappa: the normalization (log n)^(1/3)/sqrt(log log n) grows
    # without bound, but so slowly that the spread must be astronomical
    cps = np.array([1e3, 1e10, 1e30, 1e300])
    norm = np.cbrt(np.log(cps)) / np.sqrt(np.log(np.log(cps)))
    diag = AscltDiagnostics(seed=0, sigma_used=1.0,
                            checkpoints=cps,
                            kappa_values=np.full(4, 0.2),
                            normalized_rates=0.2 * norm)
    seq, verdict = rate_diagnostic(diag)
    assert verdict == "unbounded"

    # kappa tracking the theoretical rate: normalized sequence is constant
    kappa = 1.0 / norm
    diag2 = AscltDiagnostics(seed=0, sigma_used=1.0,
                             checkpoints=cps,
                             kappa_values=kappa,
                             normalized_rates=kappa * norm)
    seq2, verdict2 = rate_diagnostic(diag2)
    assert np.allclose(seq2, 1.0)
    assert verdict2 == "bounded"


def test_rate_diagnostic_real_run_bounded(doubling):
    diag = asclt_run(doubling, sawtooth(), 10**5, seed=12, sigma2=0.25)
    _, verdict = rate_diagnostic(diag)
    assert verdict == "bounded"


def test_checkpoint_validation(doubling):
    with pytest.raises(ValueError):
        asclt_run(doubling, sawtooth(), 100, seed=1, checkpoints=[50, 200], sigma2=0.25)
    with pytest.raises(ValueError):
        AscltDiagnostics(seed=0, sigma_used=1.0,
                         checkpoints=np.array([2, 10]),
                         kappa_values=np.array([0.1, 0.1]),
                         normalized_rates=np.array([0.1, 0.1]))


STREAM_MAPS = {
    "doubling": {"name": "doubling"},                                 # symbolic
    "perturbed": {"name": "perturbed-doubling", "eps": 0.05},         # float
    "3-1.5": {"name": "custom", "breakpoints": [0.0, 1.0 / 3.0, 1.0],  # float
              "slopes": [3.0, 1.5]},
}


@pytest.mark.parametrize("chunk", [1, 7, 4096, None], ids=["1", "7", "4096", "n"])
@pytest.mark.parametrize("name", list(STREAM_MAPS))
def test_streamed_atoms_equal_whole_array_atoms(monkeypatch, name, chunk):
    # the atoms stream orbit chunk by orbit chunk, carrying the sum and the
    # running maximum into each chunk's first entry; at every chunk size they
    # are the whole-array atoms bit for bit
    spec = dict(STREAM_MAPS[name])
    pmap = make_map(spec.pop("name"), **spec)
    n, seed = 3000, 5
    monkeypatch.setattr(asclt, "orbit_value_chunks",
                        partial(orbit_value_chunks, chunk=chunk or n))
    for u in (sawtooth(), coin()):
        for running_max in (False, True):
            got = normalized_statistic_atoms(pmap, u, n, seed, running_max=running_max)
            ref = statistic_atoms_reference(pmap, u, n, seed, running_max=running_max)
            assert got.tobytes() == ref.tobytes(), (u.name, running_max)
        if chunk == 7:
            # a plateau of the running maximum crosses a chunk boundary
            smax = np.maximum.accumulate(np.cumsum(
                np.concatenate(list(orbit_value_chunks(pmap, u, seed, n)))))
            assert np.any(smax[6:-1:7] == smax[7::7])


@pytest.mark.parametrize("runner", [asclt_run, maxima_run])
def test_traced_memory_per_atom(doubling, runner):
    # numpy reports its buffers to tracemalloc, so the peak is a count of
    # bytes: the atoms stream into one array, the ladder frees them once
    # sorted and keeps four columns of 8 B per atom, and its kernel and law
    # evaluations run in blocks (92 B per atom with whole-array temporaries)
    n = 200_000
    tracemalloc.start()
    try:
        runner(doubling, sawtooth(), n, seed=1, sigma2=0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 48.0
