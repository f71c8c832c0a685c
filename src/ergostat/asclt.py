"""Almost-sure CLT experiments.

Along one orbit the normalized Birkhoff sums S_k/sqrt(k) (or running maxima
S*_k/sqrt(k)) are accumulated into the log-weighted empirical measure with
atom weights 1/k, and the Kantorovich distance to the limiting Gaussian
(resp. half-Gaussian) is evaluated at a ladder of checkpoints.  A single
trajectory can only be checked descriptively; almost-sure statements are
operationalized as multi-seed quantile tests by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .maps import Observable, PiecewiseMap, orbit_value_chunks
from .measures import GaussianLaw, HalfGaussianLaw, default_checkpoints, kantorovich_ladder
from .transfer import require_nondegenerate


@dataclass(frozen=True)
class AscltDiagnostics:
    """Kantorovich distances of the log-averaged empirical measure to its
    limit law at increasing checkpoints, with the rate normalization
    kappa * (log n)^(1/3) / sqrt(log log n)."""

    statistic: str                 # "birkhoff" or "maxima"
    seed: int
    sigma_used: float
    checkpoints: np.ndarray        # integer counts; synthetic diagnostics may
    kappa_values: np.ndarray       # carry float checkpoints beyond int range
    normalized_rates: np.ndarray

    def __post_init__(self):
        cps = np.asarray(self.checkpoints, dtype=float)
        if np.any(np.diff(cps) <= 0) or cps[0] < 4:
            raise ValueError("checkpoints must be strictly increasing with first >= 4")
        if np.any(self.kappa_values < 0):
            raise ValueError("negative Kantorovich distance")


def rate_normalization(n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    return np.cbrt(np.log(n)) / np.sqrt(np.log(np.log(n)))


def normalized_statistic_atoms(pmap: PiecewiseMap, u: Observable, n: int, seed: int,
                               running_max: bool = False) -> np.ndarray:
    """Atoms S_k/sqrt(k), k=1..n (or S*_k/sqrt(k) with the running maximum)."""
    vals = np.concatenate(list(orbit_value_chunks(pmap, u, seed, n)))
    s = np.cumsum(vals)
    if running_max:
        s = np.maximum.accumulate(s)
    return s / np.sqrt(np.arange(1, n + 1, dtype=float))


def checkpoint_ladder(n: int, checkpoints=None):
    """The checkpoints of a run to horizon n (`default_checkpoints(n)` when
    None), or `ConfigError` when the horizon does not reach the last one or
    the first is below 4."""
    if checkpoints is None:
        checkpoints = default_checkpoints(n)
    if checkpoints[-1] > n:
        raise ConfigError([(0, "horizon must reach the last checkpoint")])
    if checkpoints[0] < 4:
        raise ConfigError([(0, f"first checkpoint must be at least 4, got {checkpoints[0]}: "
                               "the rate normalization divides by sqrt(log log n) "
                               "(without a ladder, a horizon under 1000 is the checkpoint)")])
    return checkpoints


def _run(pmap, u, n, seed, checkpoints, sigma2, running_max: bool) -> AscltDiagnostics:
    sigma = float(np.sqrt(require_nondegenerate(sigma2)))
    checkpoints = checkpoint_ladder(n, checkpoints)
    law = HalfGaussianLaw(sigma) if running_max else GaussianLaw(sigma)
    atoms = normalized_statistic_atoms(pmap, u, n, seed, running_max=running_max)
    checkpoints, kappas = kantorovich_ladder(atoms, law, checkpoints)
    return AscltDiagnostics(
        statistic="maxima" if running_max else "birkhoff",
        seed=seed,
        sigma_used=sigma,
        checkpoints=checkpoints,
        kappa_values=kappas,
        normalized_rates=kappas * rate_normalization(checkpoints),
    )


def asclt_run(pmap: PiecewiseMap, u: Observable, n: int, seed: int,
              checkpoints=None, *, sigma2: float) -> AscltDiagnostics:
    """Track kappa(E_n, N(0, sigma^2)) along one orbit.

    A degenerate sigma^2 (a coboundary observable) refuses the run.
    """
    return _run(pmap, u, n, seed, checkpoints, sigma2, running_max=False)


def maxima_run(pmap: PiecewiseMap, u: Observable, n: int, seed: int,
               checkpoints=None, *, sigma2: float) -> AscltDiagnostics:
    """Track kappa(M_n, G(sigma)) for the running-maximum statistic."""
    return _run(pmap, u, n, seed, checkpoints, sigma2, running_max=True)

