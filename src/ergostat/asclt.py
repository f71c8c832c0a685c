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
from .measures import GaussianLaw, HalfGaussianLaw, checkpoints_within, kantorovich_ladder
from .transfer import require_nondegenerate


@dataclass(frozen=True)
class AscltDiagnostics:
    """Kantorovich distances of the log-averaged empirical measure to its
    limit law at increasing checkpoints, with the rate normalization
    kappa * (log n)^(1/3) / sqrt(log log n)."""

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
    """Atoms S_k/sqrt(k), k=1..n (or S*_k/sqrt(k) with the running maximum).

    The orbit's values stream into the one atom array, chunk by chunk: each
    chunk is copied into place, the sum (and running maximum) so far is
    carried into its first entry, and `np.cumsum` (`np.maximum.accumulate`)
    runs in place; both are sequential, so the carry keeps their bits.
    """
    atoms = np.empty(n)
    done = 0
    for vals in orbit_value_chunks(pmap, u, seed, n):
        block = atoms[done:done + len(vals)]
        block[:] = vals                        # a chunk may be the orbit layer's own array
        if done:
            block[0] = total + block[0]
        np.cumsum(block, out=block)
        total = block[-1]
        if running_max:
            if done:                           # (before, next): the order accumulate takes
                block[0] = np.maximum(top, block[0])
            np.maximum.accumulate(block, out=block)
            top = block[-1]
        k = np.arange(done + 1, done + len(block) + 1, dtype=float)
        block /= np.sqrt(k, out=k)
        done += len(block)
    return atoms


def checkpoint_ladder(n: int, checkpoints=None):
    """`checkpoints_within(n, checkpoints)`, also refusing with `ConfigError`
    a first checkpoint below 4."""
    checkpoints = checkpoints_within(n, checkpoints)
    if checkpoints[0] < 4:
        raise ConfigError([(0, f"first checkpoint must be at least 4, got {checkpoints[0]}: "
                               "the rate normalization divides by sqrt(log log n) "
                               "(without a ladder, a horizon under 1000 is the checkpoint)")])
    return checkpoints


def _run(pmap, u, n, seed, checkpoints, sigma2, running_max: bool) -> AscltDiagnostics:
    sigma = float(np.sqrt(require_nondegenerate(sigma2)))
    checkpoints = checkpoint_ladder(n, checkpoints)
    law = HalfGaussianLaw(sigma) if running_max else GaussianLaw(sigma)
    # the atoms go to the ladder with no reference kept here, so it can
    # free them once they are sorted
    checkpoints, kappas = kantorovich_ladder(
        normalized_statistic_atoms(pmap, u, n, seed, running_max=running_max), law, checkpoints)
    return AscltDiagnostics(
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

