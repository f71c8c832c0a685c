"""Log-weighted empirical measures, limit laws, and Kantorovich distance.

In one dimension the Kantorovich (Wasserstein-1) distance between two
probability measures is the L1 distance between their CDFs,

    kappa(mu, law) = integral |F_mu(x) - F_law(x)| dx .

Against a purely atomic measure the empirical CDF is piecewise constant,
so the integral splits into inter-atom segments on which the integrand is
|c - F(x)| with constant c.  F is monotone, hence each segment crosses
level c at most once and every piece has a closed form in terms of the
CDF antiderivative.  Both tails are handled analytically.  The result is
exact up to roundoff.

`kantorovich_ladder` is the one checkpoint loop of the almost-sure CLT
runs: the distance from a law to the 1/k-weighted measure of the first m
atoms, at each checkpoint m of a ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, DomainError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


# ---------------------------------------------------------------------------
# comparison laws
# ---------------------------------------------------------------------------

class Law:
    """A distribution with closed-form CDF, CDF antiderivative, and tails.

    Subclasses define cdf(x), antiderivative I(x) = int_{-inf}^x F (so
    I doubles as the left tail), and the first absolute moment constant
    `tail_constant` = lim_{t->inf} (t - I(t)) used for the right tail.
    """

    def cdf(self, x):
        raise NotImplementedError

    def cdf_antiderivative(self, x):
        raise NotImplementedError

    def cdf_and_antiderivative(self, x):
        """(cdf(x), cdf_antiderivative(x)); a law may share work between them."""
        return self.cdf(x), self.cdf_antiderivative(x)

    @property
    def tail_constant(self) -> float:
        raise NotImplementedError

    def cdf_integral(self, a, b):
        """int_a^b F(x) dx."""
        return self.cdf_antiderivative(b) - self.cdf_antiderivative(a)

    def left_tail(self, x):
        """int_{-inf}^x F(t) dt."""
        return self.cdf_antiderivative(x)

    def right_tail(self, x):
        """int_x^inf (1 - F(t)) dt."""
        return self.tail_constant - x + self.cdf_antiderivative(x)

    def cdf_inverse_in(self, a, b, p):
        """Vectorized crossing point of level p in [a, b] by bisection.

        Assumes F(a) <= p <= F(b); a step CDF jumping over p lands on the
        jump location, which splits the segment correctly as well.
        """
        a = np.array(a, dtype=float, copy=True)
        b = np.array(b, dtype=float, copy=True)
        p = np.asarray(p, dtype=float)
        for _ in range(60):
            mid = 0.5 * (a + b)
            below = self.cdf(mid) < p
            a = np.where(below, mid, a)
            b = np.where(below, b, mid)
        return 0.5 * (a + b)


@dataclass(frozen=True)
class GaussianLaw(Law):
    """Centered Gaussian with standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float) / self.sigma)

    def cdf_antiderivative(self, x):
        return self.cdf_and_antiderivative(x)[1]

    def cdf_and_antiderivative(self, x):
        z = np.asarray(x, dtype=float) / self.sigma
        F = ndtr(z)
        return F, x * F + self.sigma * _phi(z)

    @property
    def tail_constant(self) -> float:
        # lim (t - I(t)) equals the mean
        return 0.0


@dataclass(frozen=True)
class HalfGaussianLaw(Law):
    """Law of sigma * |Z| (equivalently sigma * sup_{t<=1} B_t), Z standard
    normal: CDF 0 for x <= 0 and 2*Phi(x/sigma) - 1 beyond."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, 2.0 * ndtr(x / self.sigma) - 1.0, 0.0)

    def cdf_antiderivative(self, x):
        return self.cdf_and_antiderivative(x)[1]

    def cdf_and_antiderivative(self, x):
        # for x > 0, ndtr(z) is the ndtr(x / sigma) of cdf
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        z = xp / self.sigma
        p = ndtr(z)
        val = 2.0 * (xp * p + self.sigma * _phi(z)) - xp - 2.0 * self.sigma * _phi(0.0)
        right = x > 0.0
        return np.where(right, 2.0 * p - 1.0, 0.0), np.where(right, val, 0.0)

    @property
    def tail_constant(self) -> float:
        # the mean sigma*sqrt(2/pi)
        return self.sigma * math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# weighted empirical measures
# ---------------------------------------------------------------------------

def _stable_argsort(x: np.ndarray) -> np.ndarray:
    """`np.argsort(x, kind="stable")`, from numpy's faster default sort.

    The stable order is the unique order by (value, index), so only the
    runs of equal values (compared with ==, so -0.0 ties 0.0) need their
    indices put back in increasing order.
    """
    order = np.argsort(x)
    xs = x[order]
    tie = xs[1:] == xs[:-1]
    if not tie.any():
        return order
    member = np.zeros(len(x), dtype=bool)
    member[1:] = tie
    member[:-1] |= tie
    run = np.cumsum(np.concatenate(([True], ~tie)))
    at = np.flatnonzero(member)
    order[at] = order[at][np.lexsort((order[at], run[at]))]
    return order


@dataclass(frozen=True)
class WeightedEmpiricalMeasure:
    """Atoms with harmonic weights 1/k, normalized by D_n = sum_{k<=n} 1/k."""

    positions: np.ndarray
    weights: np.ndarray
    n: int

    def __post_init__(self):
        if len(self.positions) != len(self.weights):
            raise ValueError("positions and weights must align")
        if not np.all(np.isfinite(self.positions)):
            raise DomainError("empirical measure has non-finite atom positions")

    @property
    def normalizer(self) -> float:
        """D_n, the raw weight total."""
        return float(np.sum(self.weights))

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct sorted positions with merged normalized weights."""
        order = _stable_argsort(self.positions)
        pos = self.positions[order]
        w = self.weights[order] / self.normalizer
        distinct = np.empty(len(pos), dtype=bool)
        distinct[0] = True
        np.not_equal(pos[1:], pos[:-1], out=distinct[1:])
        if distinct.all():
            return pos, w
        idx = np.cumsum(distinct) - 1
        merged = np.zeros(int(idx[-1]) + 1)
        np.add.at(merged, idx, w)
        return pos[distinct], merged

    def support(self) -> np.ndarray:
        return self._sorted[0]

    def normalized_weights(self) -> np.ndarray:
        return self._sorted[1]

    def cdf(self, x):
        pos, w = self._sorted
        cum = np.cumsum(w)
        idx = np.searchsorted(pos, np.asarray(x, dtype=float), side="right")
        return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)


def build_empirical(values, n: int | None = None) -> WeightedEmpiricalMeasure:
    """Empirical measure (1/D_n) sum_k (1/k) delta_{values[k-1]}.

    The k-th value carries weight 1/k; D_n is their exact float sum.
    """
    values = np.asarray(values, dtype=float)
    if n is None:
        n = len(values)
    if n < 1 or len(values) < n:
        raise ValueError("need at least n values, n >= 1")
    weights = 1.0 / np.arange(1, n + 1, dtype=float)
    return WeightedEmpiricalMeasure(positions=values[:n].copy(), weights=weights, n=n)


# ---------------------------------------------------------------------------
# Kantorovich distance
# ---------------------------------------------------------------------------

def kantorovich(emp: WeightedEmpiricalMeasure, law: Law) -> float:
    """Exact L1 distance between the empirical CDF and the law CDF.

    Piecewise closed form: on each inter-atom segment the empirical CDF is
    a constant c and |c - F| integrates via the antiderivative of F,
    splitting at the unique crossing F^{-1}(c) when it falls inside the
    segment.  Tails are analytic.
    """
    pos, w = emp._sorted
    cum = np.cumsum(w)
    cum[-1] = 1.0  # guard the float total

    total = float(law.left_tail(pos[0])) + float(law.right_tail(pos[-1]))
    if len(pos) == 1:
        return total

    # one law evaluation per distinct atom, read at both segment ends
    F, I = law.cdf_and_antiderivative(pos)
    a, b = pos[:-1], pos[1:]
    c = cum[:-1]
    fa, fb = F[:-1], F[1:]
    seg_int = I[1:] - I[:-1]                   # int_a^b F
    seg_len = b - a

    above = fa >= c                            # F >= c on the whole segment
    below = fb <= c                            # F <= c on the whole segment
    crossing = ~(above | below)

    pieces = np.where(above, seg_int - c * seg_len,
                      np.where(below, c * seg_len - seg_int, 0.0))
    if np.any(crossing):
        ac, bc, cc = a[crossing], b[crossing], c[crossing]
        xs = law.cdf_inverse_in(ac, bc, cc)
        left = cc * (xs - ac) - law.cdf_integral(ac, xs)
        right = law.cdf_integral(xs, bc) - cc * (bc - xs)
        pieces[crossing] = np.maximum(left, 0.0) + np.maximum(right, 0.0)
    return total + float(np.sum(np.maximum(pieces, 0.0)))


# ---------------------------------------------------------------------------
# checkpoint ladders
# ---------------------------------------------------------------------------

def default_checkpoints(horizon: int) -> np.ndarray:
    """Geometric ladder 10^3, 10^3.5, ... capped by the horizon (convergence
    is logarithmic in n).  Horizons under 1000 get the horizon itself."""
    if horizon < 1000:
        return np.array([horizon], dtype=np.int64)
    levels = []
    e = 3.0
    while round(10**e) <= horizon:
        levels.append(round(10**e))
        e += 0.5
    if levels[-1] != horizon:
        levels.append(horizon)
    return np.array(levels, dtype=np.int64)


def checkpoints_within(n: int, checkpoints=None) -> np.ndarray:
    """The checkpoints of a run of n atoms (`default_checkpoints(n)` when
    None), or `ConfigError` when n does not reach the last one."""
    if checkpoints is None:
        return default_checkpoints(n)
    if checkpoints[-1] > n:
        raise ConfigError([(0, f"last checkpoint {checkpoints[-1]} is past the run's {n} atoms "
                               "(its horizon, or its depth for entropy-ow)")])
    return checkpoints


def kantorovich_ladder(atoms: np.ndarray, law: Law, checkpoints=None,
                       keep: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(checkpoints, kappas): kappa at checkpoint m is the distance from
    `law` to the measure of atoms[:m], the k-th atom weighted 1/k.

    The ladder defaults to `default_checkpoints(len(atoms))`.  A boolean
    `keep` mask drops atoms from every checkpoint's measure (their weights
    leave the normalizer too); a checkpoint that keeps no atom raises
    `DomainError`.
    """
    if checkpoints is None:
        checkpoints = default_checkpoints(len(atoms))
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    weights = 1.0 / np.arange(1, len(atoms) + 1, dtype=float)
    kappas = np.empty(len(checkpoints))
    for i, m in enumerate(checkpoints):
        pos, w = atoms[:m], weights[:m]
        if keep is not None:
            sel = keep[:m]
            if not np.any(sel):
                raise DomainError(
                    f"every atom up to checkpoint {m} was censored; no measure to compare")
            pos, w = pos[sel], w[sel]
        kappas[i] = kantorovich(WeightedEmpiricalMeasure(pos, w, len(pos)), law)
    return checkpoints, kappas
