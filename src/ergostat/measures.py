"""Log-weighted empirical measures, limit laws, and Kantorovich distance.

In one dimension the Kantorovich (Wasserstein-1) distance between two
probability measures is the L1 distance between their CDFs,

    kappa(mu, law) = integral |F_mu(x) - F_law(x)| dx .

Against a purely atomic measure the empirical CDF is piecewise constant,
so the integral splits into inter-atom segments on which the integrand is
|c - F(x)| with constant c.  F is monotone, hence each segment crosses
level c at most once and every piece has a closed form in terms of the
CDF antiderivative.  Both tails are handled analytically.  The result is
exact up to roundoff; `kantorovich_bruteforce` is an independent adaptive
quadrature oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from .errors import BudgetExceededError, DomainError

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
        z = np.asarray(x, dtype=float) / self.sigma
        return x * ndtr(z) + self.sigma * _phi(z)

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
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        z = xp / self.sigma
        val = 2.0 * (xp * ndtr(z) + self.sigma * _phi(z)) - xp - 2.0 * self.sigma * _phi(0.0)
        return np.where(x > 0.0, val, 0.0)

    @property
    def tail_constant(self) -> float:
        # the mean sigma*sqrt(2/pi)
        return self.sigma * math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class DiracLaw(Law):
    """Point mass at a (test-harness comparison law)."""

    a: float

    def cdf(self, x):
        return (np.asarray(x, dtype=float) >= self.a).astype(float)

    def cdf_antiderivative(self, x):
        return np.maximum(np.asarray(x, dtype=float) - self.a, 0.0)

    @property
    def tail_constant(self) -> float:
        return self.a


class InterpolatedLaw(Law):
    """Continuous law whose CDF linearly interpolates empirical quantiles;
    used as a middle measure in triangle-inequality checks."""

    def __init__(self, positions, cum_probs):
        positions = np.asarray(positions, dtype=float)
        cum_probs = np.asarray(cum_probs, dtype=float)
        if len(positions) < 2:
            raise ValueError("need at least two nodes")
        self.xs = positions
        self.cs = cum_probs
        # nodal antiderivative values by exact trapezoid accumulation
        self._Is = np.concatenate(
            [[0.0], np.cumsum(0.5 * (self.cs[1:] + self.cs[:-1]) * np.diff(self.xs))])

    def cdf(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.cs,
                         left=0.0, right=1.0)

    def cdf_antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        x0, x1 = self.xs[idx], self.xs[idx + 1]
        c0, c1 = self.cs[idx], self.cs[idx + 1]
        slope = (c1 - c0) / (x1 - x0)
        dx = np.clip(x, x0, x1) - x0
        inside = self._Is[idx] + c0 * dx + 0.5 * slope * dx * dx
        after = self._Is[-1] + (x - self.xs[-1])
        return np.where(x <= self.xs[0], 0.0, np.where(x >= self.xs[-1], after, inside))

    @property
    def tail_constant(self) -> float:
        return float(self.xs[-1] - self._Is[-1])


# ---------------------------------------------------------------------------
# weighted empirical measures
# ---------------------------------------------------------------------------

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
        order = np.argsort(self.positions, kind="stable")
        pos = self.positions[order]
        w = self.weights[order] / self.normalizer
        distinct = np.empty(len(pos), dtype=bool)
        distinct[0] = True
        np.not_equal(pos[1:], pos[:-1], out=distinct[1:])
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

    def as_interpolated_law(self) -> InterpolatedLaw:
        pos, w = self._sorted
        if len(pos) == 1:
            pos = np.array([pos[0] - 1e-12, pos[0] + 1e-12])
            return InterpolatedLaw(pos, np.array([0.0, 1.0]))
        return InterpolatedLaw(pos, np.cumsum(w))


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

    a, b = pos[:-1], pos[1:]
    c = cum[:-1]
    fa, fb = law.cdf(a), law.cdf(b)
    seg_int = law.cdf_integral(a, b)          # int_a^b F
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


def _adaptive_simpson(f, a, b, fa, fm, fb, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        raise BudgetExceededError("quadrature tolerance unreachable within subdivision budget")
    # local tolerance floored at float resolution of the partial sums
    eff = max(tol, 1e-16 * (abs(left) + abs(right)))
    if abs(left + right - whole) <= 15.0 * eff:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, 0.5 * tol, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, 0.5 * tol, depth - 1))


def kantorovich_bruteforce(emp: WeightedEmpiricalMeasure, law: Law,
                           cutoff: float | None = None, tol: float = 1e-10) -> float:
    """Independent oracle: adaptive Simpson quadrature of |F_emp - F_law|
    on [-R, R] plus analytic tails.  Slower but shares no antiderivative
    logic with `kantorovich`."""
    pos, w = emp._sorted
    cum = np.concatenate([[0.0], np.cumsum(w)])
    cum[-1] = 1.0
    scale = getattr(law, "sigma", 1.0)
    if cutoff is None:
        cutoff = 10.0 * (scale + float(np.max(np.abs(pos)))) + 1.0
    if cutoff < 10.0 * (scale + float(np.max(np.abs(pos)))):
        raise ValueError("cutoff too small: tails would not be negligible")

    def femp(x):
        idx = int(np.searchsorted(pos, x, side="right"))
        return cum[idx]

    def integrand(x):
        return abs(femp(x) - float(law.cdf(x)))

    # subdivide at atom positions and at law kinks (Dirac atom, half-Gaussian 0)
    nodes = [-cutoff, cutoff]
    nodes.extend(float(p) for p in pos)
    for kink in (getattr(law, "a", None), 0.0 if isinstance(law, HalfGaussianLaw) else None):
        if kink is not None:
            nodes.append(float(kink))
    nodes = sorted(x for x in set(nodes) if -cutoff <= x <= cutoff)

    total = 0.0
    span = nodes[-1] - nodes[0]
    for a, b in zip(nodes[:-1], nodes[1:]):
        if b <= a:
            continue
        seg_tol = tol * max((b - a) / span, 1e-6)
        # evaluate just inside the segment so atom jumps stay on the boundary
        eps = 1e-12 * max(1.0, abs(a), abs(b))
        fa, fm, fb = integrand(a + eps), integrand(0.5 * (a + b)), integrand(b - eps)
        total += _adaptive_simpson(integrand, a, b, fa, fm, fb, seg_tol, depth=40)
    total += float(law.left_tail(-cutoff)) + float(law.right_tail(cutoff))
    return total
