"""Limit laws, and the Kantorovich distance of log-weighted empirical
measures to them.

In one dimension the Kantorovich (Wasserstein-1) distance between two
probability measures is the L1 distance between their CDFs,

    kappa(mu, law) = integral |F_mu(x) - F_law(x)| dx .

Against a purely atomic measure the empirical CDF is piecewise constant,
so the integral splits into inter-atom segments on which the integrand is
|c - F(x)| with constant c.  F is monotone, hence each segment crosses
level c at most once and every piece has a closed form in terms of the
CDF antiderivative, as do both tails.  The result is exact up to
roundoff.

`kantorovich_ladder` is the one checkpoint loop of the almost-sure CLT
runs: the distance from a law to the 1/k-weighted measure of the first m
atoms, at each checkpoint m of a ladder.  The measure of one checkpoint,
the ladder's sorted columns, is the one measure that `kantorovich` reads,
and `checkpoints_within` is the one rule that picks and checks a ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(z):
    e = np.square(z)            # in place where it can: fewer large temporaries
    e *= -0.5
    e = np.exp(e)
    e /= _SQRT_2PI
    return e


# ---------------------------------------------------------------------------
# the standard normal CDF
# ---------------------------------------------------------------------------

# Cephes ndtr, erf and erfc (Moshier) as scipy.special 1.17 runs them:
#   x = a / sqrt(2);  ndtr = 0.5 + 0.5 erf(x) for |x| < 1,
#   erf(x) = x T(x^2) / U(x^2),  0.5 erfc(|x|) = 0.5 exp(-x^2) P(|x|) / Q(|x|)
# (R / S from |x| = 8 on), and ndtr = 1 - 0.5 erfc(|x|) for x > 0, else
# 0.5 erfc(|x|).  Coefficients run from the highest power down; U, Q and S
# are monic, their leading 1 left out (Cephes's p1evl).
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2          # 0.5 erfc(|x|) is 0 past x^2 = MAXLOG
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T0, _T1, _T2, _T3, _T4 = _ERF_T
_U0, _U1, _U2, _U3, _U4 = _ERF_U
# arrays up to this size are evaluated one Python float at a time: the
# vector path's fixed cost of about 50 us is worth 50-100 scalar values
_SCALAR_MAX = 64


def _horner(x, coef):
    """coef[0] x^n + ... + coef[n] by Horner's rule, Cephes's polevl; in
    place after the first step when x is an array."""
    y = coef[0] * x
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _columns(num, den) -> tuple:
    """The quotient num / den (den monic) as (2, 1) coefficient columns,
    so that `_horner` of an array gives its numerator and denominator as
    two rows at once.  The denominator gets its leading 1.0 and the
    numerator leading zeros, which change no bit of a Horner step."""
    den = (1.0, *den)
    num = (0.0,) * (len(den) - len(num)) + num
    return tuple(np.array([[p], [q]]) for p, q in zip(num, den))


_ERF_COLUMNS = _columns(_ERF_T, _ERF_U)
_ERFC_COLUMNS = _columns(_ERFC_P, _ERFC_Q)
_ERFC_FAR_COLUMNS = _columns(_ERFC_R, _ERFC_S)


def _ndtr_float(a: float) -> float:
    """`ndtr` of one Python float, with its bits."""
    x = a * _SQRT1_2
    t = x * x
    if t < 1.0:                 # unrolled: each bisection step lands here
        num = (((_T0 * t + _T1) * t + _T2) * t + _T3) * t + _T4
        den = ((((t + _U0) * t + _U1) * t + _U2) * t + _U3) * t + _U4
        return 0.5 + 0.5 * (x * num / den)
    if not t <= _MAXLOG:        # erfc underflows; or NaN
        return math.nan if x != x else (1.0 if x > 0.0 else 0.0)
    z = abs(x)
    num, den = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
    e = 0.5 * (math.exp(-t) * _horner(z, num) / _horner(z, (1.0, *den)))
    return 1.0 - e if x > 0.0 else e


def _libm_exp(v: np.ndarray) -> np.ndarray:
    """exp with the bits of the C library's exp (and of math.exp), which
    numpy's SIMD float exp does not always give: the complex exp of a real
    number calls the C library's exp and multiplies by cos 0 = 1."""
    c = v.astype(complex)
    np.exp(c, out=c)
    return c.real


def _erf_side(x: np.ndarray) -> np.ndarray:
    """ndtr = 0.5 + 0.5 erf(x), for |x| < 1 (and NaN, which it keeps)."""
    t = x * x
    num, den = _horner(t, _ERF_COLUMNS)
    num *= x
    num /= den
    num *= 0.5
    num += 0.5
    return num


def _erfc_side(x: np.ndarray) -> np.ndarray:
    """ndtr = 1 - 0.5 erfc(|x|) for x >= 1, 0.5 erfc(|x|) for x <= -1.
    0.5 erfc(|x|) is 0 past x^2 = MAXLOG, and |x| is clipped at 27 there,
    so that every quotient stays finite."""
    z = np.minimum(np.abs(x), 27.0)
    t = z * z
    num, den = quot = _horner(z, _ERFC_COLUMNS)
    big = np.flatnonzero(z >= 8.0)
    if len(big):
        quot[:, big] = _horner(z[big], _ERFC_FAR_COLUMNS)
    num *= _libm_exp(-t)
    num /= den
    num *= 0.5
    num[t > _MAXLOG] = 0.0
    return np.where(x > 0.0, 1.0 - num, num)


def ndtr(a):
    """Standard normal CDF, bit for bit `scipy.special.ndtr`; NaN in gives
    NaN out.  Scalars and small arrays go through `_ndtr_float`, larger
    arrays through `_erf_side` and `_erfc_side`."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return np.float64(_ndtr_float(float(a)))
    if a.size <= _SCALAR_MAX:
        return np.array([_ndtr_float(v) for v in a.ravel().tolist()]).reshape(a.shape)
    x = a.ravel() * _SQRT1_2
    y = np.empty(x.shape)
    far = np.abs(x) >= 1.0
    near = ~far
    y[near] = _erf_side(x[near])
    y[far] = _erfc_side(x[far])
    return y.reshape(a.shape)


# ---------------------------------------------------------------------------
# comparison laws
# ---------------------------------------------------------------------------

class Law:
    """A limit law as `kantorovich` reads it.

    `cdf_and_antiderivative(x)` gives, on an array x, the CDF F and its
    antiderivative I(x) = int_{-inf}^x F, which is also the left tail;
    `cdf_float` gives F at one Python float with the same bits; and
    `tail_constant` = lim_{t->inf} (t - I(t)) makes tail_constant - x + I(x)
    the right tail int_x^inf (1 - F).
    """

    def cdf_and_antiderivative(self, x):
        raise NotImplementedError

    def cdf_float(self, x: float) -> float:
        raise NotImplementedError

    @property
    def tail_constant(self) -> float:
        raise NotImplementedError

    def cdf_inverse_in(self, a, b, p):
        """Crossing points of levels p in brackets [a, b] (arrays), each by
        60 bisection steps on Python floats with `cdf_float`.

        Assumes F(a) <= p <= F(b); a step CDF jumping over p lands on the
        jump location, which splits the segment correctly as well.
        """
        return np.array([_bisect(self.cdf_float, lo, hi, level) for lo, hi, level in
                         zip(np.ravel(a).tolist(), np.ravel(b).tolist(),
                             np.ravel(p).tolist())]).reshape(np.shape(p))


def _bisect(cdf, a: float, b: float, p: float) -> float:
    """60 bisection steps on Python floats.  A step that leaves the
    bracket as it was is repeated by every later one, so it ends them."""
    for _ in range(60):
        mid = 0.5 * (a + b)
        if cdf(mid) < p:
            if a == mid:
                break
            a = mid
        else:
            if b == mid:
                break
            b = mid
    return 0.5 * (a + b)


@dataclass(frozen=True)
class GaussianLaw(Law):
    """Centered Gaussian with standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):     # NaN too
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")

    def cdf_float(self, x: float) -> float:
        return _ndtr_float(x / self.sigma)

    def cdf_and_antiderivative(self, x):
        z = np.asarray(x, dtype=float) / self.sigma
        F = ndtr(z)
        I = _phi(z)
        I *= self.sigma
        I += x * F
        return F, I

    @property
    def tail_constant(self) -> float:
        # lim (t - I(t)) equals the mean
        return 0.0


class HalfGaussianLaw(GaussianLaw):
    """Law of sigma * |Z| (equivalently sigma * sup_{t<=1} B_t), Z standard
    normal: CDF 0 for x <= 0 and 2*Phi(x/sigma) - 1 beyond.  Both F and I
    are folded from the Gaussian pair at x+ = max(x, 0): F = 2 F_G - 1 and
    I = 2 I_G - x+ - 2 sigma phi(0) for x > 0."""

    def cdf_float(self, x: float) -> float:
        return 2.0 * super().cdf_float(x) - 1.0 if x > 0.0 else 0.0

    def cdf_and_antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        F, I = super().cdf_and_antiderivative(xp)
        I *= 2.0
        I -= xp
        I -= 2.0 * self.sigma * _phi(0.0)
        right = x > 0.0
        return np.where(right, 2.0 * F - 1.0, 0.0), np.where(right, I, 0.0)

    @property
    def tail_constant(self) -> float:
        # the mean sigma*sqrt(2/pi)
        return self.sigma * math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# checkpoint measures
# ---------------------------------------------------------------------------

def _stable_argsort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, x[order]) with order = `np.argsort(x, kind="stable")`, the
    unique order by (value, index), from the sort that suits the atoms.

    Atoms in long descending runs, as running maxima over sqrt(k) are
    between their records (fewer than n/16 ascents), go to numpy's stable
    sort itself, a timsort that reverses such runs.  Any other atoms take
    numpy's faster default sort, and then only the tied places, the sorted
    places whose value equals a neighbour's (compared with ==, so -0.0 ties
    0.0), need their indices put back in increasing order; their values
    order the runs among themselves, and are gathered again so that each
    keeps its own bits.
    """
    if np.count_nonzero(x[1:] > x[:-1]) < len(x) / 16:
        order = np.argsort(x, kind="stable")
        return order, x[order]
    order = np.argsort(x)
    xs = x[order]
    tied = np.flatnonzero(xs[1:] == xs[:-1])   # xs[t] == xs[t + 1]
    if not len(tied):
        return order, xs
    # the tied places: the left place of each tied pair, and the last place
    # of each run (np.union1d would load numpy.ma)
    at = np.sort(np.concatenate((tied, tied[np.append(np.diff(tied) != 1, True)] + 1)))
    idx = order[at]
    order[at] = idx = idx[np.lexsort((idx, x[idx]))]
    xs[at] = x[idx]
    return order, xs


@dataclass(frozen=True)
class _CheckpointMeasure:
    """The measure of one `kantorovich_ladder` checkpoint, as the ladder's
    sorted columns: the kept atoms' positions in stable order, their
    indices `rank` (the atom at index r weighs 1/(r + 1)), the law's F and
    I there, and the normalizer D_m.  It has no weight array: `kantorovich`
    rebuilds the weights from the rank, block by block."""

    positions: np.ndarray
    rank: np.ndarray
    F: np.ndarray
    I: np.ndarray
    normalizer: float


def _distinct(pos: np.ndarray) -> np.ndarray | None:
    """The mask of the first atom of each run of equal sorted positions
    (compared with ==, so -0.0 ties 0.0), or None when every position is
    distinct."""
    distinct = np.empty(len(pos), dtype=bool)
    distinct[:1] = True
    np.not_equal(pos[1:], pos[:-1], out=distinct[1:])
    return None if distinct.all() else distinct


# ---------------------------------------------------------------------------
# Kantorovich distance
# ---------------------------------------------------------------------------

# The segment kernel of `kantorovich` runs in blocks of this many atoms,
# with temporaries per block; a 2e4-atom ladder is one block.  The law is
# evaluated in shorter blocks: one evaluation holds about a dozen
# temporaries of its block's length, and at 64 KiB each they stay under the
# C library's 128 KiB mmap threshold, so they reuse heap pages instead of
# faulting in fresh ones.
_SEGMENT_BLOCK = 1 << 15
_LAW_BLOCK = 1 << 13


def _law_at(law: Law, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`law.cdf_and_antiderivative(x)`, block by block into two arrays."""
    F, I = np.empty(len(x)), np.empty(len(x))
    for s in range(0, len(x), _LAW_BLOCK):
        F[s:s + _LAW_BLOCK], I[s:s + _LAW_BLOCK] = law.cdf_and_antiderivative(x[s:s + _LAW_BLOCK])
    return F, I


def kantorovich(emp: _CheckpointMeasure, law: Law) -> float:
    """Exact L1 distance between the CDF of the measure of one
    `kantorovich_ladder` checkpoint and the law CDF.

    Piecewise closed form: on each inter-atom segment the empirical CDF is
    a constant c and |c - F| integrates via the antiderivative of F,
    splitting at the unique crossing F^{-1}(c) when it falls inside the
    segment.  Both tails come from the antiderivative at the outer atoms.
    """
    distinct = _distinct(emp.positions)
    return _segment_sum(emp.positions, emp.F, emp.I, distinct, _merged_weights(emp, distinct),
                        law)


def _merged_weights(emp: _CheckpointMeasure, distinct: np.ndarray | None) -> np.ndarray:
    """The normalized weights of the distinct positions, rebuilt from the
    rank block by block into one buffer, each tie run summed in index
    order.  A function of its own, so that its last block's temporaries
    are freed before the segment kernel runs."""
    rank, D = emp.rank, emp.normalizer
    buf = np.empty(len(rank)) if distinct is None else np.zeros(np.count_nonzero(distinct))
    before = 0                                 # distinct positions before the block
    for s in range(0, len(rank), _SEGMENT_BLOCK):
        w = np.divide(1.0, rank[s:s + _SEGMENT_BLOCK] + 1,
                      out=buf[s:s + _SEGMENT_BLOCK] if distinct is None else None)
        w /= D
        if distinct is None:
            continue
        run = np.cumsum(distinct[s:s + _SEGMENT_BLOCK])
        run += before - 1
        np.add.at(buf, run, w)
        before = int(run[-1]) + 1
    return buf


def _segment_sum(pos, F, I, distinct, buf, law: Law) -> float:
    """The distance from sorted columns: the positions with the law's F and
    I there, the mask `distinct` of the first atom of each run of equal
    positions (None: all distinct), and in `buf` the merged normalized
    weights of the distinct positions.

    Block by block, `buf` becomes the cumulative weights, carried across
    blocks (`np.cumsum` is sequential, so the carry keeps its bits), and
    then each segment's piece overwrites the cumulative weight at its left
    end.  The pieces are summed at the end by one pairwise `np.sum` over the
    whole of `buf` but its last entry, the total weight.
    """
    last = len(pos) - 1 if distinct is None else len(pos) - 1 - int(np.argmax(distinct[::-1]))
    total = float(I[0]) + float(law.tail_constant - pos[last] + I[last])
    lo = j = 0            # the last distinct atom before the block: its index, its place in buf
    for s in range(0, len(pos), _SEGMENT_BLOCK):
        e = min(s + _SEGMENT_BLOCK, len(pos))
        sel = slice(None) if distinct is None else distinct[lo:e]
        m = e - lo if distinct is None else int(np.count_nonzero(sel))   # distinct atoms from lo on
        if s and m == 1:
            continue                           # inside a run of equal atoms
        new = j + 1 if s else 0                # the first entry of buf not yet cumulative
        cum = buf[new:j + m]
        if new:
            cum[0] = buf[j] + cum[0]
        np.cumsum(cum, out=cum)
        # the segments from atom lo to the block's last distinct atom
        _pieces(pos[lo:e][sel], F[lo:e][sel], I[lo:e][sel], buf[j:j + m - 1], law)
        lo = e - 1 if distinct is None else e - 1 - int(np.argmax(sel[::-1]))
        j += m - 1
    return total + float(np.sum(buf[:-1]))


def _pieces(p, F, I, c, law: Law) -> None:
    """Overwrite the cumulative weights c of the segments between
    consecutive positions p with the segments' integrals of |c - F|."""
    if not len(c):
        return
    a, b = p[:-1], p[1:]
    above = F[:-1] >= c                        # F >= c on the whole segment
    below = F[1:] <= c                         # F <= c on the whole segment
    crossing = np.flatnonzero(~(above | below))
    cc = c[crossing]

    # int_a^b F - c (b - a) where F >= c; its negation, c (b - a) - int_a^b F,
    # where F <= c; crossing segments are split below
    area = b - a
    area *= c
    np.subtract(I[1:], I[:-1], out=c)
    c -= area
    np.negative(c, out=c, where=~above)
    if len(crossing):
        ac, bc = a[crossing], b[crossing]
        xs = law.cdf_inverse_in(ac, bc, cc)
        ix = law.cdf_and_antiderivative(xs)[1]  # I at the segment ends is known
        left = cc * (xs - ac) - (ix - I[:-1][crossing])
        right = (I[1:][crossing] - ix) - cc * (bc - xs)
        c[crossing] = np.maximum(left, 0.0) + np.maximum(right, 0.0)
    np.maximum(c, 0.0, out=c)


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
    """The checkpoints of a run of n atoms: `default_checkpoints(n)` when
    None or empty.  Checkpoints that are not whole numbers, below 1, not
    strictly increasing or past n raise `ConfigError`."""
    if checkpoints is None or not len(checkpoints):
        checkpoints = default_checkpoints(n)
    given = np.asarray(checkpoints)
    broken = given[~(np.isfinite(given) & (given == np.round(given)))]
    if len(broken):
        raise ConfigError([(0, f"checkpoints {broken.tolist()} are not whole numbers "
                               "(a checkpoint counts atoms)")])
    checkpoints = given.astype(np.int64)
    if checkpoints[0] < 1 or checkpoints[-1] > n or np.any(np.diff(checkpoints) <= 0):
        raise ConfigError([(0, f"checkpoints {checkpoints.tolist()} must increase strictly "
                               f"from at least 1 to at most the run's {n} atoms "
                               "(its horizon, or its depth for entropy-ow)")])
    return checkpoints


def kantorovich_ladder(atoms: np.typing.ArrayLike, law: Law, checkpoints=None,
                       keep: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(checkpoints, kappas): kappa at checkpoint m is the distance from
    `law` to the measure of atoms[:m], the k-th atom weighted 1/k.

    `atoms` is any sequence of numbers (a float64 array is used as it is).
    The ladder is `checkpoints_within(len(atoms), checkpoints)`.  A boolean
    `keep` mask drops atoms from every checkpoint's measure (their weights
    leave the normalizer too); a checkpoint that keeps no atom raises
    `DomainError`, and so does a non-finite kept atom.

    Every normalizer is taken first, each the sum of its checkpoint's
    weights in index order.  The kept atoms of the last checkpoint are then
    sorted once, and the law is evaluated on them once.  What stays per
    atom is the sorted positions, the sort rank (the atom index at each
    sorted place, from which the weights are rebuilt), F and I.  From the
    last checkpoint down, each one keeps the atoms of these columns whose
    index it reaches, and `kantorovich` runs on a measure that carries them.
    Every kappa keeps the bits of that checkpoint's ladder alone: the
    stable order of a prefix is the stable order of the whole without the
    later atoms, and F and I are elementwise.

    The ladder drops its own reference to `atoms` once they are sorted, so
    a caller that hands them over without keeping one frees them then.
    """
    atoms = np.asarray(atoms, dtype=float)
    checkpoints = checkpoints_within(len(atoms), checkpoints)
    # the checkpoints increase, so the first one keeps the fewest atoms
    if keep is not None and not np.any(keep[:checkpoints[0]]):
        raise DomainError(f"every atom up to checkpoint {checkpoints[0]} was censored; "
                          "no measure to compare")
    weights = 1.0 / np.arange(1, checkpoints[-1] + 1, dtype=float)
    if keep is None:
        norms = [float(np.sum(weights[:m])) for m in checkpoints]
    else:
        norms = [float(np.sum(weights[:m][keep[:m]])) for m in checkpoints]
    del weights
    last = atoms[:checkpoints[-1]]
    del atoms
    if keep is None:
        rank, pos = _stable_argsort(last)      # the atom index at each sorted place
    else:
        kept = np.flatnonzero(keep[:len(last)])
        rank, pos = _stable_argsort(last[kept])
        rank = kept[rank]
        del kept
    del last
    # NaN sorts last, -inf first and +inf last but NaN
    if not (np.isfinite(pos[0]) and np.isfinite(pos[-1])):
        raise DomainError("empirical measure has non-finite atom positions")
    F, I = _law_at(law, pos)
    kappas = np.empty(len(checkpoints))
    for i in range(len(checkpoints) - 1, -1, -1):
        m = checkpoints[i]
        if i < len(checkpoints) - 1:
            inside = np.flatnonzero(rank < m)
            rank = rank[inside]
            pos = pos[inside]
            F = F[inside]
            I = I[inside]
            del inside
        kappas[i] = kantorovich(_CheckpointMeasure(pos, rank, F, I, norms[i]), law)
    return checkpoints, kappas
