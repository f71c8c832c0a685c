"""Piecewise expanding interval maps, observables, and orbit generation.

A map is a finite family of monotone C2 branches on a partition of [0,1].
This module is the only one that knows how an orbit is made;
`PiecewiseMap.orbit_mode` decides it once per map object:

- symbolic, for uniform b-branch full-branch linear maps with |slope| = b
  (doubling, tent, "linear", and custom maps of that shape): the
  i.i.d.-uniform branch-symbol sequence is drawn from a seeded generator
  (`_SymbolSource`: the raw generator bytes for a power-of-two b, the
  same bytes as its `integers` blocks, and those blocks for other b) and
  points are reconstructed from its tail, which is distributionally exact
  under Lebesgue initial conditions;
- refused with DomainError, for other piecewise-linear maps whose float
  iteration degenerates: slopes that are all powers of two shed a mantissa
  bit per step and collapse within ~53 steps, and any other linear map
  whose float orbit from a fixed start falls onto a cycle within 4096 steps;
- float iteration, for everything else.  A float stream that falls onto a
  cycle later raises DomainError instead of yielding the chunk.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.random import PCG64, Generator

from .errors import ConfigError, DomainError, MapDefinitionError

# Mantissa bits reconstructed from the symbol tail in symbolic mode.
_RECONSTRUCT_BITS = 53
# The (slopes, intercepts) table of the binary shift x -> 2x mod 1, whose
# points are read from symbol words (-0.0 == 0.0, and x - -0.0 is x)
_BINARY_SHIFT = ([2.0, 2.0], [0.0, -1.0])
# Points per block of the reconstruction: the branch data of one block's
# symbol tail is gathered once and its levels run in place.
_RECONSTRUCT_BLOCK = 1 << 13
# Midpoints of this many equal cells carry the expansion check of a map.
_VALIDATE_GRID = 10_000


@dataclass(frozen=True)
class Branch:
    """One monotone branch of a piecewise map.

    Linear branches carry their exact inverse `inv`; smooth branches are
    given by callables and invert by bracketed Newton steps on `dfn`
    (monotonicity keeps the root in the bracket, so it stays correct).
    """

    lo: float
    hi: float
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray] | None = None   # set for linear branches

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def derivative(self, x):
        return self.dfn(np.asarray(x, dtype=float))

    def image(self) -> tuple[float, float]:
        ya, yb = float(self(self.lo)), float(self(self.hi))
        return (ya, yb) if ya <= yb else (yb, ya)

    def inverse(self, y):
        """Preimage under this branch of y (y must lie in the branch image)."""
        y = np.asarray(y, dtype=float)
        if self.inv is not None:
            x = self.inv(y)
        else:
            x = _newton_inverse(self.fn, self.dfn, self.lo, self.hi, y)
        return np.clip(x, self.lo, self.hi)


# Newton has converged once a step is a few ulps of 1; the step bound covers
# a bracket halved down to one ulp
_NEWTON_TOL = 4.0 * np.finfo(float).eps
_NEWTON_MAX_STEPS = 64


def _newton_inverse(fn, dfn, lo, hi, y):
    """Vectorized Newton for a monotone fn on [lo, hi] from the chord start,
    kept in a per-point bracket: a step leaving the closed bracket becomes
    its midpoint, and a zero residual (a bracket end) gives a zero step."""
    f_lo, f_hi = float(fn(np.asarray(lo))), float(fn(np.asarray(hi)))
    rising = f_hi > f_lo
    a = np.full(y.shape, float(lo))
    b = np.full(y.shape, float(hi))
    x = np.clip(lo + (y - f_lo) * ((hi - lo) / (f_hi - f_lo)), lo, hi)
    for _ in range(_NEWTON_MAX_STEPS):
        r = fn(x) - y
        left = (r < 0.0) == rising           # x lies left of the root
        a = np.where(left, x, a)
        b = np.where(left, b, x)
        nxt = x - r / dfn(x)
        nxt = np.where((nxt < a) | (nxt > b), 0.5 * (a + b), nxt)
        step = np.max(np.abs(nxt - x), initial=0.0)
        x = nxt
        if step <= _NEWTON_TOL:
            break
    return x


@dataclass(frozen=True)
class PiecewiseMap:
    """Piecewise monotone expanding map of [0,1].

    `expansion_constant` eta > 1 certifies |f'| >= eta on the partition
    (checked on a grid at construction).  `scalar` is the whole map on one
    Python float, returning a Python float: the branch of `branch_index`,
    its formula and the clip of `apply`, bitwise `apply` on an array.
    `linear` is the (slopes, intercepts) table of a piecewise-linear map,
    branch i being x -> slopes[i] * x + intercepts[i], and None for a map
    with a smooth branch.
    """

    name: str
    breakpoints: np.ndarray
    branches: tuple[Branch, ...]
    expansion_constant: float
    scalar: Callable[[float], float]
    descriptor: dict = field(default_factory=dict)
    linear: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def dyadic_exact(self) -> bool:
        """True for maps whose symbolic orbits are exact: all branches
        linear and full on a uniform partition, with |slope| = n_branches."""
        b = self.n_branches
        uniform = np.allclose(self.breakpoints, np.linspace(0.0, 1.0, b + 1),
                              rtol=0.0, atol=1e-12)
        return (uniform and self.linear is not None and bool(np.all(np.abs(self.linear[0]) == b))
                and all(_is_full_branch(br) for br in self.branches))

    @cached_property
    def orbit_mode(self) -> str:
        """How orbits of this map are made: the one place this is decided,
        once per map object.  A refused map raises `DomainError` at every
        read, since an exception is not cached."""
        if self.dyadic_exact:
            return _SYMBOLIC
        if self.linear is None:
            return _FLOAT
        if np.all(np.frexp(np.abs(self.linear[0]))[0] == 0.5):
            raise DomainError(
                f"{self.name}: every slope is a power of two, so float iteration "
                "sheds a mantissa bit per step and collapses within ~53 steps, and "
                "the map is not a uniform full-branch map with exact symbolic orbits")
        for x in _rng(0).random(_PROBE_STARTS):
            pts, nxt = _float_orbit_chunk(self, float(x), _RECENT)
            if np.any(pts == nxt):
                raise _cycle_error(self, f"from {float(x)!r}")
        return _FLOAT

    def branch_index(self, x):
        """Index i with x in [a_i, a_{i+1})."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        return np.clip(idx, 0, self.n_branches - 1).astype(np.uint8)

    def _per_branch(self, x, method, idx=None):
        """method(branch, points) on the points of each branch, vectorized;
        idx names each point's branch (by default the branch it lies in)."""
        x = np.asarray(x, dtype=float)
        idx = self.branch_index(x) if idx is None else idx
        out = np.empty_like(x, dtype=float)
        for i, br in enumerate(self.branches):
            mask = idx == i
            if np.any(mask):
                out[mask] = method(br, x[mask])
        return out

    def apply(self, x):
        """f(x), vectorized; accepts x in [0,1)."""
        # guard against roundoff pushing an endpoint infinitesimally outside
        return np.clip(self._per_branch(x, Branch.__call__), 0.0, 1.0)

    def derivative(self, x):
        return self._per_branch(x, Branch.derivative)

    def inverse(self, y, symbols):
        """Preimage under branch symbols[i] of each y[i], with y[i] clipped
        to that branch's image."""
        return self._per_branch(y, lambda br, v: br.inverse(np.clip(v, *br.image())), symbols)

    def log_abs_derivative(self, x):
        return np.log(np.abs(self.derivative(x)))

    def validate(self) -> None:
        """Check monotonicity, image containment, and the expansion bound on
        a grid; raises MapDefinitionError on failure."""
        if self.expansion_constant <= 1.0:
            raise MapDefinitionError(
                f"{self.name}: eta={self.expansion_constant} is not expanding (need eta > 1)")
        if self.n_branches > 256:            # branch symbols are uint8
            raise MapDefinitionError(f"{self.name}: at most 256 branches (symbols are bytes)")
        bp = self.breakpoints
        if bp[0] != 0.0 or bp[-1] != 1.0 or np.any(np.diff(bp) <= 0):
            raise MapDefinitionError(f"{self.name}: breakpoints must be sorted from 0 to 1")
        if len(self.branches) != len(bp) - 1:
            raise MapDefinitionError(f"{self.name}: need one branch per partition interval")
        for i, br in enumerate(self.branches):
            xs = np.linspace(br.lo, br.hi, 257)
            ys = br(xs)
            d = np.diff(ys)
            if not (np.all(d > 0) or np.all(d < 0)):
                raise MapDefinitionError(f"{self.name}: branch {i} is not monotone")
            if ys.min() < -1e-12 or ys.max() > 1 + 1e-12:
                raise MapDefinitionError(f"{self.name}: branch {i} leaves [0,1]")
        xs = np.linspace(0.0, 1.0, _VALIDATE_GRID, endpoint=False) + 0.5 / _VALIDATE_GRID
        expansion = np.abs(self.derivative(xs))
        # constant-slope maps attain eta exactly; allow a roundoff margin
        if expansion.min() < self.expansion_constant - 1e-9:
            raise MapDefinitionError(
                f"{self.name}: |f'| dips to {expansion.min():.6g} "
                f"below eta={self.expansion_constant}"
            )


# ---------------------------------------------------------------------------
# built-in maps
# ---------------------------------------------------------------------------

def _linear_branch(lo: float, hi: float, s: float, c: float) -> Branch:
    return Branch(
        lo=lo,
        hi=hi,
        fn=lambda x: s * x + c,
        dfn=lambda x: np.full_like(np.asarray(x, dtype=float), s),
        inv=lambda y: (y - c) / s,
    )


def _piecewise_linear(name: str, breakpoints, slopes: Sequence[float], intercepts,
                      descriptor: dict) -> PiecewiseMap:
    """Piecewise-linear map with the given slopes on the given partition.
    Without intercepts each branch is anchored at 0 (rising) or 1 (falling)
    at its left end, so on a uniform partition with |slope| = b it is full."""
    bp = np.asarray(breakpoints, dtype=float)
    if len(slopes) != len(bp) - 1:
        raise MapDefinitionError("need one slope per partition interval")
    if intercepts is not None and len(intercepts) != len(slopes):
        raise MapDefinitionError("need one intercept per slope")
    # Python floats, so that the twin stays off numpy scalars
    S = [float(s) for s in slopes]
    C = ([float(c) for c in intercepts] if intercepts is not None else
         [float(-s * a if s > 0 else 1.0 - s * a) for s, a in zip(S, bp[:-1])])
    inner = bp[1:-1].tolist()

    def scalar(x):
        # the branch of branch_index: [a_i, a_{i+1}), and the last one at 1
        i = bisect_right(inner, x)
        x = S[i] * x + C[i]
        return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x

    m = PiecewiseMap(
        name=name,
        breakpoints=bp,
        branches=tuple(_linear_branch(bp[i], bp[i + 1], S[i], C[i]) for i in range(len(S))),
        expansion_constant=min(abs(s) for s in S),
        scalar=scalar,
        descriptor=descriptor,
        linear=(np.array(S), np.array(C)),
    )
    m.validate()
    return m


def _is_full_branch(br: Branch) -> bool:
    ya, yb = br.image()
    return abs(ya) < 1e-12 and abs(yb - 1.0) < 1e-12


def _perturbed_doubling(eps: float, descriptor: dict) -> PiecewiseMap:
    """Smooth two-branch perturbation of the doubling map:
    f(x) = 2x + eps*sin(2 pi x) (mod 1).  Full branches, nonconstant slope."""
    if not 0.0 < eps < 1.0 / (2.0 * math.pi):
        raise MapDefinitionError("perturbed doubling needs 0 < eps < 1/(2 pi)")
    two_pi = 2.0 * math.pi

    def branch(shift):
        return lambda x: 2.0 * x - shift + eps * np.sin(two_pi * x)

    def df(x):
        return 2.0 + eps * two_pi * np.cos(two_pi * x)

    def scalar(x):
        # the operations of `branch` in its order; 2x - 0.0 is bitwise 2x,
        # and math.sin gives the bits of np.sin
        x = 2.0 * x - (0.0 if x < 0.5 else 1.0) + eps * math.sin(two_pi * x)
        return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x

    branches = tuple(Branch(lo=lo, hi=hi, fn=branch(shift), dfn=df)
                     for lo, hi, shift in ((0.0, 0.5, 0.0), (0.5, 1.0, 1.0)))
    m = PiecewiseMap(
        name="perturbed-doubling",
        breakpoints=np.array([0.0, 0.5, 1.0]),
        branches=branches,
        expansion_constant=2.0 - eps * two_pi,
        scalar=scalar,
        descriptor=descriptor,
    )
    m.validate()
    return m


def _key(name: str) -> str:
    """A map's or an observable's name as its constructor reads it: case,
    surrounding blanks, and `_` versus `-` do not matter."""
    return name.strip().lower().replace("_", "-")


# The keys each map reads; it refuses the others unless they hold their
# defaults: an empty list, or DEFAULT_EPS (perturbed doubling's eps).
DEFAULT_EPS = 0.05
_READS = {"doubling": (), "tent": (), "linear": ("slopes",), "perturbed-doubling": ("eps",),
          "custom": ("breakpoints", "slopes", "intercepts")}


def make_map(name: str, slopes: Sequence[float] = (), breakpoints: Sequence[float] = (),
             intercepts: Sequence[float] = (), eps: float = DEFAULT_EPS) -> PiecewiseMap:
    """Build a map from the keys of a `[map]` section; each map reads its own
    keys, and an empty list is a key left out.

    Built-ins: "doubling", "tent", "linear" (slopes), "perturbed-doubling"
    (eps), "custom" (breakpoints, slopes [, intercepts]).  An unknown name,
    a map short of a key it needs, or a key the map does not read set away
    from its default, raises ConfigError.
    """
    key = _key(name)
    if key not in _READS:
        raise ConfigError([(0, f"unknown map {name!r}")])
    given = {"slopes": slopes, "breakpoints": breakpoints, "intercepts": intercepts, "eps": eps}
    reads = {k: given[k] for k in _READS[key]}
    unread = [k for k, v in given.items()
              if k not in reads and (v != DEFAULT_EPS if k == "eps" else len(v))]
    if unread:
        raise ConfigError([(0, f"{key} map does not read {' and '.join(unread)}")])
    if key == "perturbed-doubling":
        return _perturbed_doubling(float(eps), {"name": key, **reads})
    missing = [k for k, v in reads.items() if k != "intercepts" and not len(v)]
    if missing:
        raise ConfigError([(0, f"{key} map needs {' and '.join(missing)}")])
    if key != "custom":
        slopes = {"doubling": [2.0, 2.0], "tent": [2.0, -2.0]}.get(key, slopes)
        breakpoints, intercepts = np.linspace(0.0, 1.0, len(slopes) + 1), ()
    return _piecewise_linear(key, breakpoints, slopes, intercepts if len(intercepts) else None,
                             {"name": key, **reads})


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observable:
    """Real observable on [0,1].

    `variation_bound`, an upper bound on the total variation, is the
    certificate `_branch_values` reads; None means u is never certified
    constant on branch cells.  `mu_mean` is subtracted on evaluation, so a
    centered observable is the same object with its invariant mean stored.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    variation_bound: float | None = None
    mu_mean: float = 0.0

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float)) - self.mu_mean

    def raw(self, x):
        """Evaluate without mean subtraction."""
        return self.fn(np.asarray(x, dtype=float))

    def with_mean(self, mu: float) -> "Observable":
        return replace(self, mu_mean=float(mu))


def sawtooth() -> Observable:
    return Observable("sawtooth", lambda x: x - 0.5)


def coin() -> Observable:
    """Plus/minus one-half coin: indicator of the right half minus 1/2."""
    return Observable(
        "coin",
        lambda x: np.where(np.asarray(x, dtype=float) >= 0.5, 0.5, -0.5),
        variation_bound=1.0,
    )


def log_derivative(pmap: PiecewiseMap) -> Observable:
    """u = log|f'|, the entropy observable."""
    xs = np.linspace(0.0, 1.0, 4096, endpoint=False) + 0.5 / 4096
    vals = pmap.log_abs_derivative(xs)
    return Observable(
        f"log-deriv({pmap.name})",
        lambda x: pmap.log_abs_derivative(x),
        variation_bound=float(np.sum(np.abs(np.diff(vals)))),
    )


def coboundary(pmap: PiecewiseMap) -> Observable:
    """u = x - f(x); Birkhoff sums telescope, so the CLT variance is zero."""
    return Observable(f"coboundary({pmap.name})",
                      lambda x: np.asarray(x, dtype=float) - pmap.apply(x))


def table_observable(xs: Sequence[float], ys: Sequence[float]) -> Observable:
    """Piecewise-linear interpolation of sample points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if (len(xs) < 2 or len(ys) != len(xs) or np.any(np.diff(xs) <= 0)
            or not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys)))):
        raise ConfigError([(0, "table observable needs at least two strictly increasing "
                               "finite xs and one finite ys value for each")])
    return Observable("table", lambda x: np.interp(np.asarray(x, dtype=float), xs, ys))


def make_observable(name: str, pmap: PiecewiseMap | None = None,
                    xs: Sequence[float] = (), ys: Sequence[float] = ()) -> Observable:
    """Build an observable from the `name`, `xs` and `ys` keys of an
    `[observable]` section: "sawtooth", "coin", "log-deriv" and "coboundary"
    (which read the map), and "table" (xs, ys)."""
    key = _key(name)
    if key == "table":
        return table_observable(xs, ys)
    if key not in ("sawtooth", "coin", "log-deriv", "log-derivative", "coboundary"):
        raise ConfigError([(0, f"unknown observable {name!r}")])
    unread = [k for k, v in (("xs", xs), ("ys", ys)) if len(v)]
    if unread:
        raise ConfigError([(0, f"{key} observable does not read {' and '.join(unread)}")])
    if key == "sawtooth":
        return sawtooth()
    if key == "coin":
        return coin()
    if pmap is None:
        raise ValueError(f"{key} observable needs the map")
    return coboundary(pmap) if key == "coboundary" else log_derivative(pmap)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Orbit:
    """Materialized orbit: points x, f(x), ..., and their branch symbols."""

    points: np.ndarray
    symbols: np.ndarray


_SYMBOLIC = "symbolic-exact"
_FLOAT = "float-iterate"

# A float orbit whose next point is one of its last _RECENT points has
# fallen onto a cycle; a Lebesgue-typical float orbit of an expanding map
# comes back to a point only after ~2^26 steps.  Linear maps are probed
# from _PROBE_STARTS fixed starts for _RECENT steps before they stream.
_RECENT = 4096
_PROBE_STARTS = 4


def _cycle_error(pmap: PiecewiseMap, orbit_of: str) -> DomainError:
    return DomainError(f"{pmap.name}: the float orbit {orbit_of} falls onto a cycle; "
                       "float iteration of this map degenerates")


def _rng(seed: int) -> Generator:
    return Generator(PCG64(seed))


_SYMBOL_BLOCK = 1 << 16


class _SymbolSource:
    """Seeded stream of b-branch symbols, drawn in whole blocks of
    _SYMBOL_BLOCK, so the stream a seed defines does not depend on how
    consumers chunk their reads.

    A block is `Generator.integers(0, b, _SYMBOL_BLOCK, uint8)`.  For
    b = 2^j that is Lemire's bounded draw on the generator's raw 64-bit
    words, read as bytes low byte first, and its rejection threshold
    (256 - b) mod b is 0: every symbol is one raw byte shifted right by
    8 - j (b = 256 takes the bytes as they are).  Those alphabets read the
    raw words themselves, all the blocks of one take in one call, six times
    cheaper and with the same bytes; other b draw `integers` blocks.
    """

    def __init__(self, seed: int, n_branches: int):
        self._gen = _rng(seed)
        self._b = n_branches
        j = n_branches.bit_length() - 1
        self._shift = 8 - j if n_branches == 1 << j and 1 <= j <= 8 else None
        self._rest = np.empty(0, dtype=np.uint8)

    def _blocks(self, k: int) -> np.ndarray:
        if self._shift is None:
            return np.concatenate([self._gen.integers(0, self._b, size=_SYMBOL_BLOCK,
                                                      dtype=np.uint8) for _ in range(k)])
        words = self._gen.bit_generator.random_raw(k * _SYMBOL_BLOCK // 8)
        raw = words.astype("<u8", copy=False).view(np.uint8)
        return np.right_shift(raw, self._shift, out=raw)

    def take(self, m: int) -> np.ndarray:
        short = m - len(self._rest)
        if short > 0:
            drawn = self._blocks(-(-short // _SYMBOL_BLOCK))
            self._rest = np.concatenate([self._rest, drawn]) if len(self._rest) else drawn
        out, self._rest = self._rest[:m], self._rest[m:]
        return out


def _symbol_tail_depth(pmap: PiecewiseMap) -> int:
    b = pmap.n_branches
    return int(math.ceil(_RECONSTRUCT_BITS / math.log2(b)))


def points_from_symbols(pmap: PiecewiseMap, symbols: np.ndarray, n: int) -> np.ndarray:
    """Reconstruct orbit points from the symbol-sequence tail (symbolic mode).

    x_t is the image of 1/2 under the inverse-branch word of depth T that
    follows position t; the truncation error is below one float ulp.
    Requires len(symbols) >= n + T.  2-d input reconstructs each row.
    Each block of points gathers the branch data of its symbol tail once
    and runs the T levels in place on contiguous slices of it; the binary
    shift reads its points from symbol words instead (`_binary_shift_points`).
    """
    symbols = np.asarray(symbols)
    depth = _symbol_tail_depth(pmap)
    if symbols.shape[-1] < n + depth:
        raise ValueError("symbol stream too short for point reconstruction")
    slopes, intercepts = pmap.linear
    if (slopes.tolist(), intercepts.tolist()) == _BINARY_SHIFT:
        return _binary_shift_points(symbols, n)
    x = np.full(symbols.shape[:-1] + (n,), 0.5)
    for a in range(0, n, _RECONSTRUCT_BLOCK):
        m = min(_RECONSTRUCT_BLOCK, n - a)
        tail = symbols[..., a : a + m + depth]
        c, s = intercepts[tail], slopes[tail]
        xb = x[..., a : a + m]
        for d in range(depth - 1, -1, -1):
            np.subtract(xb, c[..., d : d + m], out=xb)
            np.divide(xb, s[..., d : d + m], out=xb)
    return x


def _binary_shift_points(symbols: np.ndarray, n: int) -> np.ndarray:
    """`points_from_symbols` of the binary shift: x_t = float(2 J_t + 1) 2^-54,
    J_t the 53-bit word s_t s_{t+1} ... s_{t+52}, bit for bit the levels
    x -> (x + s)/2 from x = 1/2.

    Each level but the last is exact.  The last adds s_t to a number with
    53 fractional bits, so 1 + x needs 54 bits and rounds once, half to
    even; the int64 -> float64 conversion of the 54-bit 2 J_t + 1 rounds
    the same way, and the halving and the power-of-two scale are exact.
    Words are built per block from the packed bits: the 8 bytes at byte q
    (eight shifted ORs) hold the words of points 8q ... 8q + 7.
    """
    lead = symbols.shape[:-1]
    x = np.empty(lead + (n,))
    for a in range(0, n, _RECONSTRUCT_BLOCK):
        m = min(_RECONSTRUCT_BLOCK, n - a)
        q = -(-m // 8)
        packed = np.zeros(lead + (q + 7,), dtype=np.uint8)
        bits = np.packbits(symbols[..., a : a + m + _RECONSTRUCT_BITS - 1], axis=-1)
        packed[..., : bits.shape[-1]] = bits
        word = np.zeros(lead + (q,), dtype=np.uint64)
        for i in range(8):
            word |= packed[..., i : i + q].astype(np.uint64) << np.uint64(56 - 8 * i)
        odd = np.empty(lead + (q, 8), dtype=np.uint64)
        for r in range(8):
            # the top 54 bits from bit r on, with the last one set: 2 J + 1
            odd[..., r] = (word << np.uint64(r)) >> np.uint64(10)
        odd |= np.uint64(1)
        odd = odd.reshape(lead + (8 * q,))[..., :m]
        np.multiply(odd.view(np.int64), 2.0**-54, out=x[..., a : a + m])
    return x


def _float_orbit_chunk(pmap: PiecewiseMap, x: float, m: int) -> tuple[np.ndarray, float]:
    """Fill a chunk of a float-iterated orbit starting at x in [0, 1];
    returns the chunk and the next start point.  Each step is one call of
    the map's scalar twin, bitwise PiecewiseMap.apply; the points go
    through a memoryview (8 B each, where a list would hold 32 B)."""
    step = pmap.scalar
    out = np.empty(m)
    mv = memoryview(out)
    for t in range(m):
        mv[t] = x
        x = step(x)
    return out, x


def _orbit_chunks(pmap: PiecewiseMap, seed: int, total: int | None, chunk: int,
                  points: bool = True
                  ) -> Iterator[tuple[np.ndarray | None, np.ndarray | None]]:
    """The orbit of `seed` as (symbols, points) chunks of at most `chunk`
    steps, `total` steps in all (None: without end), in `pmap.orbit_mode`.

    Symbolic mode draws the branch symbols from the seed's `_SymbolSource` and
    carries the reconstruction lookahead across chunks; `points=False`
    yields the drawn symbols as they are and None for points.  Float mode
    starts at a uniform draw from the seed, carries the current point across
    chunks and yields None for symbols (readers take `pmap.branch_index`);
    it raises DomainError in place of a chunk after which the orbit returns
    to one of its last _RECENT points.  The stream does not depend on `chunk`.
    """
    def sizes():
        done = 0
        while total is None or done < total:
            m = chunk if total is None else min(chunk, total - done)
            yield m
            done += m

    if pmap.orbit_mode == _SYMBOLIC:
        src = _SymbolSource(seed, pmap.n_branches)
        if not points:
            for m in sizes():
                yield src.take(m), None
            return
        syms = src.take(_symbol_tail_depth(pmap))
        for m in sizes():
            syms = np.concatenate([syms, src.take(m)])
            yield syms[:m], points_from_symbols(pmap, syms, m)
            syms = syms[m:]
    else:
        x = float(_rng(seed).random())
        recent = np.empty(0)
        for m in sizes():
            pts, x = _float_orbit_chunk(pmap, x, m)
            recent = np.concatenate([recent, pts[-_RECENT:]])[-_RECENT:]
            if np.any(recent == x):
                raise _cycle_error(pmap, f"of seed {seed}")
            yield None, pts


def orbit(pmap: PiecewiseMap, seed: int, n: int) -> Orbit:
    """The first n points of the orbit of `seed`, with their symbols, in the
    mode the map decides (see `PiecewiseMap.orbit_mode`)."""
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    syms, pts = next(_orbit_chunks(pmap, seed, n, n))
    return Orbit(points=pts, symbols=pmap.branch_index(pts) if syms is None else syms)


def _branch_values(pmap: PiecewiseMap, u: Observable) -> np.ndarray | None:
    """u on each branch cell when u is certified constant there, else None.

    Each cell is sampled at its left end, its middle and the float below its
    right end.  When the samples agree within every cell and their summed
    variation reaches u's variation bound, no variation is left for u inside
    any cell.  Observables without a variation bound are never certified.
    """
    if u.variation_bound is None:
        return None
    bp = pmap.breakpoints
    xs = np.stack([bp[:-1], 0.5 * (bp[:-1] + bp[1:]), np.nextafter(bp[1:], 0.0)], axis=1)
    raw = u.raw(xs.ravel()).reshape(xs.shape)
    if np.any(raw != raw[:, :1]) or np.sum(np.abs(np.diff(raw.ravel()))) < u.variation_bound:
        return None
    return u(xs[:, 0])


# Integer weights of a branch-value table stay below 2^15 in magnitude, so
# they gather as int8/int16 and their sums accumulate in int32/int64.
_WEIGHT_BITS = 15


def _unit_weights(table: np.ndarray, length: int) -> tuple[np.ndarray, float] | None:
    """(weights, unit) with table == weights * unit exactly: small integers
    times the largest power-of-two unit that makes every entry an integer.

    Given only when |weights| < 2^15 and max |weights| * length < 2^53.  Then
    every float sum of at most `length` table values is an exact multiple of
    the unit, so integer sums times the unit carry its bits.  A table with a
    -0.0 entry (whose float sums can end at -0.0), or with no entry of normal
    size, is left to float sums.
    """
    peak = float(np.max(np.abs(table)))
    if not 2.0**-960 < peak < 2.0**960 or np.any(np.signbit(table) & (table == 0.0)):
        return None
    top = math.frexp(peak)[1]                  # 2^(top-1) <= peak < 2^top
    for q in range(top - 1, top - 1 - _WEIGHT_BITS, -1):
        unit = math.ldexp(1.0, q)
        weights = table / unit
        if np.all(weights == np.rint(weights)):
            wmax = float(np.max(np.abs(weights)))
            if wmax * length >= 2.0**53:
                return None
            return weights.astype(np.int8 if wmax < 2**7 else np.int16), unit
    return None


class IntegerRead(NamedTuple):
    """How integer chunks carry u: u = unit * (w0 + d * c) for each entry c.

    The entries are the branch symbols themselves when the weights of the
    branch-value table are w0, w0 + d, ..., w0 + (b - 1) d with d > 0, and
    the gathered weights (w0 = 0, d = 1) otherwise.  A sum of k entries s
    is the integer weight sum k w0 + d s, and d > 0 keeps the order of sums.
    """

    unit: float
    w0: int
    d: int


def _table_reader(pmap: PiecewiseMap, u: Observable, length: int, exact: bool
                  ) -> tuple[Callable[[np.ndarray], np.ndarray] | None, IntegerRead | None]:
    """How a stream of `length` values along an orbit of pmap reads u: (read, view).

    `read` maps branch symbols to chunk entries when the orbit is symbolic
    and u is certified constant on each branch cell, and is None when u
    must be evaluated at points.  With `exact`, a table of small dyadic
    values (see `_unit_weights`) gives integer entries that carry u as
    `view` says; otherwise `view` is None and the entries are float values.
    """
    table = _branch_values(pmap, u) if pmap.orbit_mode == _SYMBOLIC else None
    found = _unit_weights(table, length) if exact and table is not None else None
    if found is None:
        return (None if table is None else table.__getitem__), None
    weights, unit = found
    w0, d = int(weights[0]), int(weights[1]) - int(weights[0])
    if d > 0 and np.array_equal(weights, w0 + d * np.arange(len(weights))):
        return (lambda syms: syms), IntegerRead(unit, w0, d)
    # np.take gathers 1- and 2-byte items faster than fancy indexing does
    return weights.take, IntegerRead(unit, 0, 1)


def _orbit_values(pmap: PiecewiseMap, u: Observable, seed: int, total: int, chunk: int,
                  exact: bool) -> tuple[IntegerRead | None, Iterator[np.ndarray]]:
    """(view, chunks): u along the orbit of `seed`, `total` values in all, in
    chunks of at most `chunk`.  With `exact`, a symbolic orbit of a table of
    small dyadic values yields integer chunks that carry u as `view` says
    (the drawn symbol chunks themselves, uncopied, for an evenly spaced
    table); otherwise view is None and the chunks are float values."""
    read, view = _table_reader(pmap, u, total, exact)

    def chunks():
        for syms, pts in _orbit_chunks(pmap, seed, total, chunk, points=read is None):
            yield u(pts) if read is None else read(syms)
    return view, chunks()


def orbit_value_chunks(pmap: PiecewiseMap, u: Observable, seed: int, total: int,
                       chunk: int = 1 << 20) -> Iterator[np.ndarray]:
    """Stream u along the orbit of `seed` in chunks, `total` values in all,
    O(chunk) memory.  Symbolic orbits read an observable certified constant
    on each branch cell from its branch-value table, without reconstructing
    points (bitwise the same values)."""
    yield from _orbit_values(pmap, u, seed, total, chunk, exact=False)[1]


def symbol_chunks(pmap: PiecewiseMap, seed: int, chunk: int = 1 << 12,
                  limit: int | None = None) -> Iterator[np.ndarray]:
    """Stream the branch symbols of the orbit of `seed` in chunks (without
    end unless `limit` is given).  The stream does not depend on `chunk`."""
    for syms, pts in _orbit_chunks(pmap, seed, limit, chunk, points=False):
        yield pmap.branch_index(pts) if syms is None else syms


def trial_value_blocks(pmap: PiecewiseMap, u: Observable, span: int, trials: int,
                       seed: int, chunk: int = 1 << 14
                       ) -> tuple[IntegerRead | None, Iterator[np.ndarray]]:
    """(view, blocks): u along `span` steps from each of `trials`
    independent Lebesgue starts, as (rows, span) blocks of at most `chunk`
    rows.

    Symbolic maps cut disjoint rows from the seed's symbol stream (exactly
    independent trials); a row holds `span` symbols, plus the reconstruction
    lookahead unless u is read from its branch-value table.  A table of
    small dyadic values gives integer blocks that carry u as `view` says
    (see `_table_reader`: an evenly spaced table's blocks are the symbol
    rows themselves); otherwise view is None and the blocks are float values.
    Float maps iterate uniform starts drawn from the seed, all rows of a
    block at once.
    """
    read, view = _table_reader(pmap, u, span, exact=True)

    def symbolic_blocks():
        width = span if read is not None else span + _symbol_tail_depth(pmap)
        for syms, _ in _orbit_chunks(pmap, seed, trials * width, chunk * width, points=False):
            block = syms.reshape(-1, width)
            yield read(block) if read is not None else u(points_from_symbols(pmap, block, span))

    def float_blocks():
        gen = _rng(seed)
        for done in range(0, trials, chunk):
            x = gen.random(min(chunk, trials - done))
            vals = np.empty((len(x), span))
            for j in range(span):
                vals[:, j] = u(x)
                x = pmap.apply(x)
            yield vals
    return view, (symbolic_blocks() if pmap.orbit_mode == _SYMBOLIC else float_blocks())
