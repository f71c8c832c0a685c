"""Piecewise expanding interval maps, observables, and orbit generation.

A map is a finite family of monotone C2 branches on a partition of [0,1].
This module is the only one that knows how an orbit is made; `_orbit_mode`
decides it once per map:

- symbolic, for uniform b-branch full-branch linear maps with |slope| = b
  (doubling, tent, "linear", and custom maps of that shape): the
  i.i.d.-uniform branch-symbol sequence is drawn from a seeded generator
  and points are reconstructed from its tail, which is
  distributionally exact under Lebesgue initial conditions;
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
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DomainError, MapDefinitionError

# Mantissa bits reconstructed from the symbol tail in symbolic mode.
_RECONSTRUCT_BITS = 53
# Points per block of the reconstruction: the branch data of one block's
# symbol tail is gathered once and its levels run in place.
_RECONSTRUCT_BLOCK = 1 << 13
# Midpoints of this many equal cells carry the expansion check of a map.
_VALIDATE_GRID = 10_000


@dataclass(frozen=True)
class Branch:
    """One monotone branch of a piecewise map.

    Linear branches carry slope/intercept and have exact inverses; smooth
    branches are given by callables and invert by bracketed Newton steps on
    `dfn` (monotonicity keeps the root in the bracket, so it stays correct).
    A smooth branch may carry `scalar`, the same formula as `fn` on one
    Python float, which must give the bits of `fn` on an array; float
    iteration steps with it (a linear `fn` already maps a float to a float,
    so linear branches leave it None).
    """

    lo: float
    hi: float
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    slope: float | None = None          # set for linear branches
    intercept: float | None = None
    scalar: Callable[[float], float] | None = None

    @property
    def is_linear(self) -> bool:
        return self.slope is not None

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
        if self.is_linear:
            x = (y - self.intercept) / self.slope
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
    (checked on a grid at construction).
    """

    name: str
    breakpoints: np.ndarray
    branches: tuple[Branch, ...]
    expansion_constant: float
    descriptor: dict = field(default_factory=dict)

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
        return uniform and all(br.is_linear and abs(br.slope) == b and _is_full_branch(br)
                               for br in self.branches)

    def branch_index(self, x):
        """Index i with x in [a_i, a_{i+1})."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        return np.clip(idx, 0, self.n_branches - 1).astype(np.uint8)

    def apply(self, x):
        """f(x), vectorized; accepts x in [0,1)."""
        x = np.asarray(x, dtype=float)
        idx = self.branch_index(x)
        out = np.empty_like(x, dtype=float)
        for i, br in enumerate(self.branches):
            mask = idx == i
            if np.any(mask):
                out[mask] = br(x[mask])
        # guard against roundoff pushing an endpoint infinitesimally outside
        return np.clip(out, 0.0, 1.0)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        idx = self.branch_index(x)
        out = np.empty_like(x, dtype=float)
        for i, br in enumerate(self.branches):
            mask = idx == i
            if np.any(mask):
                out[mask] = br.derivative(x[mask])
        return out

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

def _linear_branch(lo: float, hi: float, slope: float, intercept: float) -> Branch:
    # Python floats, so that a scalar step stays off numpy scalars
    slope, intercept = float(slope), float(intercept)
    return Branch(
        lo=lo,
        hi=hi,
        fn=lambda x, s=slope, c=intercept: s * x + c,
        dfn=lambda x, s=slope: np.full_like(np.asarray(x, dtype=float), s),
        slope=slope,
        intercept=intercept,
    )


def _piecewise_linear(name: str, breakpoints, slopes: Sequence[float], intercepts,
                      descriptor: dict) -> PiecewiseMap:
    """Piecewise-linear map with the given slopes on the given partition.
    Without intercepts each branch is anchored at 0 (rising) or 1 (falling)
    at its left end, so on a uniform partition with |slope| = b it is full."""
    bp = np.asarray(breakpoints, dtype=float)
    if len(slopes) != len(bp) - 1:
        raise MapDefinitionError("need one slope per partition interval")
    branches = []
    for i, s in enumerate(slopes):
        s = float(s)
        if intercepts is not None:
            c = float(intercepts[i])
        else:
            c = -s * bp[i] if s > 0 else 1.0 - s * bp[i]
        branches.append(_linear_branch(bp[i], bp[i + 1], s, c))
    m = PiecewiseMap(
        name=name,
        breakpoints=bp,
        branches=tuple(branches),
        expansion_constant=min(abs(float(s)) for s in slopes),
        descriptor=descriptor,
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

    def branch(shift, sin):
        # one formula for the array and the scalar form; 2x - 0.0 is bitwise
        # 2x, and math.sin gives the bits of np.sin
        return lambda x: 2.0 * x - shift + eps * sin(two_pi * x)

    def df(x):
        return 2.0 + eps * two_pi * np.cos(two_pi * x)

    branches = tuple(
        Branch(lo=lo, hi=hi, fn=branch(shift, np.sin), dfn=df,
               scalar=branch(shift, math.sin))
        for lo, hi, shift in ((0.0, 0.5, 0.0), (0.5, 1.0, 1.0)))
    m = PiecewiseMap(
        name="perturbed-doubling",
        breakpoints=np.array([0.0, 0.5, 1.0]),
        branches=branches,
        expansion_constant=2.0 - eps * two_pi,
        descriptor=descriptor,
    )
    m.validate()
    return m


def make_map(name: str, **params) -> PiecewiseMap:
    """Build a map from a descriptor.

    Built-ins: "doubling", "tent", "linear" (params: slopes),
    "perturbed-doubling" (params: eps, default 0.05), "custom"
    (params: breakpoints, slopes [, intercepts]).
    """
    key = name.strip().lower().replace("_", "-")
    descriptor = {"name": key, **params}
    if key in ("doubling", "tent", "linear"):
        slopes = {"doubling": [2.0, 2.0], "tent": [2.0, -2.0]}.get(key, params.get("slopes"))
        if not slopes:
            raise MapDefinitionError("linear map needs a slopes list")
        return _piecewise_linear(key, np.linspace(0.0, 1.0, len(slopes) + 1), slopes,
                                 None, descriptor)
    if key == "perturbed-doubling":
        return _perturbed_doubling(float(params.get("eps", 0.05)), descriptor)
    if key == "custom":
        bp = params.get("breakpoints")
        slopes = params.get("slopes")
        if bp is None or slopes is None:
            raise MapDefinitionError("custom map needs breakpoints and slopes")
        return _piecewise_linear("custom", bp, slopes, params.get("intercepts"), descriptor)
    raise ConfigError([(0, f"unknown map {name!r}")])


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observable:
    """Real observable on [0,1] with a regularity certificate.

    At least one of `lipschitz_constant` / `variation_bound` must be set.
    `mu_mean` is subtracted on evaluation, so a centered observable is the
    same object with its invariant mean stored.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float | None = None
    variation_bound: float | None = None
    mu_mean: float = 0.0

    def __post_init__(self):
        if self.lipschitz_constant is None and self.variation_bound is None:
            raise ValueError("observable needs a Lipschitz constant or a variation bound")

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float)) - self.mu_mean

    def raw(self, x):
        """Evaluate without mean subtraction."""
        return self.fn(np.asarray(x, dtype=float))

    def with_mean(self, mu: float) -> "Observable":
        return replace(self, mu_mean=float(mu))


def sawtooth() -> Observable:
    return Observable("sawtooth", lambda x: x - 0.5, lipschitz_constant=1.0)


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
    lip = float(np.max(np.abs(np.diff(vals))) * 4096) if len(vals) > 1 else 0.0
    return Observable(
        f"log-deriv({pmap.name})",
        lambda x: pmap.log_abs_derivative(x),
        lipschitz_constant=max(lip, 1e-12),
        variation_bound=float(np.sum(np.abs(np.diff(vals)))),
    )


def coboundary(pmap: PiecewiseMap) -> Observable:
    """u = x - f(x); Birkhoff sums telescope, so the CLT variance is zero."""
    sup_df = float(np.max(np.abs(pmap.derivative(
        np.linspace(0.0, 1.0, 2048, endpoint=False) + 0.5 / 2048))))
    return Observable(
        f"coboundary({pmap.name})",
        lambda x: np.asarray(x, dtype=float) - pmap.apply(x),
        lipschitz_constant=1.0 + sup_df,
    )


def table_observable(xs: Sequence[float], ys: Sequence[float]) -> Observable:
    """Piecewise-linear interpolation of sample points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or np.any(np.diff(xs) <= 0):
        raise ValueError("table needs at least two strictly increasing x values")
    slopes = np.diff(ys) / np.diff(xs)
    return Observable(
        "table",
        lambda x: np.interp(np.asarray(x, dtype=float), xs, ys),
        lipschitz_constant=float(np.max(np.abs(slopes))),
    )


def make_observable(name: str, pmap: PiecewiseMap | None = None, **params) -> Observable:
    key = name.strip().lower().replace("_", "-")
    if key == "sawtooth":
        return sawtooth()
    if key == "coin":
        return coin()
    if key in ("log-deriv", "log-derivative"):
        if pmap is None:
            raise ValueError("log-deriv observable needs the map")
        return log_derivative(pmap)
    if key == "coboundary":
        if pmap is None:
            raise ValueError("coboundary observable needs the map")
        return coboundary(pmap)
    if key == "table":
        return table_observable(params["xs"], params["ys"])
    raise ConfigError([(0, f"unknown observable {name!r}")])


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Orbit:
    """Materialized orbit: points x, f(x), ..., and their branch symbols."""

    seed: int
    mode: str                      # "float-iterate" | "symbolic-exact"
    points: np.ndarray
    symbols: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


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


def _orbit_mode(pmap: PiecewiseMap) -> str:
    """How orbits of pmap are made: the one place this is decided."""
    if pmap.dyadic_exact:
        return _SYMBOLIC
    if not all(br.is_linear for br in pmap.branches):
        return _FLOAT
    if all(math.frexp(abs(br.slope))[0] == 0.5 for br in pmap.branches):
        raise DomainError(
            f"{pmap.name}: every slope is a power of two, so float iteration "
            "sheds a mantissa bit per step and collapses within ~53 steps, and "
            "the map is not a uniform full-branch map with exact symbolic orbits")
    for x in _rng(0).random(_PROBE_STARTS):
        pts, nxt = _float_orbit_chunk(pmap, float(x), _RECENT)
        if np.any(pts == nxt):
            raise _cycle_error(pmap, f"from {float(x)!r}")
    return _FLOAT


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


_SYMBOL_BLOCK = 1 << 16


class _SymbolSource:
    """Seeded symbol stream drawn in fixed-size blocks, so the stream a seed
    defines does not depend on how consumers chunk their reads."""

    def __init__(self, seed: int, n_branches: int):
        self._gen = _rng(seed)
        self._b = n_branches
        self._buf: list[np.ndarray] = []
        self._avail = 0

    def take(self, m: int) -> np.ndarray:
        while self._avail < m:
            self._buf.append(
                self._gen.integers(0, self._b, size=_SYMBOL_BLOCK, dtype=np.uint8))
            self._avail += _SYMBOL_BLOCK
        flat = np.concatenate(self._buf) if len(self._buf) > 1 else self._buf[0]
        out, rest = flat[:m], flat[m:]
        self._buf = [rest]
        self._avail = len(rest)
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
    and runs the T levels in place on contiguous slices of it.
    """
    symbols = np.asarray(symbols)
    depth = _symbol_tail_depth(pmap)
    if symbols.shape[-1] < n + depth:
        raise ValueError("symbol stream too short for point reconstruction")
    slopes = np.array([br.slope for br in pmap.branches])
    intercepts = np.array([br.intercept for br in pmap.branches])
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


def _scalar_step(br: Branch) -> Callable[[float], float]:
    """br on one Python float, bitwise `br.fn` on an array: its scalar twin,
    else `fn` itself (a smooth branch without a twin steps on numpy
    scalars, slower but with the same bits)."""
    return br.scalar or br.fn


def _float_orbit_chunk(pmap: PiecewiseMap, x: float, m: int) -> tuple[np.ndarray, float]:
    """Fill a chunk of a float-iterated orbit starting at x in [0, 1];
    returns the chunk and the next start point.  Scalar fast path: each step
    is one branch twin on a Python float, bitwise PiecewiseMap.apply."""
    inner = pmap.breakpoints[1:-1].tolist()
    steps = [_scalar_step(br) for br in pmap.branches]
    out = np.empty(m, dtype=float)
    for t in range(m):
        out[t] = x
        # the branch of branch_index: [a_i, a_{i+1}), and the last one at 1
        x = steps[bisect_right(inner, x)](x)
        if x < 0.0:
            x = 0.0
        elif x > 1.0:
            x = 1.0
    return out, x


def _orbit_chunks(pmap: PiecewiseMap, seed: int, total: int | None, chunk: int,
                  mode: str, points: bool = True
                  ) -> Iterator[tuple[np.ndarray | None, np.ndarray | None]]:
    """The orbit of `seed` as (symbols, points) chunks of at most `chunk`
    steps, `total` steps in all (None: without end).

    Symbolic mode draws the branch symbols from the seed's `_SymbolSource` and
    carries the reconstruction lookahead across chunks; `points=False`
    skips the reconstruction and yields None for points.  Float mode starts
    at a uniform draw from the seed, carries the current point across
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

    if mode == _SYMBOLIC:
        src = _SymbolSource(seed, pmap.n_branches)
        ahead = _symbol_tail_depth(pmap) if points else 0
        syms = src.take(ahead) if ahead else np.empty(0, dtype=np.uint8)
        for m in sizes():
            syms = np.concatenate([syms, src.take(m)])
            yield syms[:m], (points_from_symbols(pmap, syms, m) if points else None)
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


def orbit(pmap: PiecewiseMap, seed: int, n: int, x0: float | None = None) -> Orbit:
    """The first n points of the orbit of `seed`, with their symbols.

    The map decides the mode (see `_orbit_mode`); x0 instead float-iterates
    from that point, whatever the map.
    """
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    if x0 is not None:
        if not 0.0 <= x0 <= 1.0:
            raise ValueError(f"orbit start {x0!r} is not in [0, 1]")
        pts, _ = _float_orbit_chunk(pmap, float(x0), n)
        return Orbit(seed=seed, mode=_FLOAT, points=pts, symbols=pmap.branch_index(pts))
    mode = _orbit_mode(pmap)
    syms, pts = next(_orbit_chunks(pmap, seed, n, n, mode))
    return Orbit(seed=seed, mode=mode, points=pts,
                 symbols=pmap.branch_index(pts) if syms is None else syms)


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


def orbit_value_chunks(pmap: PiecewiseMap, u: Observable, seed: int, total: int,
                       chunk: int = 1 << 20) -> Iterator[np.ndarray]:
    """Stream u along the orbit of `seed` in chunks, `total` values in all,
    O(chunk) memory.  Symbolic orbits read an observable certified constant
    on each branch cell from its branch-value table, without reconstructing
    points (bitwise the same values)."""
    mode = _orbit_mode(pmap)
    table = _branch_values(pmap, u) if mode == _SYMBOLIC else None
    for syms, pts in _orbit_chunks(pmap, seed, total, chunk, mode, points=table is None):
        yield u(pts) if table is None else table[syms]


def symbol_chunks(pmap: PiecewiseMap, seed: int, chunk: int = 1 << 12,
                  limit: int | None = None) -> Iterator[np.ndarray]:
    """Stream the branch symbols of the orbit of `seed` in chunks (without
    end unless `limit` is given).  The stream does not depend on `chunk`."""
    for syms, pts in _orbit_chunks(pmap, seed, limit, chunk, _orbit_mode(pmap), points=False):
        yield pmap.branch_index(pts) if syms is None else syms


def trial_value_blocks(pmap: PiecewiseMap, u: Observable, span: int, trials: int,
                       seed: int, chunk: int = 1 << 14) -> Iterator[np.ndarray]:
    """u along `span` steps from each of `trials` independent Lebesgue
    starts, as (rows, span) blocks of at most `chunk` rows.

    Symbolic maps cut disjoint rows from the seed's symbol stream (exactly
    independent trials); a row holds `span` symbols, plus the reconstruction
    lookahead unless u is read from its branch-value table.  Float maps
    iterate uniform starts drawn from the seed, all rows of a block at once.
    """
    mode = _orbit_mode(pmap)
    if mode == _SYMBOLIC:
        table = _branch_values(pmap, u)
        width = span if table is not None else span + _symbol_tail_depth(pmap)
        src = _SymbolSource(seed, pmap.n_branches)
    else:
        gen = _rng(seed)
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        if mode == _SYMBOLIC:
            block = src.take(m * width).reshape(m, width)
            yield table[block] if table is not None else u(points_from_symbols(pmap, block, span))
        else:
            x = gen.random(m)
            vals = np.empty((m, span))
            for j in range(span):
                vals[:, j] = u(x)
                x = pmap.apply(x)
            yield vals
        done += m

