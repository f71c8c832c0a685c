"""Piecewise expanding interval maps, observables, and orbit generation.

A map is a finite family of monotone C2 branches on a partition of [0,1].
Orbits come in two modes: plain floating-point iteration, and a symbolic
mode for maps with integer-slope full branches (doubling, tent, uniform
b-branch linear maps).  For those maps float iteration sheds one mantissa
bit per step and collapses onto 0 after ~53 steps, so the symbolic mode
draws the i.i.d.-uniform branch itinerary directly from a seeded generator
and reconstructs points from the itinerary tail; the resulting orbit is
distributionally exact under Lebesgue initial conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, MapDefinitionError

# Mantissa bits reconstructed from the symbol tail in symbolic mode.
_RECONSTRUCT_BITS = 53


@dataclass(frozen=True)
class Branch:
    """One monotone branch of a piecewise map.

    Linear branches carry slope/intercept and have exact inverses; smooth
    branches are given by callables and invert by bracketed Newton steps on
    `dfn` (monotonicity keeps the root in the bracket, so it stays correct).
    """

    lo: float
    hi: float
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    slope: float | None = None          # set for linear branches
    intercept: float | None = None

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

    `expansion_exponent` m and `expansion_constant` eta certify
    |(f^m)'| > eta on the partition (checked on a grid at construction).
    `dyadic_exact` marks maps whose float iteration is degenerate and whose
    symbolic orbits are exact (integer-slope full-branch maps).
    """

    name: str
    breakpoints: np.ndarray
    branches: tuple[Branch, ...]
    expansion_exponent: int = 1
    expansion_constant: float = 1.5
    dyadic_exact: bool = False
    descriptor: dict = field(default_factory=dict)

    @property
    def n_branches(self) -> int:
        return len(self.branches)

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

    def iterate_derivative(self, x, m: int):
        """(f^m)'(x) by the chain rule."""
        x = np.asarray(x, dtype=float)
        acc = np.ones_like(x)
        for _ in range(m):
            acc = acc * self.derivative(x)
            x = self.apply(x)
        return acc

    def validate(self, grid: int = 10_000) -> None:
        """Check monotonicity, image containment, and the expansion bound on
        a grid; raises MapDefinitionError on failure."""
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
        xs = np.linspace(0.0, 1.0, grid, endpoint=False) + 0.5 / grid
        expansion = np.abs(self.iterate_derivative(xs, self.expansion_exponent))
        # constant-slope maps attain eta exactly; allow a roundoff margin
        if expansion.min() < self.expansion_constant - 1e-9:
            raise MapDefinitionError(
                f"{self.name}: |(f^{self.expansion_exponent})'| dips to "
                f"{expansion.min():.6g} below eta={self.expansion_constant}"
            )

    def evaluate(self, x):
        """Return (image, branch index, derivative) for x in [0,1)."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0) or np.any(arr >= 1.0):
            raise DomainError(f"point {x} outside [0,1)")
        image = self.apply(arr)
        idx = self.branch_index(arr)
        deriv = self.derivative(arr)
        if arr.ndim == 0:
            return float(image), int(idx), float(deriv)
        return image, idx, deriv


# ---------------------------------------------------------------------------
# built-in maps
# ---------------------------------------------------------------------------

def _linear_branch(lo: float, hi: float, slope: float, intercept: float) -> Branch:
    return Branch(
        lo=lo,
        hi=hi,
        fn=lambda x, s=slope, c=intercept: s * x + c,
        dfn=lambda x, s=slope: np.full_like(np.asarray(x, dtype=float), s),
        slope=slope,
        intercept=intercept,
    )


def _linear_map(name: str, slopes: Sequence[float], descriptor: dict) -> PiecewiseMap:
    """Full-branch piecewise-linear map with the given slopes on a uniform
    partition; each branch covers [0,1] (rising with slope>0, falling with
    slope<0)."""
    b = len(slopes)
    if b < 2:
        raise MapDefinitionError("need at least two branches")
    bp = np.linspace(0.0, 1.0, b + 1)
    branches = []
    for i, s in enumerate(slopes):
        s = float(s)
        if abs(s) <= 1.0:
            raise MapDefinitionError(f"branch slope {s} is not expanding")
        lo, hi = bp[i], bp[i + 1]
        # anchor the branch image at 0 (rising) or 1 at the left end (falling)
        intercept = -s * lo if s > 0 else 1.0 - s * lo
        branches.append(_linear_branch(lo, hi, s, intercept))
    abs_slopes = {abs(float(s)) for s in slopes}
    full = all(_is_full_branch(br) for br in branches)
    dyadic = (
        full
        and len(abs_slopes) == 1
        and abs(next(iter(abs_slopes)) - b) < 1e-12
        and float(next(iter(abs_slopes))).is_integer()
    )
    eta = min(abs(float(s)) for s in slopes)
    m = PiecewiseMap(
        name=name,
        breakpoints=bp,
        branches=tuple(branches),
        expansion_exponent=1,
        expansion_constant=eta,
        dyadic_exact=dyadic,
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

    def f0(x):
        return 2.0 * x + eps * np.sin(two_pi * x)

    def f1(x):
        return 2.0 * x - 1.0 + eps * np.sin(two_pi * x)

    def df(x):
        return 2.0 + eps * two_pi * np.cos(two_pi * x)

    branches = (
        Branch(lo=0.0, hi=0.5, fn=f0, dfn=df),
        Branch(lo=0.5, hi=1.0, fn=f1, dfn=df),
    )
    m = PiecewiseMap(
        name="perturbed-doubling",
        breakpoints=np.array([0.0, 0.5, 1.0]),
        branches=branches,
        expansion_exponent=1,
        expansion_constant=2.0 - eps * two_pi,
        dyadic_exact=False,
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
    if key == "doubling":
        return _linear_map("doubling", [2.0, 2.0], descriptor)
    if key == "tent":
        return _linear_map("tent", [2.0, -2.0], descriptor)
    if key == "linear":
        slopes = params.get("slopes")
        if not slopes:
            raise MapDefinitionError("linear map needs a slopes list")
        return _linear_map("linear", list(slopes), descriptor)
    if key == "perturbed-doubling":
        return _perturbed_doubling(float(params.get("eps", 0.05)), descriptor)
    if key == "custom":
        bp = params.get("breakpoints")
        slopes = params.get("slopes")
        if bp is None or slopes is None:
            raise MapDefinitionError("custom map needs breakpoints and slopes")
        bp = np.asarray(bp, dtype=float)
        if len(slopes) != len(bp) - 1:
            raise MapDefinitionError("need one slope per partition interval")
        intercepts = params.get("intercepts")
        branches = []
        for i, s in enumerate(slopes):
            s = float(s)
            if intercepts is not None:
                c = float(intercepts[i])
            else:
                c = -s * bp[i] if s > 0 else 1.0 - s * bp[i]
            branches.append(_linear_branch(bp[i], bp[i + 1], s, c))
        m = PiecewiseMap(
            name="custom",
            breakpoints=bp,
            branches=tuple(branches),
            expansion_constant=min(abs(float(s)) for s in slopes),
            descriptor=descriptor,
        )
        m.validate()
        return m
    raise MapDefinitionError(f"unknown map descriptor {name!r}")


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


def coboundary(pmap: PiecewiseMap, v: Callable[[np.ndarray], np.ndarray] | None = None,
               v_lipschitz: float = 1.0) -> Observable:
    """u = v - v o f; Birkhoff sums telescope, so the CLT variance is zero."""
    if v is None:
        v = lambda x: x
    sup_df = float(np.max(np.abs(pmap.derivative(
        np.linspace(0.0, 1.0, 2048, endpoint=False) + 0.5 / 2048))))
    return Observable(
        f"coboundary({pmap.name})",
        lambda x: v(np.asarray(x, dtype=float)) - v(pmap.apply(x)),
        lipschitz_constant=v_lipschitz * (1.0 + sup_df),
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
    raise ValueError(f"unknown observable {name!r}")


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

    def to_csv(self, path) -> None:
        lines = ["step,x,symbol"]
        lines.extend(f"{t},{x:.17g},{int(s)}"
                     for t, (x, s) in enumerate(zip(self.points, self.symbols)))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


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
    """Reconstruct orbit points from the itinerary tail (symbolic mode).

    x_t is the image of 1/2 under the inverse-branch word of depth T that
    follows position t; the truncation error is below one float ulp.
    Requires len(symbols) >= n + T.  2-d input reconstructs each row.
    """
    symbols = np.asarray(symbols)
    depth = _symbol_tail_depth(pmap)
    if symbols.shape[-1] < n + depth:
        raise ValueError("symbol stream too short for point reconstruction")
    slopes = np.array([br.slope for br in pmap.branches])
    intercepts = np.array([br.intercept for br in pmap.branches])
    x = np.full(symbols.shape[:-1] + (n,), 0.5)
    for d in range(depth - 1, -1, -1):
        s = symbols[..., d : d + n]
        x = (x - intercepts[s]) / slopes[s]
    return x


def orbit(pmap: PiecewiseMap, seed: int, n: int, mode: str | None = None,
          x0: float | None = None) -> Orbit:
    """Generate an orbit of length n.

    mode defaults to "symbolic-exact" for dyadic-exact maps and
    "float-iterate" otherwise.  x0 forces a float-iterate start point
    (otherwise the start is drawn uniformly from the seed).
    """
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    if mode is None:
        mode = "symbolic-exact" if (pmap.dyadic_exact and x0 is None) else "float-iterate"
    if mode == "symbolic-exact":
        if not pmap.dyadic_exact:
            raise DomainError(f"symbolic-exact orbits are only defined for "
                              f"integer-slope full-branch maps, not {pmap.name}")
        if x0 is not None:
            raise DomainError("symbolic-exact mode draws its own start; x0 not allowed")
        depth = _symbol_tail_depth(pmap)
        syms = _SymbolSource(seed, pmap.n_branches).take(n + depth)
        pts = points_from_symbols(pmap, syms, n)
        return Orbit(seed=seed, mode=mode, points=pts, symbols=syms[:n])
    if mode != "float-iterate":
        raise ValueError(f"unknown orbit mode {mode!r}")
    if x0 is None:
        x0 = float(_rng(seed).random())
    pts, _ = _float_orbit_chunk(pmap, float(x0), n)
    syms = pmap.branch_index(pts)
    return Orbit(seed=seed, mode=mode, points=pts, symbols=syms)


def _float_orbit_chunk(pmap: PiecewiseMap, x: float, m: int) -> tuple[np.ndarray, float]:
    """Fill a chunk of a float-iterated orbit starting at x; returns the
    chunk and the next start point.  Scalar fast path: avoids the vector
    dispatch of PiecewiseMap.apply per step."""
    from bisect import bisect_right

    bp = pmap.breakpoints.tolist()
    fns = [br.fn for br in pmap.branches]
    last = len(fns) - 1
    out = np.empty(m, dtype=float)
    for t in range(m):
        out[t] = x
        i = bisect_right(bp, x) - 1
        if i > last:
            i = last
        x = float(fns[i](x))
        if x < 0.0:
            x = 0.0
        elif x > 1.0:
            x = 1.0
    return out, x


def orbit_value_chunks(pmap: PiecewiseMap, u: Observable, seed: int, total: int,
                       chunk: int = 1 << 20) -> Iterator[np.ndarray]:
    """Stream u along an orbit of length `total` in chunks, O(chunk) memory.

    Symbolic maps draw itinerary chunks with a reconstruction lookahead;
    other maps iterate in float, carrying the current point across chunks.
    """
    if pmap.dyadic_exact:
        depth = _symbol_tail_depth(pmap)
        src = _SymbolSource(seed, pmap.n_branches)
        carry = src.take(depth)
        done = 0
        while done < total:
            m = min(chunk, total - done)
            syms = np.concatenate([carry, src.take(m)])
            pts = points_from_symbols(pmap, syms, m)
            yield u(pts)
            carry = syms[m:]
            done += m
    else:
        x = float(_rng(seed).random())
        done = 0
        while done < total:
            m = min(chunk, total - done)
            pts, x = _float_orbit_chunk(pmap, x, m)
            yield u(pts)
            done += m


def symbol_chunks(pmap: PiecewiseMap, seed: int, chunk: int = 1 << 12,
                  limit: int | None = None) -> Iterator[np.ndarray]:
    """Stream branch symbols of a fresh orbit in chunks (unbounded unless
    `limit` is given).  Symbolic maps draw symbols directly; float maps
    iterate and classify.  The stream does not depend on `chunk`."""
    produced = 0
    if pmap.dyadic_exact:
        src = _SymbolSource(seed, pmap.n_branches)
        while limit is None or produced < limit:
            m = chunk if limit is None else min(chunk, limit - produced)
            yield src.take(m)
            produced += m
    else:
        x = float(_rng(seed).random())
        while limit is None or produced < limit:
            m = chunk if limit is None else min(chunk, limit - produced)
            pts, x = _float_orbit_chunk(pmap, x, m)
            yield pmap.branch_index(pts)
            produced += m


def birkhoff_sums(orb: Orbit, u: Observable) -> np.ndarray:
    """Partial sums S_k = sum_{j<k} u(f^j x), k = 1..n."""
    return np.cumsum(u(orb.points))
