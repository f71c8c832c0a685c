from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergostat.errors import ConfigError, DomainError, MapDefinitionError
from ergostat.maps import (
    Branch,
    coboundary,
    coin,
    make_map,
    make_observable,
    orbit,
    orbit_value_chunks,
    points_from_symbols,
    sawtooth,
    symbol_chunks,
)
from ergostat.maps import _RECONSTRUCT_BLOCK, _scalar_step, _symbol_tail_depth
from ergostat.transfer import invariant_density, ulam_matrix
from oracles import birkhoff_sums, evaluate, reconstruct_points

ALL_BUILTINS = ["doubling", "tent", "perturbed-doubling"]


def test_make_map_builtins():
    d = make_map("doubling")
    assert np.allclose(d.breakpoints, [0.0, 0.5, 1.0])
    assert d.branches[0].slope == 2.0 and d.branches[1].slope == 2.0
    assert d.dyadic_exact

    t = make_map("tent")
    assert np.allclose(t.breakpoints, [0.0, 0.5, 1.0])
    assert (t.branches[0].slope, t.branches[1].slope) == (2.0, -2.0)
    assert t.dyadic_exact

    l3 = make_map("linear", slopes=[3, 3, 3])
    assert l3.n_branches == 3
    assert l3.expansion_constant == 3.0
    assert l3.dyadic_exact


def test_make_map_rejects_bad_descriptors():
    with pytest.raises(MapDefinitionError):
        make_map("linear", slopes=[1.0, 3.0])          # not expanding
    with pytest.raises(MapDefinitionError):
        make_map("custom", breakpoints=[0.0, 0.7, 0.3, 1.0], slopes=[2, 2, 2])
    # monotone branches inside [0, 1], but the second one contracts
    with pytest.raises(MapDefinitionError, match="not expanding"):
        make_map("custom", breakpoints=[0.0, 0.5, 1.0], slopes=[1.5, 0.5])
    # a name that is no map is a configuration error, like an unknown observable
    with pytest.raises(ConfigError):
        make_map("nosuchmap")


def _full_branch_map(b):
    """b linear full branches on a non-uniform partition: float-iterated."""
    widths = 1.0 + np.arange(b) % 7
    bp = np.concatenate([[0.0], np.cumsum(widths) / np.sum(widths)])
    bp[-1] = 1.0
    return make_map("custom", breakpoints=bp.tolist(), slopes=(1.0 / np.diff(bp)).tolist())


def test_branch_count_fits_the_symbol_bytes():
    # symbols are uint8: a 300-branch map would wrap branch 273 to 17
    # (float-iterated) or fail to draw its symbols (symbolic)
    for make in (lambda: _full_branch_map(300), lambda: make_map("linear", slopes=[300.0] * 300)):
        with pytest.raises(MapDefinitionError, match="at most 256"):
            make()
    # 256 branches still give every symbol, in both orbit modes
    for m in (_full_branch_map(256), make_map("linear", slopes=[256.0] * 256)):
        o = orbit(m, seed=1, n=2000)
        truth = np.searchsorted(m.breakpoints, o.points, side="right") - 1
        assert np.array_equal(o.symbols, truth) and o.symbols.max() > 200


def test_evaluate_examples():
    d = make_map("doubling")
    assert evaluate(d, 0.3) == pytest.approx((0.6, 0, 2.0))
    assert evaluate(d, 0.75) == pytest.approx((0.5, 1, 2.0))
    t = make_map("tent")
    img, br, deriv = evaluate(t, 0.25)
    assert (img, br, deriv) == pytest.approx((0.5, 0, 2.0))
    with pytest.raises(DomainError):
        evaluate(d, 1.0)
    with pytest.raises(DomainError):
        evaluate(d, -0.1)


@pytest.mark.parametrize("name", ALL_BUILTINS + ["linear"])
def test_expansion_on_grid(name):
    m = make_map(name, slopes=[3, 3, 3]) if name == "linear" else make_map(name)
    xs = np.linspace(0.0, 1.0, 10_000, endpoint=False) + 0.5e-4
    expansion = np.abs(m.derivative(xs))
    assert expansion.min() >= m.expansion_constant - 1e-9
    assert m.expansion_constant > 1.0


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_branch_inverse_roundtrip(name):
    m = make_map(name)
    rng = np.random.default_rng(7)
    xs = rng.random(1000)
    idx = m.branch_index(xs)
    ys = m.apply(xs)
    for i, br in enumerate(m.branches):
        mask = idx == i
        back = br.inverse(ys[mask])
        assert np.max(np.abs(back - xs[mask])) < 1e-10
        # forward through the branch recovers the image to 1e-12
        assert np.max(np.abs(br(back) - ys[mask])) < 1e-12


def _counting(br):
    """Copy of a branch whose fn records every point it is evaluated at."""
    seen = []

    def fn(x):
        seen.append(np.array(x, dtype=float, copy=True))
        return br.fn(x)
    return replace(br, fn=fn), seen


# Newton from the chord start converges in ~6 steps on these branches; a
# 60-step bisection makes ~50 evaluations, so 12 shows the Newton steps
# carry the inverse (two evaluations price the branch ends)
_INVERSE_EVALS = 12


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(0.001, 0.15), seed=st.integers(0, 2**32 - 1))
def test_smooth_inverse_newton_accurate_and_bounded(eps, seed):
    # eps = 0.15 takes the minimum slope 2 - 0.3 pi down to 1.06
    m = make_map("perturbed-doubling", eps=eps)
    ys = np.random.default_rng(seed).random(257)
    ys[:2] = (0.0, 1.0)                  # the exact ends of the image
    for br in m.branches:
        counted, seen = _counting(br)
        xs = counted.inverse(ys)
        assert len(seen) <= _INVERSE_EVALS
        assert np.all((xs >= br.lo) & (xs <= br.hi))
        # a converged root is within a few ulps of the answer in image space
        assert np.max(np.abs(br(xs[2:]) - ys[2:])) <= 4 * np.finfo(float).eps


def test_smooth_inverse_edge_cases():
    m = make_map("perturbed-doubling", eps=0.15)
    f0, f1 = m.branches
    # y = 0 and y = 1 exactly map to the branch ends
    assert f0.inverse(np.array([0.0, 1.0])).tolist() == [0.0, 0.5]
    assert f1.inverse(np.array([0.0, 1.0])).tolist() == [0.5, 1.0]
    assert float(f0.inverse(0.0)) == 0.0 and float(f1.inverse(1.0)) == 1.0
    # an iterate that hits the root exactly (zero residual) sits on a bracket
    # end; it must be kept, not sent back to the bracket midpoint
    square = Branch(lo=0.5, hi=1.0, fn=lambda x: x * x, dfn=lambda x: 2.0 * x)
    counted, seen = _counting(square)
    assert float(counted.inverse(0.5625)) == 0.75
    hit = next(i for i, x in enumerate(seen) if float(x) == 0.75)
    assert all(float(x) == 0.75 for x in seen[hit:])
    assert len(seen) <= _INVERSE_EVALS
    # the chord start of a smooth-given linear branch is the root itself
    line = Branch(lo=0.0, hi=0.5, fn=lambda x: 2.0 * x, dfn=lambda x: 2.0 + 0.0 * x)
    counted, seen = _counting(line)
    ys = np.array([0.1, 0.3, 0.7])
    assert np.array_equal(counted.inverse(ys), ys / 2.0)
    assert len(seen) == 3


def test_symbolic_orbit_never_collapses():
    d = make_map("doubling")
    o = orbit(d, seed=123, n=1_000_000)
    assert o.mode == "symbolic-exact"
    assert np.all(o.points[53:] != 0.0)
    # consecutive points satisfy x_{t+1} = f(x_t) up to reconstruction ulps
    assert np.max(np.abs(o.points[1:10_000] - d.apply(o.points[:9_999]))) < 1e-12


@pytest.mark.parametrize("name,params", [
    ("doubling", {}),
    ("tent", {}),
    ("linear", {"slopes": [3, 3, 3]}),
    ("linear", {"slopes": [4, -4, 4, -4]}),
    ("custom", {"breakpoints": [0, 0.5, 1], "slopes": [2, 2]}),
])
def test_points_from_symbols_bitwise_equals_level_oracle(name, params):
    # blocked, in-place reconstruction: the same bytes as one gather per level
    pmap = make_map(name, **params)
    depth, B = _symbol_tail_depth(pmap), _RECONSTRUCT_BLOCK
    rng = np.random.default_rng(11)
    for n in (1, B - 1, B, B + 1, 3 * B + 5):
        syms = rng.integers(0, pmap.n_branches, n + depth + 9, dtype=np.uint8)
        got = points_from_symbols(pmap, syms, n)
        assert got.shape == (n,)
        assert got.tobytes() == reconstruct_points(pmap, syms, n).tobytes(), n
    for rows, span in ((1, 1), (64, 20), (3, B + 5)):
        block = rng.integers(0, pmap.n_branches, (rows, span + depth), dtype=np.uint8)
        got = points_from_symbols(pmap, block, span)
        assert got.shape == (rows, span)
        assert got.tobytes() == reconstruct_points(pmap, block, span).tobytes(), (rows, span)
    with pytest.raises(ValueError):
        points_from_symbols(pmap, np.zeros(depth + 4, dtype=np.uint8), 5)
    with pytest.raises(ValueError):
        points_from_symbols(pmap, np.zeros((2, depth + 4), dtype=np.uint8), 5)


def test_float_orbit_dyadic_degeneracy_documented():
    d = make_map("doubling")
    o = orbit(d, seed=0, n=4, x0=0.25)
    assert o.points.tolist() == [0.25, 0.5, 0.0, 0.0]


# every built-in linear map, the 3, 1.5 map, a custom map with explicit
# intercepts, and perturbed doubling at its default and a large eps
_TWIN_MAPS = [
    ("doubling", {}),
    ("tent", {}),
    ("linear", {"slopes": [3, -3, 3]}),
    ("custom", {"breakpoints": [0.0, 1.0 / 3.0, 1.0], "slopes": [3.0, 1.5]}),
    ("custom", {"breakpoints": [0.0, 0.4, 1.0], "slopes": [2.5, -1.5],
                "intercepts": [0.0, 1.5]}),
    ("perturbed-doubling", {"eps": 0.05}),
    ("perturbed-doubling", {"eps": 0.15}),
]


@pytest.mark.parametrize("name,params", _TWIN_MAPS)
def test_scalar_twins_give_vector_bytes(name, params):
    # float iteration steps each branch on one Python float; its bits must
    # be those of the branch on an array, or float orbits drift from apply
    pmap = make_map(name, **params)
    bp = pmap.breakpoints
    xs = np.concatenate([np.random.default_rng(5).random(100_000), bp,
                         np.nextafter(bp, 0.0), np.nextafter(bp, 1.0),
                         [0.0, np.nextafter(1.0, 0.0)]])
    for br in pmap.branches:
        assert (br.scalar is None) == br.is_linear
        step = _scalar_step(br)
        got = np.array([step(x) for x in xs.tolist()])
        assert got.tobytes() == br.fn(xs).tobytes()
    if pmap.branches[0].is_linear:
        assert all(type(v) is float for br in pmap.branches
                   for v in (br.slope, br.intercept))


def test_float_orbit_consecutive_points_exact():
    maps = [make_map("perturbed-doubling", eps=eps) for eps in (0.05, 0.15)]
    maps.append(make_map("custom", breakpoints=[0.0, 1.0 / 3.0, 1.0], slopes=[3.0, 1.5]))
    # smooth branches without a scalar twin step with fn on numpy scalars
    no_twins = replace(maps[1], branches=tuple(replace(br, scalar=None)
                                               for br in maps[1].branches))
    for pmap in maps:
        for seed in (1, 6, 77, 2024):
            o = orbit(pmap, seed=seed, n=3000)
            assert o.mode == "float-iterate"
            assert np.array_equal(o.points[1:], pmap.apply(o.points[:-1]))
            if pmap is maps[1]:
                assert orbit(no_twins, seed=seed, n=3000).points.tobytes() == \
                    o.points.tobytes()
    with pytest.raises(ValueError, match="not in"):
        orbit(maps[0], seed=0, n=3, x0=-0.25)


def test_symbolic_only_for_dyadic_maps():
    pd = make_map("perturbed-doubling")
    assert orbit(pd, seed=1, n=10).mode == "float-iterate"
    two_slope = make_map("custom", breakpoints=[0.0, 1.0 / 3.0, 1.0], slopes=[3.0, 1.5])
    assert not two_slope.dyadic_exact
    assert orbit(two_slope, seed=1, n=10).mode == "float-iterate"
    # the map's shape decides, not how it was built
    assert make_map("custom", breakpoints=[0.0, 0.5, 1.0], slopes=[2.0, -2.0]).dyadic_exact
    assert not make_map("custom", breakpoints=[0.0, 0.5, 1.0], slopes=[2.0, 1.5]).dyadic_exact


def test_tent_orbit_lebesgue_mean():
    # Lebesgue is invariant for the tent map; long-run average of points is 1/2.
    # Float iteration is dyadic-degenerate for tent, so the default (symbolic)
    # mode is the meaningful one.
    t = make_map("tent")
    o = orbit(t, seed=5, n=100_000)
    assert abs(float(np.mean(o.points)) - 0.5) < 0.01


def test_monobit_frequency_doubling():
    d = make_map("doubling")
    o = orbit(d, seed=2024, n=1_000_000)
    ones = int(np.sum(o.symbols))
    n = len(o.symbols)
    # proportion of 1s within 3 sigma of 1/2
    assert abs(ones / n - 0.5) < 3.0 * 0.5 / np.sqrt(n)


def test_birkhoff_sums_examples():
    d = make_map("doubling")
    o = orbit(d, seed=1, n=5)
    ones = make_observable("table", xs=[0.0, 1.0], ys=[1.0, 1.0])
    assert np.allclose(birkhoff_sums(o, ones), [1, 2, 3, 4, 5])

    o2 = orbit(d, seed=0, n=3, x0=0.25)
    s = birkhoff_sums(o2, sawtooth())
    assert np.allclose(s, [-0.25, -0.25, -0.75])


def test_coboundary_telescoping():
    d = make_map("doubling")
    u = coboundary(d)                      # v(x) = x, sup|v| = 1
    o = orbit(d, seed=9, n=5000)
    s = birkhoff_sums(o, u)
    assert np.max(np.abs(s)) <= 2.0 + 1e-9


def test_orbit_value_chunks_match_orbit():
    d = make_map("doubling")
    u = sawtooth()
    o = orbit(d, seed=42, n=5000)
    streamed = np.concatenate(list(orbit_value_chunks(d, u, seed=42, total=5000, chunk=700)))
    assert np.array_equal(streamed, u(o.points))

    pd = make_map("perturbed-doubling")
    o2 = orbit(pd, seed=42, n=2000)
    streamed2 = np.concatenate(list(orbit_value_chunks(pd, u, seed=42, total=2000, chunk=333)))
    assert np.allclose(streamed2, u(o2.points), atol=1e-14)

    # the coin on doubling and tent is read from its branch-value table
    for name in ("doubling", "tent"):
        m = make_map(name)
        for seed in (1, 1000):
            o3 = orbit(m, seed=seed, n=20_000)
            streamed3 = np.concatenate(list(
                orbit_value_chunks(m, coin(), seed=seed, total=20_000, chunk=3000)))
            assert np.array_equal(streamed3, coin()(o3.points))


def test_degenerate_float_maps_refused():
    # every slope a power of two: refused whatever the partition
    for bp, slopes in (([0.0, 0.25, 0.5, 1.0], [4.0, 4.0, 2.0]),
                       ([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], [2.0, 2.0, 2.0])):
        with pytest.raises(DomainError, match="power of two"):
            orbit(make_map("custom", breakpoints=bp, slopes=slopes), seed=1, n=10)
    # other linear maps whose float orbits fall onto a cycle within ~60 steps
    for bp, slopes in (([0.0, 0.5, 1.0], [2.0, 1.5]),
                       ([0.0, 0.25, 0.5, 1.0], [3.0, 4.0, 2.0])):
        m = make_map("custom", breakpoints=bp, slopes=slopes)
        with pytest.raises(DomainError, match="cycle"):
            next(orbit_value_chunks(m, sawtooth(), seed=1, total=10))
    # this one passes the probe, and its seed-0 orbit lands on the cycle
    # {0, 1} after ~4300 steps: the stream stops there
    slow = make_map("custom", breakpoints=[0.0, 0.25, 0.375, 0.5, 1.0],
                    slopes=[-1.4208424647736377, -8.0, 8.0, -2.0])
    streamed = []
    with pytest.raises(DomainError, match="cycle"):
        for vals in orbit_value_chunks(slow, sawtooth(), seed=0, total=20_000, chunk=1000):
            streamed.append(vals)
    assert len(streamed) == 4 and len(np.unique(np.concatenate(streamed))) == 4000
    # x0 still float-iterates any map from that point
    assert orbit(make_map("custom", breakpoints=[0.0, 0.5, 1.0], slopes=[2.0, 1.5]),
                 seed=0, n=3, x0=0.25).points.tolist() == [0.25, 0.5, 0.0]


# random custom piecewise-linear maps: dyadic or generic partitions, each
# branch full or not, slopes of power-of-two and of other magnitudes
_OTHER_SLOPES = (1.25, 1.5, 3.0, 5.0, 6.0)


@st.composite
def _linear_maps(draw):
    b = draw(st.integers(2, 4))
    if draw(st.booleans()):
        widths = [1.0]                   # halve random cells: dyadic widths
        for _ in range(b - 1):
            i = draw(st.integers(0, len(widths) - 1))
            widths[i:i + 1] = [widths[i] / 2, widths[i] / 2]
        bp = np.concatenate([[0.0], np.cumsum(widths)])
    else:
        inner = draw(st.lists(st.floats(0.05, 0.95), min_size=b - 1, max_size=b - 1,
                              unique=True).filter(
            lambda v: np.min(np.diff(np.sort([0.0, *v, 1.0]))) > 0.04))
        bp = np.array([0.0, *sorted(inner), 1.0])
    slopes = []
    for w in np.diff(bp):
        top = 1.0 / w                    # a full branch
        powers = [2.0 ** j for j in range(1, 8) if 2.0 ** j <= top]
        others = [s for s in _OTHER_SLOPES if s <= top]
        magnitude = draw(st.one_of(
            st.just(top), st.sampled_from(powers or [top]),
            st.sampled_from(others or [top]), st.floats(1.05, top)))
        slopes.append(magnitude if draw(st.booleans()) else -magnitude)
    return make_map("custom", breakpoints=bp.tolist(), slopes=slopes)


@settings(max_examples=80, deadline=None)
@given(m=_linear_maps(), seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 700))
def test_random_linear_maps_stream_or_refuse(m, seed, chunk):
    n = 5000
    try:
        symbols = np.concatenate(list(symbol_chunks(m, seed, chunk=chunk, limit=n)))
    except DomainError:
        # refused by every reader, whatever the chunk size
        with pytest.raises(DomainError):
            orbit(m, seed, n)
        with pytest.raises(DomainError):
            list(orbit_value_chunks(m, sawtooth(), seed, n, chunk=n))
    else:
        o = orbit(m, seed, n)
        # never falls onto a fixed point or a cycle
        assert len(np.unique(o.points)) == n
        assert np.array_equal(symbols, o.symbols)
        whole = np.concatenate(list(orbit_value_chunks(m, sawtooth(), seed, n, chunk=n)))
        cut = np.concatenate(list(orbit_value_chunks(m, sawtooth(), seed, n, chunk=chunk)))
        assert np.array_equal(cut, whole) and np.array_equal(whole, sawtooth()(o.points))
    if all(abs(abs(br.slope) * (br.hi - br.lo) - 1.0) < 1e-12 for br in m.branches):
        # full branches: the Ulam density integrates to 1 and F(0) = 0
        op = ulam_matrix(m, None, 0.0, 64)
        assert np.sum(invariant_density(op)) / 64 == pytest.approx(1.0, abs=1e-12)
        assert np.log(op.leading_eigenvalue) == pytest.approx(0.0, abs=1e-12)


def test_observable_regularity_required():
    with pytest.raises(ValueError):
        from ergostat.maps import Observable
        Observable("bare", lambda x: x)


def test_coin_values():
    u = coin()
    assert np.array_equal(u(np.array([0.1, 0.5, 0.9])), [-0.5, 0.5, 0.5])
    assert u.variation_bound == 1.0


def test_centering_shifts_mean():
    u = sawtooth().with_mean(0.25)
    assert u(np.array([0.75]))[0] == pytest.approx(0.0)
    assert u.raw(np.array([0.75]))[0] == pytest.approx(0.25)
