from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64

from ergostat.errors import ConfigError, DomainError, MapDefinitionError
from ergostat.maps import (
    Branch,
    Orbit,
    coboundary,
    coin,
    make_map,
    make_observable,
    orbit,
    orbit_value_chunks,
    points_from_symbols,
    sawtooth,
    symbol_chunks,
    trial_value_blocks,
)
from ergostat import maps
from ergostat.maps import _RECONSTRUCT_BLOCK, _symbol_tail_depth
from ergostat.transfer import invariant_density, ulam_matrix
from oracles import (apply_by_branch, birkhoff_sums, derivative_by_branch, evaluate,
                     integer_symbol_blocks, inverse_by_symbol, reconstruct_points)

ALL_BUILTINS = ["doubling", "tent", "perturbed-doubling"]


def test_make_map_builtins():
    d = make_map("doubling")
    assert np.allclose(d.breakpoints, [0.0, 0.5, 1.0])
    assert d.linear[0].tolist() == [2.0, 2.0] and d.linear[1].tolist() == [0.0, -1.0]
    assert d.dyadic_exact

    t = make_map("tent")
    assert np.allclose(t.breakpoints, [0.0, 0.5, 1.0])
    assert t.linear[0].tolist() == [2.0, -2.0] and t.linear[1].tolist() == [0.0, 2.0]
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
    # so is a key that the map or observable does not read, set away from its
    # default; the default itself cannot be told from a key left out
    with pytest.raises(ConfigError, match="doubling map does not read slopes"):
        make_map("doubling", slopes=[3, 3, 3])
    with pytest.raises(ConfigError, match="custom map does not read eps"):
        make_map("custom", breakpoints=[0, 0.5, 1], slopes=[2, 2], eps=0.1)
    with pytest.raises(ConfigError, match="sawtooth observable does not read xs and ys"):
        make_observable("sawtooth", xs=[0, 1], ys=[0, 5])
    assert make_map("doubling", eps=0.05).dyadic_exact


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
    assert d.orbit_mode == "symbolic-exact"
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
    # blocked, in-place reconstruction (and the binary shift's symbol words):
    # the same bytes as one gather per level
    pmap = make_map(name, **params)
    depth, B = _symbol_tail_depth(pmap), _RECONSTRUCT_BLOCK
    rng = np.random.default_rng(11)
    for n in (1, 7, 8, 9, B - 1, B, B + 1, 3 * B + 5):
        syms = rng.integers(0, pmap.n_branches, n + depth + 9, dtype=np.uint8)
        got = points_from_symbols(pmap, syms, n)
        assert got.shape == (n,)
        assert got.tobytes() == reconstruct_points(pmap, syms, n).tobytes(), n
    # adversarial words for the binary shift, whose last level rounds: all
    # ones (x carries up to 1.0), all zeros, alternating bits, and runs of
    # ones ending in a zero (54-bit odd words, so every rounding is a tie)
    length = 3 * B + depth + 70
    runs = np.concatenate([np.r_[np.ones(r, dtype=np.uint8), 0] for r in range(1, 70)])
    words = {"ones": np.ones(length, dtype=np.uint8),
             "zeros": np.zeros(length, dtype=np.uint8),
             "alternating": np.arange(length, dtype=np.uint8) % 2,
             "runs": np.resize(runs, length)}
    for label, word in words.items():
        for n in (1, 7, 8, 9, B + 1, 3 * B + 5):
            got = points_from_symbols(pmap, word, n)
            assert got.tobytes() == reconstruct_points(pmap, word, n).tobytes(), (label, n)
    if name == "doubling":
        assert points_from_symbols(pmap, words["ones"], 9).tolist() == [1.0] * 9
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
    # why doubling is never float-iterated: the float step collapses dyadics
    d = make_map("doubling")
    pts, nxt = d.iterate(0.25, 4)
    assert pts.tolist() == [0.25, 0.5, 0.0, 0.0] and nxt == 0.0


# every built-in linear map, the 3, 1.5 map, a custom map with explicit
# intercepts, perturbed doubling at its default and a large eps, and full
# branches on 0, 0.31, 1 whose float images of 1 (1 + 2^-52 and -2^-52)
# only the clip of apply brings back into [0, 1]
_STEP_MAPS = [
    ("doubling", {}),
    ("tent", {}),
    ("linear", {"slopes": [3, -3, 3]}),
    ("custom", {"breakpoints": [0.0, 1.0 / 3.0, 1.0], "slopes": [3.0, 1.5]}),
    ("custom", {"breakpoints": [0.0, 0.4, 1.0], "slopes": [2.5, -1.5],
                "intercepts": [0.0, 1.5]}),
    ("perturbed-doubling", {"eps": 0.05}),
    ("perturbed-doubling", {"eps": 0.15}),
    ("custom", {"breakpoints": [0.0, 0.31, 1.0], "slopes": [1 / 0.31, 1 / 0.69]}),
    ("custom", {"breakpoints": [0.0, 0.31, 1.0], "slopes": [1 / 0.31, -1 / 0.69]}),
]


def _assert_step_is_apply(pmap, xs):
    """One step of the map's float stepper gives the bytes of `apply` on an
    array, as a Python float: an np.float64 keeps the bits but steps several
    times slower."""
    got = [pmap.iterate(x, 1)[1] for x in np.asarray(xs, dtype=float).tolist()]
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == pmap.apply(xs).tobytes()


def _step_points(pmap, xs):
    """xs, the breakpoints and their float neighbours, 0 and 1 - ulp."""
    bp = pmap.breakpoints
    return np.concatenate([xs, bp, np.nextafter(bp, 0.0), np.nextafter(bp, 1.0),
                           [0.0, np.nextafter(1.0, 0.0)]])


@pytest.mark.parametrize("name,params", _STEP_MAPS)
def test_scalar_twins_give_vector_bytes(name, params):
    # float iteration steps the whole map on one Python float; its bits must
    # be those of apply on an array, or float orbits drift from apply
    pmap = make_map(name, **params)
    _assert_step_is_apply(pmap, _step_points(pmap, np.random.default_rng(5).random(100_000)))


def test_float_orbit_consecutive_points_exact():
    maps = [make_map("perturbed-doubling", eps=eps) for eps in (0.05, 0.15)]
    maps.append(make_map("custom", breakpoints=[0.0, 1.0 / 3.0, 1.0], slopes=[3.0, 1.5]))
    for pmap in maps:
        for seed in (1, 6, 77, 2024):
            o = orbit(pmap, seed=seed, n=3000)
            assert pmap.orbit_mode == "float-iterate"
            assert np.array_equal(o.points[1:], pmap.apply(o.points[:-1]))


def test_symbolic_only_for_dyadic_maps():
    pd = make_map("perturbed-doubling")
    assert pd.orbit_mode == "float-iterate"
    two_slope = make_map("custom", breakpoints=[0.0, 1.0 / 3.0, 1.0], slopes=[3.0, 1.5])
    assert not two_slope.dyadic_exact
    assert two_slope.orbit_mode == "float-iterate"
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

    pts, _ = d.iterate(0.25, 3)
    s = birkhoff_sums(Orbit(pts, d.branch_index(pts)), sawtooth())
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
    assert streamed2.tobytes() == u(o2.points).tobytes()

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


def test_orbit_mode_decided_once_per_map():
    # the cycle probe of a linear map runs _PROBE_STARTS float orbits of
    # _RECENT steps; four readers of one map object share one probe
    probes = []
    m = make_map("custom", breakpoints=[0.0, 1.0 / 3.0, 1.0], slopes=[3.0, 1.5])
    step = m.iterate

    def counted(x, n):
        if n == maps._RECENT:
            probes.append(n)
        return step(x, n)

    m = replace(m, iterate=counted)
    orbit(m, 1, 100)
    next(symbol_chunks(m, 1, limit=100))
    next(orbit_value_chunks(m, sawtooth(), 1, 100))
    next(trial_value_blocks(m, sawtooth(), 5, 3, 1)[1])
    assert m.orbit_mode == "float-iterate"
    assert len(probes) == maps._PROBE_STARTS
    # a refused map is refused by every reader, every time
    halves = make_map("custom", breakpoints=[0.0, 0.25, 0.5, 1.0], slopes=[4.0, 4.0, 2.0])
    for _ in range(2):
        for read in (lambda: orbit(halves, 1, 10),
                     lambda: next(symbol_chunks(halves, 1)),
                     lambda: next(orbit_value_chunks(halves, sawtooth(), 1, 10)),
                     lambda: next(trial_value_blocks(halves, sawtooth(), 5, 3, 1)[1])):
            with pytest.raises(DomainError, match="power of two"):
                read()


_ALPHABETS = [1 << j for j in range(1, 9)] + [3, 5, 255]
# read sizes: empty, one symbol, around one 65536-symbol block, and up to
# 48 blocks at once
_TAKES = st.one_of(st.sampled_from([0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1]),
                   st.integers(0, 3 << 20))


@settings(max_examples=40, deadline=None)
@given(b=st.sampled_from(_ALPHABETS), seed=st.integers(0, 2**63),
       takes=st.lists(_TAKES, max_size=5))
def test_symbol_source_is_the_integer_block_stream(b, seed, takes):
    # raw generator bytes for b = 2^j and integers blocks otherwise give
    # the stream of the oracle byte for byte, however the reads are cut
    src = maps._SymbolSource(seed, b)
    got = np.concatenate([np.empty(0, dtype=np.uint8)] + [src.take(m) for m in takes])
    assert got.dtype == np.uint8
    assert got.tobytes() == integer_symbol_blocks(seed, b, sum(takes)).tobytes()


@pytest.mark.parametrize("b", [1 << j for j in range(1, 9)])
def test_power_of_two_alphabets_read_raw_words(monkeypatch, b):
    # every b = 2^j, 256 included, draws from the raw words alone: a
    # generator without `integers` still gives the whole stream
    monkeypatch.setattr(maps, "_rng", lambda seed: SimpleNamespace(bit_generator=PCG64(seed)))
    seed = 2**40 + 3
    got = maps._SymbolSource(seed, b).take(70_000)
    assert got.tobytes() == integer_symbol_blocks(seed, b, 70_000).tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
def test_symbolic_trial_rows_cut_the_symbol_stream(chunk):
    # row after row from the seed's one symbol stream: span symbols for a
    # branch-value table, span plus the reconstruction lookahead at points
    d = make_map("doubling")
    span, trials, seed = 11, 40, 3
    view, blocks = trial_value_blocks(d, coin(), span, trials, seed, chunk=chunk)
    rows = np.concatenate(list(blocks))
    syms = np.concatenate(list(symbol_chunks(d, seed, limit=trials * span)))
    assert rows.tobytes() == syms.tobytes()                 # the coin reads its symbols
    assert np.array_equal((view.w0 + view.d * rows.astype(np.int64)) * view.unit,
                          maps._branch_values(d, coin())[syms].reshape(trials, span))
    width = span + _symbol_tail_depth(d)
    assert width == span + 53
    view, blocks = trial_value_blocks(d, sawtooth(), span, trials, seed, chunk=chunk)
    syms = np.concatenate(list(symbol_chunks(d, seed, limit=trials * width)))
    want = sawtooth()(points_from_symbols(d, syms.reshape(trials, width), span))
    assert view is None
    assert np.concatenate(list(blocks)).tobytes() == want.tobytes()


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
    if all(abs(abs(s) * (br.hi - br.lo) - 1.0) < 1e-12 for br, s in zip(m.branches, m.linear[0])):
        # full branches: the Ulam density integrates to 1 and F(0) = 0
        op = ulam_matrix(m, None, 0.0, 64)
        assert np.sum(invariant_density(op)) / 64 == pytest.approx(1.0, abs=1e-12)
        assert np.log(op.leading_eigenvalue) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(0.001, 0.15), seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 700))
def test_random_smooth_maps_stream_in_any_chunks(eps, seed, chunk):
    # a perturbed-doubling float stream does not depend on its chunks, and
    # each point is apply of the one before it, byte for byte
    m = make_map("perturbed-doubling", eps=eps)
    n = 5000
    o = orbit(m, seed, n)
    assert o.points[1:].tobytes() == m.apply(o.points[:-1]).tobytes()
    whole = np.concatenate(list(orbit_value_chunks(m, sawtooth(), seed, n, chunk=n)))
    cut = np.concatenate(list(orbit_value_chunks(m, sawtooth(), seed, n, chunk=chunk)))
    assert cut.tobytes() == whole.tobytes() == sawtooth()(o.points).tobytes()


@settings(max_examples=60, deadline=None)
@given(m=_linear_maps(), seed=st.integers(0, 2**32 - 1))
def test_random_linear_map_twins_give_apply_bytes(m, seed):
    _assert_step_is_apply(m, _step_points(m, np.random.default_rng(seed).random(200)))


@settings(max_examples=60, deadline=None)
@given(m=_linear_maps(), seed=st.integers(0, 2**32 - 1))
def test_linear_table_is_every_branch(m, seed):
    # the (slopes, intercepts) table and the branches are one map, bit for
    # bit: forward s * x + c, and the inverse (y - c) / s clipped to the cell
    rng = np.random.default_rng(seed)
    slopes, intercepts = m.linear
    assert len(slopes) == len(intercepts) == m.n_branches
    for br, s, c in zip(m.branches, slopes.tolist(), intercepts.tolist()):
        xs = br.lo + (br.hi - br.lo) * rng.random(200)
        ys = np.concatenate([rng.random(200), [0.0, 1.0, *br.image()]])
        assert br(xs).tobytes() == (s * xs + c).tobytes()
        assert br.inverse(ys).tobytes() == np.clip((ys - c) / s, br.lo, br.hi).tobytes()
    assert make_map("perturbed-doubling").linear is None


def _assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def _assert_kernels_are_oracles(m, rng):
    """apply, derivative and inverse (the map's one-pass kernels) give the
    bytes of the per-branch mask loops on random points, the breakpoints
    and their float neighbours, 0 and 1, inputs with no point in the last
    branch, and one-point and 0-d inputs."""
    xs = np.concatenate([_step_points(m, rng.random(500)), [1.0]])
    first = m.breakpoints[0] + (m.breakpoints[1] - m.breakpoints[0]) * rng.random(50)
    for x in (xs, first, xs[:1], first[:1], xs[0], np.float64(first[0])):
        _assert_same(m.apply(x), apply_by_branch(m, x))
        _assert_same(m.derivative(x), derivative_by_branch(m, x))
    # preimages of uniform points, the ends of [0, 1], the breakpoints and
    # their neighbours under random branches, and of uniform points under
    # the first branch alone
    ys = np.concatenate([rng.random(500), [0.0, 1.0], m.breakpoints,
                         np.nextafter(m.breakpoints, 0.5)])
    sym = rng.integers(0, m.n_branches, len(ys)).astype(np.uint8)
    for s in (sym, np.zeros_like(sym)):
        _assert_same(m.inverse(ys, s), inverse_by_symbol(m, s, ys))
    for y, s in ((ys[:1], sym[:1]), (ys[0], sym[0]), (np.float64(1.0), np.uint8(0))):
        _assert_same(m.inverse(y, s), inverse_by_symbol(m, np.asarray(s), np.asarray(y)))


@settings(max_examples=60, deadline=None)
@given(m=_linear_maps(), seed=st.integers(0, 2**32 - 1))
def test_branch_dispatch_inverse_is_the_mask_loop(m, seed):
    _assert_kernels_are_oracles(m, np.random.default_rng(seed))


@pytest.mark.parametrize("eps", [0.05, 0.15])
def test_smooth_branch_dispatch_inverse_is_the_mask_loop(eps):
    m = make_map("perturbed-doubling", eps=eps)
    for seed in range(5):
        _assert_kernels_are_oracles(m, np.random.default_rng(seed))


def _newton_steps(br, ys):
    """The Newton steps Branch.inverse takes on ys: its evaluations of the
    branch but the two at the bracket ends."""
    counted, seen = _counting(br)
    counted.inverse(ys)
    return len(seen) - 2


@pytest.mark.parametrize("eps", [0.05, 0.15])
def test_smooth_inverse_stops_each_branch_on_its_own(eps):
    # five values, each inverted under both branches, which take different
    # numbers of Newton steps on them: the one loop over all points stops
    # each branch where that branch's own loop stops, so no bit moves
    m = make_map("perturbed-doubling", eps=eps)
    ys = np.repeat(np.random.default_rng(1).random(5), 2)
    sym = np.tile(np.array([0, 1], dtype=np.uint8), 5)
    steps = [_newton_steps(br, ys[sym == i]) for i, br in enumerate(m.branches)]
    assert steps[0] != steps[1]
    _assert_same(m.inverse(ys, sym), inverse_by_symbol(m, sym, ys))


def test_coin_values():
    u = coin()
    assert np.array_equal(u(np.array([0.1, 0.5, 0.9])), [-0.5, 0.5, 0.5])
    assert u.variation_bound == 1.0


def test_centering_shifts_mean():
    u = sawtooth().with_mean(0.25)
    assert u(np.array([0.75]))[0] == pytest.approx(0.0)
    assert u.raw(np.array([0.75]))[0] == pytest.approx(0.25)
