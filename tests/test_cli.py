import inspect
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ergostat
from ergostat.config import (
    SCHEMA,
    build_map,
    build_observable,
    parse_config,
)
from ergostat import transfer
from ergostat.entropy import RETURN_TIME_CAP, ow_run, return_times_upto
from ergostat.erdos_renyi import LENGTH_CAP, er_law_check
from ergostat.errors import ConfigError
from ergostat.maps import make_map, make_observable
from ergostat.cli import SUBCOMMANDS, _write_csv, main, run
from oracles import coin_rate
from test_golden import MAPS, config_text

MINIMAL = """
[map]
name = doubling

[observable]
name = sawtooth

[run]
seeds = 1
"""


def cfg_text(outdir, extra=""):
    return MINIMAL + f"""
[run]
seeds = 1
output_dir = {outdir}
horizon = 2000
checkpoints = 1000, 2000

[ulam]
resolution = 256
""" + extra


# -- parsing ------------------------------------------------------------------

def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.get("map", "name") == "doubling"
    assert cfg.get("run", "seeds") == [1]
    assert cfg.get("ulam", "resolution") == 1024
    assert cfg.get("sigma2", "method") == "quadrature"


def test_constructors_take_the_keys_of_their_sections():
    # one owner per key: make_map reads the whole [map] section, and
    # make_observable all of [observable] but `center`, which the CLI applies
    assert set(inspect.signature(make_map).parameters) == set(SCHEMA["map"])
    assert set(inspect.signature(make_observable).parameters) == \
        set(SCHEMA["observable"]) - {"center"} | {"pmap"}


def test_config_defaults_are_the_library_defaults():
    # a CLI run and a library call censor, cap and perturb at the same values
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert SCHEMA["entropy"]["cap"][1] == RETURN_TIME_CAP == 10**8
    assert default(ow_run, "cap") == default(return_times_upto, "cap") == RETURN_TIME_CAP
    assert SCHEMA["erdos_renyi"]["length_cap"][1] == LENGTH_CAP == 2**32
    assert default(er_law_check, "length_cap") == LENGTH_CAP
    assert SCHEMA["map"]["eps"][1] == default(make_map, "eps") == 0.05


def test_unknown_section_lists_valid_ones():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[foo]\nbar = 1\nbaz = 2\n")
    # one issue, at the header: the keys under an unknown section are not
    # each reported again as lying outside any section
    (_, msg), = err.value.issues
    assert "unknown section [foo]" in msg and "map" in msg


def test_unterminated_section_header_is_reported_once():
    bad = MINIMAL + "\n[ld\nalpha = 0.3\ntrials = 20000\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    # the keys under it are skipped, as an unknown section's are
    (line, msg), = err.value.issues
    assert msg == "unterminated section header" and bad.splitlines()[line - 1] == "[ld"


def test_negative_resolution_reports_line():
    bad = MINIMAL + "\n[ulam]\nresolution = -4\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    (line, msg), = [(ln, m) for ln, m in err.value.issues if "resolution" in m]
    assert "at least 2" in msg
    assert bad.splitlines()[line - 1].strip() == "resolution = -4"


def test_type_mismatch_and_unknown_key():
    bad = MINIMAL + "\n[run]\nhorizon = soon\nwibble = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msgs = " | ".join(m for _, m in err.value.issues)
    assert "horizon" in msgs and "unknown key 'wibble'" in msgs


def test_threads_accepts_only_one(tmp_path, capsys):
    # seeds run one after another; 1 still parses, with the hash it had
    cfg = parse_config(MINIMAL + "threads = 1\n")
    assert cfg.get("run", "threads") == 1
    assert cfg.hash() == parse_config(MINIMAL).hash()
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL + "threads = 2\n")
    assert main(["density", "--config", str(cfg_path)]) == 2
    line = MINIMAL.count("\n") + 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: line {line}: 'threads' must be 1: "
                   "seeds run one after another"]


def test_missing_required_key():
    with pytest.raises(ConfigError) as err:
        parse_config("[map]\nname = tent\n")
    assert any("observable" in m for _, m in err.value.issues)


def test_roundtrip_serialization():
    cfg = parse_config(MINIMAL + "\n[pressure]\nbeta_max = 2.5\n")
    again = parse_config(cfg.canonical)
    assert again == cfg
    assert again.canonical == cfg.canonical


def test_hash_tracks_semantics_not_formatting():
    cfg1 = parse_config(MINIMAL)
    cfg2 = parse_config("# a comment\n" + MINIMAL.replace("seeds = 1", "seeds =  1 "))
    cfg3 = parse_config(MINIMAL.replace("sawtooth", "coin"))
    assert cfg1.hash() == cfg2.hash()
    assert cfg1.hash() != cfg3.hash()


def test_builders():
    cfg = parse_config(MINIMAL.replace("doubling", "tent"))
    pmap = build_map(cfg)
    assert pmap.name == "tent"
    u = build_observable(cfg, pmap)
    assert abs(u(np.array([0.75]))[0] - 0.25) < 1e-6   # sawtooth; the CLI centres it


# -- runner -------------------------------------------------------------------

def test_density_run_and_exit_codes(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(cfg_text(out))
    assert run("density", cfg) == 0
    rows = (out / "density-1.csv").read_text().strip().splitlines()
    assert rows[0] == "cell,midpoint,density"
    assert len(rows) == 257
    vals = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert np.max(np.abs(vals - 1.0)) < 1e-3
    manifest = json.loads((out / "density-manifest.json").read_text())
    assert manifest["config_hash"] == cfg.hash()
    assert manifest["subcommand"] == "density"


@pytest.mark.filterwarnings("ignore:sigma.2 is numerically zero")
def test_degenerate_variance_exit_code(tmp_path):
    # the coboundary sigma^2 carries O(N^-2) quadrature bias, so the
    # degeneracy floor needs the default resolution or better
    text = cfg_text(tmp_path / "o").replace("name = sawtooth", "name = coboundary")
    text = text.replace("resolution = 256", "resolution = 1024")
    assert run("asclt", parse_config(text)) == 3


def test_one_operator_assembly_per_invocation(tmp_path, monkeypatch):
    # density, centring, sigma^2, the pressure curve and the entropy runs
    # all read one beta = 0 operator: the Ulam samples are assembled once
    # per invocation, and not at all when nothing reads them
    calls = []
    assemble = transfer._ulam_samples

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(transfer, "_ulam_samples", counted)
    runs = ([(sub, "orbit", True) for sub in SUBCOMMANDS]
            + [(sub, "quadrature", True) for sub in ("sigma2", "asclt", "maxima")]
            + [(sub, "orbit", False) for sub in ("sigma2", "rate-curve")])
    builds = {}
    for sub, method, center in runs:
        text = config_text(MAPS["perturbed-sawtooth"] + f"center = {str(center).lower()}\n",
                           sub, tmp_path / f"{sub}-{method}-{center}")
        calls.clear()
        assert run(sub, parse_config(text.replace("method = orbit", f"method = {method}"))) == 0
        builds[sub, method, center] = len(calls)
    assert builds == {key: int(key[2]) for key in runs}


def test_map_past_256_branches_exits_3(tmp_path, capsys):
    spec = "name = linear\nslopes = " + ", ".join(["300"] * 300)
    cfg = parse_config(cfg_text(tmp_path / "o").replace("name = doubling", spec))
    assert run("asclt", cfg) == 3
    assert "at most 256" in capsys.readouterr().err


def test_custom_map_short_of_intercepts_exits_3(tmp_path, capsys):
    spec = "name = custom\nbreakpoints = 0, 0.5, 1\nslopes = 2, 2\nintercepts = 0"
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(cfg_text(tmp_path / "o").replace("name = doubling", spec))
    assert main(["asclt", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err.splitlines() == ["numeric failure: need one intercept per slope"]


@pytest.mark.parametrize("sub,alpha,says", [
    ("ld-check", 0.5, "outside the range of F'"),
    ("erdos-renyi", 0.6, "outside the range of F'"),
    ("erdos-renyi", math.nan, "outside the range of F'"),
    ("erdos-renyi", -0.2, "not positive"),
    ("ld-check", -0.1, "not positive"),
])
def test_alpha_without_a_rate_law_exits_3(tmp_path, capsys, sub, alpha, says):
    # F' of the coin is a weighted mean of +-1/2, so alpha = 0.5 and past
    # have no rate law; before, erdos-renyi at -0.2 wrote a band
    # with band_lo 0.590 > band_hi -0.590, and ld-check at -0.1, below the
    # mean, wrote a prefactor ratio of 7.08; all exited 0
    section = sub.replace("-", "_").replace("check", "").rstrip("_")
    text = cfg_text(tmp_path / "o").replace("name = sawtooth", "name = coin").replace(
        "[ulam]", f"[{section}]\nalpha = {alpha}\nk_grid = 50\n\n[ulam]")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(text)
    assert main([sub, "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: ") and says in err[0]


@pytest.mark.parametrize("sub,alpha,extra", [
    ("erdos-renyi", 0.153, "k_grid = 20"),
    ("ld-check", 0.4, "k_grid = 20\ntrials = 10000"),
    ("ld-check", 0.46, "k_grid = 20\ntrials = 10000"),
    ("erdos-renyi", 0.49, "k_grid = 20"),
])
def test_phi_and_beta_are_taken_at_alpha_itself(tmp_path, sub, alpha, extra):
    # before, phi and beta were read off a 121-point alpha grid on +-0.3 by
    # linear interpolation: erdos-renyi at 0.153 was 1.3e-5 off in phi, and
    # ld-check at 0.4, past the grid, exited 3; later a spline of the
    # [pressure] grid refused 0.46 and 0.49, past its secant slopes.
    # Doubling/coin has the exact Ulam pressure log cosh(beta/2), so the
    # rate solve meets the closed forms to rounding; beta is ill-conditioned
    # near 1/2, and its error is read as the alpha-residual F'' |d beta|,
    # with F''(beta(alpha)) = 1/4 - alpha^2
    out = tmp_path / "o"
    section = sub.replace("-", "_").replace("check", "").rstrip("_")
    text = cfg_text(out).replace("name = sawtooth", "name = coin").replace(
        "[ulam]", f"[{section}]\nalpha = {alpha}\n{extra}\n\n[ulam]")
    assert run(sub, parse_config(text)) == 0
    manifest = json.loads((out / f"{sub}-manifest.json").read_text())
    phi, beta = coin_rate(alpha)
    assert manifest["alpha"] == alpha
    assert abs(manifest["phi"] - phi) <= 1e-12
    assert abs(manifest["beta"] - beta) * (0.25 - alpha**2) <= 1e-12


def test_pressure_grid_past_overflow_exits_3_at_once(tmp_path, capsys):
    # e^{beta u} overflows at every beta != 0: before, the run warned,
    # exited 0 and wrote nan rows at +-1500 after 100 000 power-iteration
    # steps on a NaN iterate (4.7 s)
    text = cfg_text(tmp_path / "o").replace("name = sawtooth", "name = coin").replace(
        "resolution = 256", "resolution = 64\n\n[pressure]\nbeta_max = 3000\nbeta_points = 5")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(text)
    start = time.perf_counter()
    assert main(["pressure", "--config", str(cfg_path)]) == 3
    assert time.perf_counter() - start < 3.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sub", ["asclt", "sigma2"])
def test_orbit_shorter_than_its_lags_exits_3(tmp_path, capsys, sub):
    # 5 orbit values have 4 lags and no certified tail: the run is refused
    # instead of writing a NaN sigma^2
    out = tmp_path / "o"
    text = cfg_text(out).replace("name = doubling", "name = perturbed-doubling").replace(
        "[ulam]", "[sigma2]\nmethod = orbit\norbit_length = 5\n\n[ulam]")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(text)
    assert main([sub, "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: ")
    assert not any("nan" in p.read_text() for p in out.glob("*.csv"))


def test_budget_exit_code(tmp_path):
    extra = "\n[erdos_renyi]\nalpha = 0.25\nk_grid = 4000\nlength_cap = 1000000\n"
    text = cfg_text(tmp_path / "o", extra).replace("name = sawtooth", "name = coin")
    assert run("erdos-renyi", parse_config(text)) == 4


def test_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for sub in ("asclt", "maxima"):
        c1 = parse_config(cfg_text(out1).replace("name = sawtooth", "name = coin"))
        c2 = parse_config(cfg_text(out2).replace("name = sawtooth", "name = coin"))
        assert run(sub, c1) == 0
        assert run(sub, c2) == 0
        f1 = (out1 / f"{sub}-1.csv").read_bytes()
        f2 = (out2 / f"{sub}-1.csv").read_bytes()
        assert f1 == f2


def test_write_csv_matches_per_value_formatting(tmp_path):
    # the per-value formatting the one-string writer replaced
    def per_value(v):
        return str(int(v)) if isinstance(v, (int, np.integer)) else "%.17g" % float(v)

    rng = np.random.default_rng(3)
    with np.errstate(over="ignore"):                  # float32(1e300) is inf
        rows = [(int(k), np.int64(-k), x, float(y), True, np.float32(x))
                for k, x, y in zip(range(-5, 995), rng.standard_normal(1000) * 1e300,
                                   rng.random(1000))]
    rows += [(2**70, np.int64(0), math.inf, -math.inf, False, np.float32(0.0)),
             (0, np.int64(2**62), math.nan, -0.0, True, np.float32(1e-40))]
    header = ["a", "b", "c", "d", "e", "f"]
    expected = "\n".join([",".join(header)] + [",".join(map(per_value, r)) for r in rows])
    columns = list(zip(*rows))
    _write_csv(tmp_path / "x.csv", header, columns)
    assert (tmp_path / "x.csv").read_text() == expected + "\n"
    # the same columns as numpy arrays, as the runners pass them
    arrays = [np.array(col) for col in columns[1:]]
    _write_csv(tmp_path / "arrays.csv", header[1:], arrays)
    assert (tmp_path / "arrays.csv").read_text() == "\n".join(
        [",".join(header[1:])] + [",".join(map(per_value, r[1:])) for r in rows]) + "\n"
    _write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_text() == "a,b,c,d,e,f\n"
    _write_csv(tmp_path / "empty.csv", header, [np.array([])] * 6)
    assert (tmp_path / "empty.csv").read_text() == "a,b,c,d,e,f\n"
    with pytest.raises(TypeError, match="mixes"):
        _write_csv(tmp_path / "mixed.csv", ["k"], [(1, 3.7)])


def test_all_csv_fields_finite(tmp_path):
    out = tmp_path / "out"
    extra = ("\n[ld]\nalpha = 0.1\nk_grid = 30\ntrials = 20000\n"
             "r_grid = 0, 15, 30\ndecoupling_k = 30\n")
    text = cfg_text(out, extra).replace("name = sawtooth", "name = coin")
    cfg = parse_config(text)
    assert run("ld-check", cfg) == 0
    rows = (out / "ld-check-1.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        for fieldval in row.split(","):
            assert np.isfinite(float(fieldval))


def test_main_cli_entrypoint(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(cfg_text(tmp_path / "o"))
    assert main(["density", "--config", str(cfg_path)]) == 0
    assert main(["density", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[foo]\nx = 1\n")
    assert main(["density", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unknown section" in err


def test_seed_offset(tmp_path):
    out = tmp_path / "o"
    cfg = parse_config(cfg_text(out))
    assert run("density", cfg, seed_offset=10) == 0
    assert (out / "density-11.csv").exists()


def test_pressure_sigma2_ratecurve_subcommands(tmp_path):
    out = tmp_path / "full"
    extra = """
[sigma2]
method = orbit
orbit_length = 100000

[rate_curve]
trajectory_length = 65536
k_grid = 20, 40, 80
"""
    text = cfg_text(out, extra).replace("name = sawtooth", "name = coin")
    cfg = parse_config(text)
    for sub in ("pressure", "sigma2", "rate-curve"):
        assert run(sub, cfg) == 0
    press = (out / "pressure-1.csv").read_text().splitlines()
    assert press[0] == "beta,pressure"
    # coin pressure is log cosh(beta/2) exactly at any resolution
    beta, F = map(float, press[1].split(","))
    assert F == pytest.approx(np.log(np.cosh(beta / 2.0)), abs=1e-10)
    sig = (out / "sigma2-1.csv").read_text().splitlines()
    assert sig[0] == "lag,covariance,partial_sigma2"
    assert float(sig[1].split(",")[1]) == pytest.approx(0.25, rel=0.02)
    rate = (out / "rate-curve-1.csv").read_text().splitlines()
    assert rate[0] == "m_k,logN_over_k,phi_true"
    for row in rate[1:]:
        assert all(np.isfinite(float(v)) for v in row.split(","))


def test_custom_doubling_is_the_doubling_map(tmp_path):
    from ergostat.maps import make_map, orbit

    custom = make_map("custom", breakpoints=[0.0, 0.5, 1.0], slopes=[2.0, 2.0])
    doubling = make_map("doubling")
    a, b = orbit(custom, seed=4, n=10_000), orbit(doubling, seed=4, n=10_000)
    assert custom.orbit_mode == doubling.orbit_mode == "symbolic-exact"
    assert np.array_equal(a.points, b.points) and np.array_equal(a.symbols, b.symbols)
    spec = "name = custom\nbreakpoints = 0, 0.5, 1\nslopes = 2, 2"
    for name, mapspec in (("d", "name = doubling"), ("c", spec)):
        cfg = parse_config(cfg_text(tmp_path / name).replace("name = doubling", mapspec))
        assert run("asclt", cfg) == 0
    assert (tmp_path / "c" / "asclt-1.csv").read_bytes() == \
        (tmp_path / "d" / "asclt-1.csv").read_bytes()


def test_collapsing_custom_map_exits_3(tmp_path, capsys):
    spec = "name = custom\nbreakpoints = 0, 0.25, 0.5, 1\nslopes = 4, 4, 2"
    cfg = parse_config(cfg_text(tmp_path / "o").replace("name = doubling", spec))
    assert run("asclt", cfg) == 3
    assert "power of two" in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*.csv"))


def test_custom_map_through_config(tmp_path):
    text = f"""
[map]
name = custom
breakpoints = 0, 0.25, 1
slopes = 4, 1.3333333333333333

[observable]
name = sawtooth

[run]
seeds = 1
output_dir = {tmp_path / 'c'}

[ulam]
resolution = 512
"""
    cfg = parse_config(text)
    pmap = build_map(cfg)
    assert pmap.n_branches == 2
    assert run("density", cfg) == 0


@pytest.mark.filterwarnings("ignore:sigma.2 is numerically zero")
def test_entropy_subcommands(tmp_path):
    out = tmp_path / "e"
    extra = "\n[entropy]\ndepth = 12\ncap = 1000000\n"
    text = cfg_text(out, extra).replace("name = doubling", "name = perturbed-doubling")
    cfg = parse_config(text.replace("checkpoints = 1000, 2000", "checkpoints = 6, 12"))
    assert run("entropy-ow", cfg) == 0
    rows = (out / "entropy-ow-1.csv").read_text().strip().splitlines()
    assert rows[0] == "k,minus_log_mu,log_Rk,smb_atom,ow_atom,sandwich_ok"
    assert len(rows) >= 12   # header + 12 rows unless censored
    # doubling is refused (constant slope)
    text2 = cfg_text(out, extra)
    assert run("entropy-smb", parse_config(text2)) == 3


def test_seed_free_work_once_per_invocation(tmp_path, monkeypatch):
    # the density, h and sigma^2 of an entropy run and the quadrature
    # autocovariance series of sigma2 do not depend on the seed: a two-seed
    # invocation computes each of them once
    from ergostat import cli, entropy

    calls = []

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(entropy, "invariant_density")
    count(entropy, "green_kubo_sigma2")
    count(cli, "autocovariance_series")
    for sub, method in (("entropy-smb", "orbit"), ("entropy-ow", "orbit"),
                        ("sigma2", "quadrature")):
        text = config_text(MAPS["perturbed-sawtooth"], sub, tmp_path / sub)
        calls.clear()
        assert run(sub, parse_config(text.replace("method = orbit", f"method = {method}"))) == 0
        if sub == "sigma2":
            assert calls == ["autocovariance_series"]
            out = tmp_path / sub
            assert (out / "sigma2-1.csv").read_bytes() == (out / "sigma2-2.csv").read_bytes()
        else:
            assert calls == ["invariant_density", "green_kubo_sigma2"]


TWO_SLOPE = "name = custom\nbreakpoints = 0, 0.3333333333333333, 1\nslopes = 3, 1.5"
FOUR_BRANCH = "name = custom\nbreakpoints = 0, 0.2, 0.4, 0.6, 1\nslopes = 5, 5, 5, 2.5"


def test_entropy_smb_on_steep_full_branch_map(tmp_path):
    # the float pullback of this map's cylinders collapses after about 28
    # levels; the run must not refuse the orbit's own itinerary, and for a
    # full-branch linear map -log mu(P_k) is the slope product sum
    from ergostat.maps import make_map, orbit

    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(cfg_text(tmp_path / "o").replace("name = doubling", FOUR_BRANCH))
    assert main(["entropy-smb", "--config", str(cfg_path)]) == 0
    rows = np.loadtxt(tmp_path / "o" / "entropy-smb-1.csv", delimiter=",", skiprows=1)
    pmap = make_map("custom", breakpoints=[0, 0.2, 0.4, 0.6, 1], slopes=[5, 5, 5, 2.5])
    exact = np.cumsum(np.log([5.0, 5.0, 5.0, 2.5])[orbit(pmap, 1, 2000).symbols])
    assert np.max(np.abs(rows[:, 1] - exact)) <= 1e-11


@pytest.mark.parametrize("sub,old,new", [
    ("asclt", "horizon = 2000\ncheckpoints = 1000, 2000",
     "horizon = 500\ncheckpoints = 100, 1000"),
    ("rate-curve", "[ulam]", "[rate_curve]\ntrajectory_length = 1000\n\n[ulam]"),
    ("asclt", "name = sawtooth", "name = nosuch"),
    ("density", "name = doubling", "name = nosuchmap"),
    ("asclt", "checkpoints = 1000, 2000", "checkpoints = 0, 2000"),
    ("maxima", "checkpoints = 1000, 2000", "checkpoints = 2, 2000"),
    ("asclt", "horizon = 2000\ncheckpoints = 1000, 2000", "horizon = 3"),
    ("entropy-smb", "checkpoints = 1000, 2000", "checkpoints = 1000, 5000"),
    ("entropy-ow", "checkpoints = 1000, 2000", "checkpoints = 5, 20\n\n[entropy]\ndepth = 10"),
    ("rate-curve", "[ulam]", "[rate_curve]\nk_grid = -20\n\n[ulam]"),
    ("rate-curve", "[ulam]", "[rate_curve]\nk_grid = 0, 20\n\n[ulam]"),
    ("ld-check", "[ulam]", "[ld]\nk_grid = 0, 50\n\n[ulam]"),
    ("ld-check", "[ulam]", "[ld]\nk_grid = -5\n\n[ulam]"),
    ("ld-check", "[ulam]", "[ld]\nr_grid = -3\n\n[ulam]"),
    ("erdos-renyi", "[ulam]", "[erdos_renyi]\nk_grid = 1, 20\n\n[ulam]"),
    ("asclt", "name = sawtooth", "name = table"),
    ("asclt", "name = sawtooth", "name = table\nxs = 0, 0.5, 1\nys = 1, 2"),
    ("asclt", "name = sawtooth", "name = table\nxs = 0, 0.5, 0.5, 1\nys = 1, 2, 3, 4"),
    ("pressure", "name = sawtooth", "name = table\nxs = 0, 1\nys = nan, 1"),
    ("density", "seeds = 1", "seeds = 2, -1"),
    ("asclt --seed-offset=-2", "seeds = 1", "seeds = 1, 5"),
    ("asclt", "[ulam]", "[sigma2]\nvalue = -1\n\n[ulam]"),
    ("maxima", "[ulam]", "[sigma2]\nvalue = 0\n\n[ulam]"),
    ("erdos-renyi", "[ulam]",
     "[rate]\nalpha_min = -0.3\nalpha_max = 0.3\nalpha_points = 121\n\n[ulam]"),
    ("density", "name = doubling", "name = linear"),
    ("density", "name = doubling", "name = custom\nslopes = 2, 2"),
    ("density", "name = doubling", "name = Custom\nbreakpoints = 0, 0.5, 1"),
    ("density", "name = doubling", "name = doubling\nslopes = 3, 3, 3"),
    ("pressure", "name = sawtooth", "name = sawtooth\nxs = 0, 1"),
    ("density", "name = doubling", "name = perturbed-doubling\nslopes = 2, 2"),
    ("density", "name = doubling",
     "name = custom\nbreakpoints = 0, 0.5, 1\nslopes = 2, 2\neps = 0.1"),
    ("density", "name = sawtooth", "name = nosuch"),
    # entropy-ow needs a ladder within its depth (default 20) to get past
    # the ladder check, so it restates [observable] after the ladder
    ("entropy-ow", "checkpoints = 1000, 2000",
     "checkpoints = 5, 20\n\n[observable]\nname = nosuch"),
    ("density", "name = sawtooth", "name = sawtooth\nys = 0, 1"),
    ("entropy-ow", "checkpoints = 1000, 2000",
     "checkpoints = 5, 20\n\n[observable]\nname = sawtooth\nxs = 0, 1"),
], ids=["checkpoint-past-horizon", "trajectory-under-10-windows", "unknown-observable",
        "unknown-map", "zero-checkpoint", "first-checkpoint-below-4", "horizon-below-4",
        "entropy-checkpoint-past-horizon", "entropy-checkpoint-past-depth",
        "rate-curve-negative-window", "rate-curve-zero-window", "ld-zero-window",
        "ld-negative-window", "ld-negative-shift", "er-window-of-1", "table-without-points",
        "table-unequal-lengths", "table-repeated-x", "table-nan-value",
        "negative-seed", "negative-seed-offset", "negative-sigma2-value",
        "zero-sigma2-value", "stale-rate-section", "linear-without-slopes",
        "custom-without-breakpoints", "custom-without-slopes", "doubling-with-slopes",
        "sawtooth-with-xs", "perturbed-with-slopes", "custom-with-eps",
        "density-unknown-observable", "entropy-ow-unknown-observable",
        "density-sawtooth-with-ys", "entropy-ow-sawtooth-with-xs"])
def test_unrunnable_config_exits_2(tmp_path, capsys, sub, old, new):
    text = cfg_text(tmp_path / "o")
    if sub.startswith("entropy"):     # doubling's constant slope would be refused
        text = text.replace("name = doubling", TWO_SLOPE)
    assert old in text
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(text.replace(old, new))
    assert main([*sub.split(), "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    # the output directory comes with the first artifact: none is left behind
    assert not (tmp_path / "o").exists()


def test_empty_window_grids_still_run(tmp_path):
    # an empty rate-curve grid means the default one; an empty
    # erdos-renyi grid writes a header-only CSV
    assert parse_config(MINIMAL + "\n[rate_curve]\nk_grid =\n").get("rate_curve", "k_grid") == []
    out = tmp_path / "o"
    text = config_text(MAPS["doubling-coin"], "erdos-renyi", out).replace(
        "k_grid = 10, 20, 40\n", "k_grid =\n")
    assert run("erdos-renyi", parse_config(text)) == 0
    assert (out / "erdos-renyi-1.csv").read_text() == "k,M_k,fluctuation,band_lo,band_hi\n"
    # no window was summed, on integers or otherwise
    manifest = json.loads((out / "erdos-renyi-manifest.json").read_text())
    assert manifest["window_sums"] == "float" and "window_unit" not in manifest


SPELLINGS = [
    # (subcommand, section, canonical name, its keys, other spellings)
    ("density", "map", "perturbed-doubling", "eps = 0.1",
     ["Perturbed-Doubling", "PERTURBED_DOUBLING"]),
    ("pressure", "observable", "table", "xs = 0, 1\nys = 0, 1", ["Table"]),
    ("rate-curve", "observable", "coin", "", ["Coin", " coin "]),
]


@pytest.mark.parametrize("sub,section,name,keys,spellings", SPELLINGS,
                         ids=[case[0] for case in SPELLINGS])
def test_a_name_spelling_writes_the_canonical_bytes(tmp_path, sub, section, name, keys,
                                                    spellings):
    # before, Perturbed-Doubling ran at the default eps = 0.05, Table lost
    # its xs and ys (KeyError), and Coin dropped rate-curve's phi_true column
    def written(spelling, eps=None):
        out = tmp_path / f"o{len(list(tmp_path.iterdir()))}"
        text = cfg_text(out, "\n[ulam]\nresolution = 64\n\n[rate_curve]\n"
                             "trajectory_length = 4096\nk_grid = 20, 40\n")
        default = "doubling" if section == "map" else "sawtooth"
        text = text.replace(f"name = {default}", f"name = {name}\n{keys}")
        if eps is not None:
            text = text.replace("eps = 0.1", f"eps = {eps}")
        cfg = parse_config(text)
        cfg.values[section]["name"] = spelling   # blanks too: the parser strips them
        assert run(sub, cfg) == 0
        return (out / f"{sub}-1.csv").read_bytes()

    canonical = written(name)
    for spelling in spellings:
        assert written(spelling) == canonical, spelling
    if sub == "density":
        assert written(name, eps=0.05) != canonical      # eps is read
    if sub == "rate-curve":
        assert canonical.startswith(b"m_k,logN_over_k,phi_true\n")


@pytest.mark.parametrize("sub", ["erdos-renyi", "ld-check"])
@pytest.mark.parametrize("name,expected", [
    ("doubling-coin", {"window_sums": "integer", "window_unit": 0.5}),
    ("perturbed-sawtooth", {"window_sums": "float"}),
])
def test_manifest_names_the_window_sum_path(tmp_path, sub, name, expected):
    # the coin's +-1/2 table is summed as its symbols c, u = (2c - 1)/2; a
    # float-iterated map and a Lipschitz observable keep float sums
    out = tmp_path / "o"
    assert run(sub, parse_config(config_text(MAPS[name], sub, out))) == 0
    manifest = json.loads((out / f"{sub}-manifest.json").read_text())
    assert {key: manifest[key] for key in manifest if key.startswith("window_")} == expected


@pytest.mark.parametrize("ladder", ["horizon = 3", "horizon = 2000\ncheckpoints = 1000, 5000",
                                    "horizon = 2000\ncheckpoints = 2, 2000"])
def test_refused_ladder_exits_before_sigma2(tmp_path, monkeypatch, ladder):
    # the checkpoint ladder is checked before sigma^2 is estimated, so a
    # config that will be refused runs no autocovariance series
    calls = []
    series = transfer.autocovariance_series

    def counted(*args, **kwargs):
        calls.append(args)
        return series(*args, **kwargs)

    monkeypatch.setattr(transfer, "autocovariance_series", counted)
    for sub, method in (("asclt", "orbit"), ("maxima", "orbit"), ("asclt", "quadrature")):
        text = cfg_text(tmp_path / "o", f"\n[sigma2]\nmethod = {method}\n")
        text = text.replace("horizon = 2000\ncheckpoints = 1000, 2000", ladder)
        assert run(sub, parse_config(text)) == 2
    assert calls == []


def _fresh_interpreter(code: str) -> str:
    """Standard output of code run by a fresh interpreter that imports
    ergostat and the test helpers from this checkout."""
    src = str(Path(ergostat.__file__).resolve().parents[1])
    paths = [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cold_start_skips_unused_scipy_packages():
    # each CLI process pays for what `import ergostat.cli` loads; the normal
    # CDF and the sparse Ulam matrix live in ergostat, so no scipy module is
    # loaded at all
    code = ("import sys, ergostat.cli\n"
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _fresh_interpreter(code).strip() == ""


def test_invocations_load_no_module():
    # what a run needs is loaded by `import ergostat.cli`, so no invocation
    # pays an import: numpy loads numpy.random at the first Generator and
    # numpy.ma at the first np.unique
    code = ("import sys, tempfile\n"
            "from pathlib import Path\n"
            "from ergostat.cli import SUBCOMMANDS, run\n"
            "from ergostat.config import parse_config\n"
            "from test_golden import MAPS, config_text\n"
            "before = set(sys.modules)\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    for name in ('doubling-coin', 'perturbed-sawtooth'):\n"
            "        for sub in SUBCOMMANDS:\n"
            "            out = Path(tmp) / name / sub\n"
            "            run(sub, parse_config(config_text(MAPS[name], sub, out)))\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    assert _fresh_interpreter(code).strip() == ""
