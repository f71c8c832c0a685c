import json

import numpy as np
import pytest

from ergostat.config import (
    build_map,
    build_observable,
    parse_config,
)
from ergostat.errors import ConfigError
from ergostat.cli import main, run

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


def test_unknown_section_lists_valid_ones():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[foo]\nbar = 1\n")
    issues = err.value.issues
    assert any("unknown section [foo]" in msg and "map" in msg for _, msg in issues)


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


def test_missing_required_key():
    with pytest.raises(ConfigError) as err:
        parse_config("[map]\nname = tent\n")
    assert any("observable" in m for _, m in err.value.issues)


def test_roundtrip_serialization():
    cfg = parse_config(MINIMAL + "\n[rate]\nalpha_max = 0.35\n")
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
    assert abs(u(np.array([0.75]))[0] - 0.25) < 1e-6   # centered sawtooth


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


def test_thread_override_keeps_bytes(tmp_path, monkeypatch):
    base = cfg_text(tmp_path / "one").replace("seeds = 1", "seeds = 1, 2, 3")
    assert run("asclt", parse_config(base)) == 0
    monkeypatch.setenv("ERGOSTAT_THREADS", "3")
    threaded = base.replace(str(tmp_path / "one"), str(tmp_path / "many"))
    assert run("asclt", parse_config(threaded)) == 0
    for s in (1, 2, 3):
        assert (tmp_path / "one" / f"asclt-{s}.csv").read_bytes() == \
            (tmp_path / "many" / f"asclt-{s}.csv").read_bytes()


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
    a, b = orbit(custom, seed=4, n=10_000), orbit(make_map("doubling"), seed=4, n=10_000)
    assert a.mode == b.mode == "symbolic-exact"
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
    cfg = parse_config(text)
    assert run("entropy-ow", cfg) == 0
    rows = (out / "entropy-ow-1.csv").read_text().strip().splitlines()
    assert rows[0] == "k,minus_log_mu,log_Rk,smb_atom,ow_atom,sandwich_ok"
    assert len(rows) >= 12   # header + 12 rows unless censored
    # doubling is refused (constant slope)
    text2 = cfg_text(out, extra)
    assert run("entropy-smb", parse_config(text2)) == 3
