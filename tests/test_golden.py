"""Golden CSV digests: every subcommand on small fixed-seed configs.

A change that moves any written digit changes a SHA-256 below and fails
this test.  When such a change is intended, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which digits moved and why.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ergostat.cli import SUBCOMMANDS, run
from ergostat.config import parse_config

GOLDEN = Path(__file__).with_name("golden_digests.json")

MAPS = {
    "doubling-coin": "[map]\nname = doubling\n\n[observable]\nname = coin\n",
    "tent-coin": "[map]\nname = tent\n\n[observable]\nname = coin\n",
    "perturbed-sawtooth": ("[map]\nname = perturbed-doubling\neps = 0.05\n\n"
                           "[observable]\nname = sawtooth\n"),
    "two-slope-sawtooth": ("[map]\nname = custom\nbreakpoints = 0, 0.3333333333333333, 1\n"
                           "slopes = 3, 1.5\n\n[observable]\nname = sawtooth\n"),
    "doubling-sawtooth": "[map]\nname = doubling\n\n[observable]\nname = sawtooth\n",
    "tent-sawtooth": "[map]\nname = tent\n\n[observable]\nname = sawtooth\n",
}

SIZES = """
[run]
seeds = 1, 2
horizon = 20000
checkpoints = 1000, 5000, 20000
output_dir = {outdir}

[ulam]
resolution = 128

[sigma2]
method = orbit
orbit_length = 20000

[pressure]
beta_max = 2.0
beta_points = 9

[erdos_renyi]
alpha = 0.15
k_grid = 10, 20, 40

[rate_curve]
trajectory_length = 32768
k_grid = 10, 20, 40, 80

[ld]
alpha = 0.1
k_grid = 10, 20
trials = 10000
r_grid = 0, 5, 20
decoupling_k = 10

[entropy]
depth = 10
cap = 100000
"""


def config_text(head: str, sub: str, outdir) -> str:
    """One golden run's config: the map head, SIZES, and for entropy-ow a
    ladder inside its depth."""
    text = head + SIZES.format(outdir=outdir)
    if sub == "entropy-ow":
        text = text.replace("checkpoints = 1000, 5000, 20000", "checkpoints = 5, 10")
    return text


def digests() -> dict:
    """{config: {subcommand: {"exit": code, "csv": {file: sha256}}}}"""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, head in MAPS.items():
            out[name] = {}
            for sub in SUBCOMMANDS:
                outdir = Path(tmp) / name / sub
                cfg = parse_config(config_text(head, sub, outdir))
                code = run(sub, cfg)
                csvs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(outdir.glob("*.csv"))}
                out[name][sub] = {"exit": code, "csv": csvs}
    return out


@pytest.mark.filterwarnings("ignore:sigma.2 is numerically zero")
def test_golden_csv_digests():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    moved = [f"{name}/{sub}" for name in expected for sub in expected[name]
             if got.get(name, {}).get(sub) != expected[name][sub]]
    assert got == expected, f"CSV digests moved: {', '.join(moved)}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
