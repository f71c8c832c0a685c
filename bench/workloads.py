"""The CLI invocations that one benchmark pass makes, per workload.

Every invocation belongs to one task group (`spectral`, `asclt`, `er`,
`entropy`); the group times are the benchmark's per-task metrics.  Each
workload runs all four groups, with the weight on different layers (see
bench/README.md for why each workload exists).

Configs pin `threads = 1` and spell out every checkpoint ladder, window
grid and size, so the correctness checks know each artifact's shape
without importing the program.  The workload seed reaches the program only
as `--seed-offset`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GROUPS = ("spectral", "asclt", "er", "entropy")

# Reference digests in digests.json are for this workload seed.
DEFAULT_SEED = 0
# Config seeds stay below the stride, so offsets of different workload
# seeds never produce the same program seed.
SEED_STRIDE = 1000

DOUBLING = {"name": "doubling"}
SMOOTH = {"name": "perturbed-doubling", "eps": 0.05}
# Full-branch piecewise-linear map with slopes 3 and 3/2: Lebesgue is
# invariant, cylinder measures are exact slope products, and log|f'| is not
# constant, so its entropy CLT is non-degenerate (unlike every map that
# iterates symbolically).
TWO_SLOPE = {"name": "custom", "breakpoints": [0.0, 1.0 / 3.0, 1.0],
             "slopes": [3.0, 1.5]}
COIN = {"name": "coin"}
SAWTOOTH = {"name": "sawtooth"}


def seed_offset(seed: int) -> int:
    return abs(int(seed)) * SEED_STRIDE


def checkpoint_ladder(horizon: int) -> list[int]:
    """10^3, 10^3.5, ... capped by the horizon (the CLI's default ladder)."""
    if horizon < 1000:
        return [horizon]
    levels, e = [], 3.0
    while round(10**e) <= horizon:
        levels.append(round(10**e))
        e += 0.5
    if levels[-1] != horizon:
        levels.append(horizon)
    return levels


@dataclass(frozen=True)
class Invocation:
    """One `ergostat <subcommand> --config ...` call of a pass."""

    group: str
    subcommand: str
    sections: dict          # section -> {key: value}; the whole config

    def get(self, section: str, key: str):
        return self.sections[section][key]

    @property
    def seeds(self) -> list[int]:
        return self.sections["run"]["seeds"]

    def config_text(self, output_dir: str) -> str:
        lines = []
        for section, keys in self.sections.items():
            lines.append(f"[{section}]")
            for key, value in keys.items():
                if isinstance(value, (list, tuple)):
                    value = ", ".join(repr(v) for v in value)
                lines.append(f"{key} = {value}")
            if section == "run":
                lines.append(f"output_dir = {output_dir}")
                lines.append("threads = 1")
            lines.append("")
        return "\n".join(lines)


def _inv(group, subcommand, pmap, obs, seeds=(1,), horizon=None, **sections):
    run = {"seeds": list(seeds)}
    if horizon is not None:
        run["horizon"] = horizon
    if subcommand in ("asclt", "maxima"):
        run["checkpoints"] = checkpoint_ladder(horizon)
    cfg = {"map": dict(pmap), "observable": dict(obs), "run": run}
    cfg.update(sections)
    return Invocation(group, subcommand, cfg)


def _spectral(pmap, obs, resolution, beta_points):
    ulam = {"resolution": resolution}
    return [
        _inv("spectral", "density", pmap, obs, ulam=ulam),
        _inv("spectral", "pressure", pmap, obs, ulam=ulam,
             pressure={"beta_max": 3.0, "beta_points": beta_points}),
        _inv("spectral", "sigma2", pmap, obs, ulam=ulam,
             sigma2={"method": "quadrature"}),
    ]


def symbolic(toy: bool = False) -> list[Invocation]:
    """Doubling map: symbol draws, point reconstruction, Kantorovich and
    window maxima; the Ulam step is exact and tiny."""
    horizon = 2000 if toy else 300_000
    return _spectral(DOUBLING, COIN, 256 if toy else 4096, 9 if toy else 121) + [
        _inv("asclt", "asclt", DOUBLING, SAWTOOTH, seeds=(1, 2), horizon=horizon),
        _inv("asclt", "maxima", DOUBLING, SAWTOOTH, seeds=(1,), horizon=horizon),
        _inv("er", "erdos-renyi", DOUBLING, COIN, ulam={"resolution": 256 if toy else 1024},
             erdos_renyi={"alpha": 0.2, "k_grid": [50] if toy else [50, 100, 200]}),
        _inv("er", "rate-curve", DOUBLING, COIN,
             rate_curve={"trajectory_length": 1 << (12 if toy else 19),
                         "k_grid": [20, 40, 60, 80, 100, 150, 200][: 3 if toy else 7]}),
        _inv("er", "ld-check", DOUBLING, COIN, ulam={"resolution": 256 if toy else 1024},
             ld={"alpha": 0.1, "k_grid": [50, 100], "trials": 10_000 if toy else 100_000}),
        _inv("entropy", "entropy-smb", TWO_SLOPE, SAWTOOTH,
             horizon=1000 if toy else 50_000, ulam={"resolution": 256 if toy else 1024}),
    ]


def smooth(toy: bool = False) -> list[Invocation]:
    """Perturbed doubling map: quadrature Ulam assembly, scalar float
    iteration, vectorized float trials and bisection inverses."""
    resolution = 128 if toy else 1024
    ulam = {"resolution": resolution}
    beta_points = 9 if toy else 31
    horizon = 2000 if toy else 200_000
    return _spectral(SMOOTH, SAWTOOTH, resolution, beta_points) + [
        _inv("asclt", "asclt", SMOOTH, SAWTOOTH, horizon=horizon, ulam=ulam),
        _inv("asclt", "maxima", SMOOTH, SAWTOOTH, horizon=horizon, ulam=ulam),
        _inv("er", "ld-check", SMOOTH, SAWTOOTH, ulam=ulam,
             pressure={"beta_max": 3.0, "beta_points": beta_points},
             ld={"alpha": 0.05, "k_grid": [20, 40], "trials": 10_000}),
        _inv("entropy", "entropy-smb", SMOOTH, SAWTOOTH,
             horizon=200 if toy else 1200, ulam=ulam),
        _inv("entropy", "entropy-ow", SMOOTH, SAWTOOTH, ulam=ulam,
             entropy={"depth": 8 if toy else 16}),
    ]


def many_seeds(toy: bool = False) -> list[Invocation]:
    """Many short seeds: per-seed fixed costs (orbit start-up, Kantorovich
    passes, CSV writes, one full symbol chunk per return-time search)."""
    seeds = tuple(range(1, (3 if toy else 16) + 1))
    horizon = 2000 if toy else 20_000
    ulam = {"resolution": 128 if toy else 1024}
    return [
        _inv("spectral", "sigma2", SMOOTH, SAWTOOTH, seeds=seeds[:8], ulam=ulam,
             sigma2={"method": "orbit", "orbit_length": 5000 if toy else 50_000}),
        _inv("asclt", "asclt", DOUBLING, SAWTOOTH, seeds=seeds, horizon=horizon, ulam=ulam),
        _inv("asclt", "maxima", DOUBLING, SAWTOOTH, seeds=seeds, horizon=horizon, ulam=ulam),
        _inv("asclt", "asclt", SMOOTH, SAWTOOTH, seeds=seeds, horizon=horizon, ulam=ulam),
        _inv("asclt", "maxima", SMOOTH, SAWTOOTH, seeds=seeds, horizon=horizon, ulam=ulam),
        _inv("er", "rate-curve", SMOOTH, SAWTOOTH, seeds=seeds[:8],
             rate_curve={"trajectory_length": 1 << (12 if toy else 16),
                         "k_grid": [20, 40, 60, 80, 100]}),
        _inv("entropy", "entropy-ow", SMOOTH, SAWTOOTH, seeds=(1,),
             ulam=ulam, entropy={"depth": 8 if toy else 12}),
    ]


WORKLOADS = {"symbolic": symbolic, "smooth": smooth, "many-seeds": many_seeds}


def cramer(a: float) -> float:
    """Rate function of the +/-1/2 coin at level a (|a| < 1/2)."""
    return (0.5 + a) * math.log1p(2 * a) + (0.5 - a) * math.log1p(-2 * a)
