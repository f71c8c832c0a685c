"""Line-oriented experiment configuration.

Grammar: `[section]` headers, `key = value` lines, `#` comments, blank
lines ignored.  Values are integers, reals, strings, booleans, or
comma-separated lists.  Unknown sections and keys, type mismatches, and
constraint violations are reported with their line numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .errors import ConfigError

# schema: section -> key -> (kind, default, constraint)
# kinds: int, float, str, bool, int_list, float_list
# constraint: (predicate, message) or None; None default means required-if-used
_POSITIVE = (lambda v: v > 0, "must be positive")

SCHEMA: dict[str, dict[str, tuple]] = {
    "map": {
        "name": ("str", None, None),
        "slopes": ("float_list", [], None),
        "breakpoints": ("float_list", [], None),
        "intercepts": ("float_list", [], None),
        "eps": ("float", 0.05, _POSITIVE),
    },
    "observable": {
        "name": ("str", None, None),
        "center": ("bool", True, None),
        "xs": ("float_list", [], None),
        "ys": ("float_list", [], None),
    },
    "run": {
        "seeds": ("int_list", [1], (lambda v: len(v) > 0, "needs at least one seed")),
        "horizon": ("int", 100_000, _POSITIVE),
        "checkpoints": ("int_list", [], (lambda v: all(b > a for a, b in zip([0] + v, v)),
                                         "must be positive and strictly increasing")),
        "output_dir": ("str", "out", None),
        # kept only so that configs pinning it parse (and hash) as before
        "threads": ("int", 1, (lambda v: v == 1, "must be 1: seeds run one after another")),
    },
    "ulam": {
        "resolution": ("int", 1024, (lambda v: v >= 2, "must be at least 2")),
    },
    "sigma2": {
        "method": ("str", "quadrature",
                   (lambda v: v in ("quadrature", "orbit"), "must be quadrature or orbit")),
        "orbit_length": ("int", 10_000_000, _POSITIVE),
        "value": ("float", float("nan"), None),          # NaN = compute it
    },
    "pressure": {
        "beta_max": ("float", 3.0, _POSITIVE),
        "beta_points": ("int", 121, (lambda v: v >= 5, "needs at least 5 points")),
    },
    "rate": {
        "alpha_min": ("float", -0.3, None),
        "alpha_max": ("float", 0.3, None),
        "alpha_points": ("int", 121, (lambda v: v >= 3, "needs at least 3 points")),
    },
    "erdos_renyi": {
        "alpha": ("float", 0.2, None),
        "k_grid": ("int_list", [50, 100, 200], (lambda v: all(x > 0 for x in v),
                                                "window lengths must be positive")),
        "length_cap": ("int", 2**32, _POSITIVE),
    },
    "rate_curve": {
        "trajectory_length": ("int", 2**20, _POSITIVE),
        "k_grid": ("int_list", [], None),
    },
    "ld": {
        "alpha": ("float", 0.2, None),
        "k_grid": ("int_list", [50, 100], None),
        "trials": ("int", 1_000_000, (lambda v: v >= 10_000, "needs at least 1e4 trials")),
        "r_grid": ("int_list", [], None),
        "decoupling_k": ("int", 50, _POSITIVE),
    },
    "entropy": {
        "depth": ("int", 20, _POSITIVE),
        "cap": ("int", 10**8, _POSITIVE),
        "epsilon": ("float", 1.0, _POSITIVE),
    },
}

_REQUIRED = {("map", "name"), ("observable", "name")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration; `values[section][key]` is fully populated."""

    values: dict = field(compare=False)
    canonical: str = ""

    def __eq__(self, other):
        return isinstance(other, ExperimentConfig) and self.canonical == other.canonical

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def get(self, section: str, key: str):
        return self.values[section][key]

    def hash(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()


def _parse_scalar(kind: str, raw: str):
    if kind == "str":
        return raw
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError("expected a boolean")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "int_list":
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""] if raw else []
    if kind == "float_list":
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""] if raw else []
    raise AssertionError(kind)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError carrying (line, message) pairs."""
    issues: list[tuple[int, str]] = []
    values = {sec: {k: spec[1] for k, spec in keys.items()}
              for sec, keys in SCHEMA.items()}
    seen: set[tuple[str, str]] = set()
    section = None
    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                issues.append((ln, "unterminated section header"))
                section = None
                continue
            name = line[1:-1].strip().lower().replace("-", "_")
            if name not in SCHEMA:
                issues.append((ln, f"unknown section [{name}]; valid sections: "
                                   f"{', '.join(sorted(SCHEMA))}"))
                section = None
            else:
                section = name
            continue
        if "=" not in line:
            issues.append((ln, "expected 'key = value'"))
            continue
        if section is None:
            issues.append((ln, "key outside of any recognized [section]"))
            continue
        key, _, raw = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        raw = raw.strip()
        if key not in SCHEMA[section]:
            issues.append((ln, f"unknown key '{key}' in [{section}]"))
            continue
        kind, _default, constraint = SCHEMA[section][key]
        try:
            val = _parse_scalar(kind, raw)
        except ValueError:
            issues.append((ln, f"'{key}' expects a {kind.replace('_', ' ')}, got {raw!r}"))
            continue
        if constraint is not None and not constraint[0](val):
            issues.append((ln, f"'{key}' {constraint[1]}"))
            continue
        values[section][key] = val
        seen.add((section, key))
    for sec, key in sorted(_REQUIRED - seen):
        issues.append((0, f"missing required key '{key}' in [{sec}]"))
    if issues:
        raise ConfigError(issues)
    return ExperimentConfig(values=values, canonical=serialize_config_values(values))


def serialize_config_values(values: dict) -> str:
    """Canonical text form: schema order, normalized value rendering."""
    out = []
    for sec in SCHEMA:
        out.append(f"[{sec}]")
        for key, (kind, _d, _c) in SCHEMA[sec].items():
            val = values[sec][key]
            if kind in ("int_list", "float_list"):
                rendered = ", ".join(repr(v) if kind == "float_list" else str(v)
                                     for v in val)
            elif kind == "float":
                rendered = repr(val)
            elif kind == "bool":
                rendered = "true" if val else "false"
            else:
                rendered = str(val)
            out.append(f"{key} = {rendered}")
        out.append("")
    return "\n".join(out)


def build_map(cfg: ExperimentConfig):
    from .maps import make_map

    sec = cfg["map"]
    params = {}
    if sec["slopes"]:
        params["slopes"] = sec["slopes"]
    if sec["breakpoints"]:
        params["breakpoints"] = sec["breakpoints"]
    if sec["intercepts"]:
        params["intercepts"] = sec["intercepts"]
    if sec["name"].replace("_", "-") == "perturbed-doubling":
        params["eps"] = sec["eps"]
    return make_map(sec["name"], **params)


def build_observable(cfg: ExperimentConfig, pmap):
    """The raw observable (the CLI centres it when `[observable] center`)."""
    from .maps import make_observable

    sec = cfg["observable"]
    params = {}
    if sec["name"] == "table":
        params = {"xs": sec["xs"], "ys": sec["ys"]}
    return make_observable(sec["name"], pmap=pmap, **params)
