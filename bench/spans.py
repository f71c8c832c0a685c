"""Outside-in spans and counters around ergostat's public functions.

`Tracer.install()` replaces each target below, in every loaded `ergostat`
module that holds it (modules import each other's functions by name), with
a wrapper that times the call as a span and updates the target's counters;
`uninstall()` puts every original back.  Generators are timed inside each
`next()`, so a consumer's own work is not charged to its producer.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times of one pass add up to the pass's traced wall
time.  The tracer keeps one span stack and therefore traces only
single-threaded passes.  Nothing inside `src/` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


# after-call hooks: hook(tracer, bound arguments, result)

def _size_of(param, counter):
    def hook(t, a, result):
        t.counts[counter] += int(np.size(a[param]))
    return hook


def _points_out(t, a, result):
    t.counts["maps.points_from_symbols.points"] += int(np.size(result))


def _ulam(t, a, result):
    pmap, u, beta = a["pmap"], a["u"], float(a["beta"])
    # by content, not identity: the CLI rebuilds maps and observables for
    # every invocation, and at beta = 0 the observable does not enter
    key = (pmap.name, repr(sorted(pmap.descriptor.items())),
           None if u is None or beta == 0.0 else (u.name, float(u.mu_mean)),
           beta, int(a["N"]), int(a["quad_points"]))
    t.counts["transfer.ulam_matrix.calls"] += 1
    if key in t.ulam_built:
        t.counts["transfer.ulam_matrix.repeats"] += 1
    t.ulam_built.add(key)


def _kantorovich(t, a, result):
    t.counts["measures.kantorovich.calls"] += 1
    t.counts["measures.kantorovich.atoms_sorted"] += len(a["emp"].positions)


def _atoms_generated(t, a, result):
    t.counts["measures.kantorovich.atoms_generated"] += int(a["n"])


def _windows(t, a, result):
    t.counts["erdos_renyi.er_law_check.windows"] += int(np.sum(result.window_counts))


def _trials(t, a, result):
    t.counts["erdos_renyi.ld_probability_mc.trials"] += int(a["trials"])


def _chunk_size(counter):
    """Per-item hook of a generator target."""
    def hook(t, item):
        t.counts[counter] += int(np.size(item))
    return hook


# (module[:class], attribute, span name, after-call hook or per-item hook)
TARGETS = (
    ("ergostat.maps", "points_from_symbols", "maps.points_from_symbols", _points_out),
    ("ergostat.maps", "orbit_value_chunks", "maps.orbit_value_chunks",
     _chunk_size("maps.orbit_value_chunks.values")),
    ("ergostat.maps", "symbol_chunks", "maps.symbol_chunks",
     _chunk_size("maps.symbol_chunks.symbols")),
    ("ergostat.maps:PiecewiseMap", "apply", "maps.apply",
     _size_of("x", "maps.apply.points")),
    ("ergostat.maps:Branch", "inverse", "maps.inverse",
     _size_of("y", "maps.inverse.points")),
    ("ergostat.transfer", "ulam_matrix", "transfer.ulam_matrix", _ulam),
    ("ergostat.transfer", "legendre", "transfer.legendre", None),
    ("ergostat.transfer", "autocovariance_series", "transfer.autocovariance_series", None),
    ("ergostat.measures", "kantorovich", "measures.kantorovich", _kantorovich),
    ("ergostat.asclt", "asclt_run", "asclt.run", _atoms_generated),
    ("ergostat.asclt", "maxima_run", "asclt.run", _atoms_generated),
    ("ergostat.erdos_renyi", "er_law_check", "erdos_renyi.er_law_check", _windows),
    ("ergostat.erdos_renyi", "rate_estimator", "erdos_renyi.rate_estimator", None),
    ("ergostat.erdos_renyi", "ld_probability_mc", "erdos_renyi.ld_probability_mc", _trials),
    ("ergostat.entropy", "smb_run", "entropy.run", _atoms_generated),
    ("ergostat.entropy", "ow_run", "entropy.run", _atoms_generated),
    ("ergostat.entropy", "return_times_upto", "entropy.return_times_upto", None),
    ("ergostat.entropy", "cylinder_log_measures", "entropy.cylinder_log_measures", None),
)

# Spans pass_runner.py opens itself: one for the pass, one per CLI invocation.
PASS_SPAN = "pass"
CLI_SPAN = "cli"
SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))


class Tracer:
    """Span stack, per-name self times and counters for one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.ulam_built: set = set()
        self._stack: list[float] = []            # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _close(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        self.self_s[name] += duration - self._stack.pop()
        if self._stack:
            self._stack[-1] += duration

    @contextmanager
    def span(self, name: str):
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start)

    def begin_invocation(self) -> None:
        """Repeats of Ulam builds are counted within one CLI invocation."""
        self.ulam_built.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, fn, name, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result
        return wrapper

    def _wrap_generator(self, fn, name, per_item):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stream():
                try:
                    while True:
                        start = self._open()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._close(name, start)
                        per_item(self, item)
                        yield item
                finally:
                    inner.close()
            return stream()
        return wrapper

    def _wrap_return_times(self, fn, name):
        """Counts symbols pulled from the stream against (max R_k + depth),
        the prefix a search that knew the answer would have read."""
        @functools.wraps(fn)
        def wrapper(symbols, n, *args, **kwargs):
            pulled = 0

            def counted(chunks):
                nonlocal pulled
                for chunk in chunks:
                    pulled += int(np.size(chunk))
                    yield chunk

            if isinstance(symbols, np.ndarray):
                pulled = len(symbols)
            else:
                symbols = counted(symbols)
            start = self._open()
            try:
                out = fn(symbols, n, *args, **kwargs)
            finally:
                self._close(name, start)
            found = out[out >= 0]
            self.counts[name + ".pulled"] += pulled
            self.counts[name + ".useful"] += (int(found.max()) if len(found) else 0) + int(n)
            self.counts[name + ".censored"] += int(np.sum(out < 0))
            return out
        return wrapper

    def _wrapper_for(self, fn, name, hook):
        if name == "entropy.return_times_upto":
            return self._wrap_return_times(fn, name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, hook)
        return self._wrap_call(fn, name, hook)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        importlib.import_module("ergostat.cli")      # loads every module
        for owner, attr, name, hook in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrapper_for(original, name, hook))
                self._patched.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper_for(original, name, hook)
            for mod in list(sys.modules.values()):
                if mod is None or not (mod.__name__ == "ergostat"
                                       or mod.__name__.startswith("ergostat.")):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, alias, wrapper)
                        self._patched.append((mod, alias, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Self times of the program's spans and the derived counters."""
        c = self.counts

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {f"{name}.self_s": self.self_s[name] for name in SPAN_NAMES}
        out.update({
            "cli.self_s": self.self_s[PASS_SPAN] + self.self_s[CLI_SPAN],
            "maps.points_from_symbols.points": c["maps.points_from_symbols.points"],
            "maps.orbit_value_chunks.values": c["maps.orbit_value_chunks.values"],
            "maps.symbol_chunks.symbols": c["maps.symbol_chunks.symbols"],
            "maps.apply.points": c["maps.apply.points"],
            "maps.inverse.points": c["maps.inverse.points"],
            "transfer.ulam_matrix.calls": c["transfer.ulam_matrix.calls"],
            "transfer.ulam_matrix.repeat_frac": ratio("transfer.ulam_matrix.repeats",
                                                      "transfer.ulam_matrix.calls"),
            "measures.kantorovich.calls": c["measures.kantorovich.calls"],
            "measures.kantorovich.atoms_per_atom": ratio(
                "measures.kantorovich.atoms_sorted", "measures.kantorovich.atoms_generated"),
            "erdos_renyi.er_law_check.windows": c["erdos_renyi.er_law_check.windows"],
            "erdos_renyi.ld_probability_mc.trials": c["erdos_renyi.ld_probability_mc.trials"],
            "entropy.return_times_upto.useful_frac": ratio(
                "entropy.return_times_upto.useful", "entropy.return_times_upto.pulled"),
            "entropy.return_times_upto.censored": c["entropy.return_times_upto.censored"],
        })
        return out
