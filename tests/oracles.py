"""Slow reference implementations that serve only as test oracles.

`moving_max` is the pure-Python window-maximum scan that checks
`ergostat.erdos_renyi._moving_max_chunked`; `return_time` is the
prefix-function (KMP) single-depth return-time scan that checks
`ergostat.entropy.return_times_upto`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator

import numpy as np

from ergostat.entropy import RETURN_TIME_CAP


def _iter_symbols(symbols) -> Iterator[np.ndarray]:
    if isinstance(symbols, np.ndarray):
        yield symbols
        return
    yield from symbols


def moving_max(values, k: int) -> tuple[float, int]:
    """Maximum window sum of length k over a value sequence, with argmax.

    Linear prefix-sum scan with a k-lag delay line (the monotone queue of
    sliding-window maxima degenerates to a pure delay for one fixed k);
    accepts any iterable and keeps O(k) memory.
    """
    if k < 1:
        raise ValueError("window length must be positive")
    lag: deque[float] = deque([0.0])
    best = -math.inf
    best_j = -1
    prefix = 0.0
    count = 0
    for v in values:
        prefix += float(v)
        count += 1
        lag.append(prefix)
        if len(lag) > k:
            window = prefix - lag.popleft()
            j = count - k
            if window > best:
                best, best_j = window, j
    if count < k:
        raise ValueError(f"stream of length {count} is shorter than the window {k}")
    return best, best_j


def _prefix_function(pattern: np.ndarray) -> np.ndarray:
    pi = np.zeros(len(pattern), dtype=np.int64)
    j = 0
    for i in range(1, len(pattern)):
        while j > 0 and pattern[i] != pattern[j]:
            j = int(pi[j - 1])
        if pattern[i] == pattern[j]:
            j += 1
        pi[i] = j
    return pi


def return_time(symbols, n: int, cap: int = RETURN_TIME_CAP) -> int | None:
    """R_n = smallest k >= 1 with symbols[k : k+n] equal to symbols[0 : n].

    Prefix-function (failure automaton) scan: O(1) amortized per symbol,
    O(n) memory, works on an array or an iterator of numpy chunks.  Returns
    None when no recurrence shows up within `cap` symbols (censored); the
    caller decides how to report the censoring.
    """
    if n < 1:
        raise ValueError("pattern depth must be >= 1")
    chunks = _iter_symbols(symbols)
    pattern: list[int] = []
    buffered = np.empty(0, dtype=np.int64)
    while len(pattern) < n:
        try:
            chunk = np.asarray(next(chunks)).ravel()
        except StopIteration:
            raise ValueError(f"stream shorter than the pattern depth {n}")
        need = n - len(pattern)
        pattern.extend(int(v) for v in chunk[:need])
        buffered = chunk[need:]
    pat = np.asarray(pattern, dtype=np.int64)
    pi = _prefix_function(pat)

    state = 0
    t = 1  # stream index of the next text symbol (text = stream shifted by 1)

    def feed(block) -> int | None:
        nonlocal state, t
        for c in block:
            c = int(c)
            while state > 0 and c != pat[state]:
                state = int(pi[state - 1])
            if c == pat[state]:
                state += 1
            t += 1
            if state == n:
                return t - n  # occurrence start = return time
        return None

    # a return time R <= cap ends by stream position cap + n - 1, so trim
    # the text there; returns may overlap the leading word, so the text
    # starts with the pattern's own tail before fresh symbols arrive
    last = cap + n - 1

    def budget(block):
        block = np.asarray(block).ravel()
        return block[: max(last - t + 1, 0)]

    hit = feed(budget(pat[1:]))
    if hit is None:
        hit = feed(budget(buffered))
    if hit is not None:
        return hit
    for chunk in chunks:
        if t > last:
            return None
        hit = feed(budget(chunk))
        if hit is not None:
            return hit
    return None
