"""Mean-vector families for benchmarks, file ingestion, and the spread diagnostic.

Generators emit means already sorted by rank (index 0 is the best arm).  The
benchmark harness shuffles arm identities per trial so algorithms can never
exploit that ordering.
"""

from __future__ import annotations

import os

import numpy as np

from .env import _integer, _positive
from .hardness import _require_sorted

__all__ = [
    "gen_two_group",
    "gen_uniform",
    "gen_synthetic_p",
    "load_means",
    "check_c_spread",
]


def gen_two_group(n: int, K: int) -> np.ndarray:
    """Two plateaus: the top K arms at 0.7, the remaining arms at 0.3."""
    _integer("K", K, 1, _integer("n", n, 1))
    means = np.full(n, 0.3)
    means[:K] = 0.7
    return means


def gen_uniform(n: int) -> np.ndarray:
    """Evenly spaced means: arm i (1-indexed) has mean 1 - i/n."""
    _integer("n", n, 1)
    i = np.arange(1, n + 1, dtype=np.float64)
    return 1.0 - i / n


def gen_synthetic_p(n: int, K: int, p: float) -> np.ndarray:
    """Power-law family bending arms toward (p > 1) or away from (p < 1) the
    top-K boundary value 1 - K/n.

    Arm i <= K:  (1 - K/n) + (K/n) * (1 - i/K)^p
    Arm i  > K:  (1 - K/n) - ((n-K)/n) * ((i-K)/(n-K))^p

    With p=1 this is exactly the evenly spaced family; endpoints are always
    theta_1 = 1 and theta_n = 0, so the means span [0, 1] with no extra
    normalization.
    """
    _integer("K", K, 1, _integer("n", n, 1) - 1)
    _positive("p", p)
    boundary = 1.0 - K / n
    i = np.arange(1, n + 1, dtype=np.float64)
    head = boundary + (K / n) * (1.0 - i[:K] / K) ** p
    tail = boundary - ((n - K) / n) * ((i[K:] - K) / (n - K)) ** p
    return np.concatenate([head, tail])


def load_means(path) -> np.ndarray:
    """Read a mean vector from a UTF-8 text file, one decimal per line.

    Lines starting with '#' and blank lines are ignored.  Order is preserved.

    Raises:
        ValueError: on parse failure, a value outside [0, 1], or no values.
        OSError: if the file cannot be read.
    """
    values = []
    with open(os.fspath(path), encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                v = float(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a decimal literal: {line!r}") from exc
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{path}:{lineno}: value {v} outside [0, 1]")
            values.append(v)
    if not values:
        raise ValueError(f"{path}: no mean values found")
    return np.asarray(values, dtype=np.float64)


def check_c_spread(means: np.ndarray, c: float, tol: float = 1e-9) -> bool:
    """Test whether sorted means form an approximately arithmetic progression.

    True iff |theta_i - theta_j| lies in [|i-j|/(c*n), c*|i-j|/n] for every
    pair i < j.  Comparisons carry a small absolute slack ``tol`` so exact
    progressions computed in floating point (e.g. the evenly spaced family
    with c=1) are not rejected over rounding noise.

    The pairwise definition is checked exactly in O(n) time and memory: with
    u_k = theta_k + k/(c*n) and w_k = theta_k + c*k/n, the lower bound holds
    for every pair iff each u_j is at most tol above the smallest earlier
    u_i, and the upper bound iff each w_j is at least the largest earlier w_i
    less tol.

    Raises:
        ValueError: if ``means`` is not sorted non-increasing or c < 1.
    """
    means = _require_sorted(means)
    if not c >= 1.0:
        raise ValueError("c must be >= 1")
    n = means.size
    k = np.arange(n, dtype=np.float64)
    u = means + k / (c * n)
    w = means + c * k / n
    return bool(np.all(u[1:] <= np.minimum.accumulate(u)[:-1] + tol)
                and np.all(np.maximum.accumulate(w)[:-1] <= w[1:] + tol))
