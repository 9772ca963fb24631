"""A fixed piece of work that times the host, not hafnet.

The host this benchmark runs on is shared: its speed drifts by up to 2.5x
over minutes, with user CPU time following wall time (no steal time), so a
wall time alone says as much about the neighbours as about hafnet. Each item
is therefore bracketed by this kernel, and item times are reported in units
of the kernel's time on a reference host (see `REF_KERNEL_S`).

The kernel mimics the instruction mix of hafnet's hot paths without calling
any of it, so a change to hafnet never moves it: a small price loop whose
per-BS split is a pure-Python float bisection (as in the allocation kernel),
numpy dispatch on small arrays (association, gradients), and a memoised
genetic-style search over association vectors (as in the search layers).
Its inputs are fixed; they do not depend on the benchmark's seed.
"""

from __future__ import annotations

import time

import numpy as np

# The unit normalised times are scaled to: a fixed constant, about the
# kernel's time on a 2-vCPU Xeon (Python 3.11, numpy 2.4) in a calm period,
# so that normalised figures read like calm wall times there. It was set
# from item-to-kernel time ratios and calm item times; only ratios between
# runs matter, so it must never be re-tuned between two compared runs.
REF_KERNEL_S = 0.024

_USERS, _BS = 40, 6
_PRICE_ITERS = 50
_GA_GENERATIONS = 30


def _instance():
    rng = np.random.default_rng(20240601)
    gamma = rng.lognormal(0.0, 1.5, size=(_USERS, _BS))
    alpha = rng.choice([0.5, 0.8, 1.6, 2.5], size=_USERS)
    return gamma, alpha


_GAMMA, _ALPHA = _instance()


def _split_multiplier(gh, inv_a) -> float:
    """Root of sum_i gh_i * lam^(-inv_a_i) = 1 by bracketing and bisection."""
    lo, hi = 1e-12, 1e12
    for _ in range(60):
        mid = (lo * hi) ** 0.5
        s = 0.0
        for g, a in zip(gh, inv_a):
            s += g * mid ** (-a)
        if s > 1.0:
            lo = mid
        else:
            hi = mid
    return mid


def _bs_value(bs: np.ndarray, j: int) -> float:
    users = np.flatnonzero(bs == j)
    if users.size == 0:
        return 0.0
    a = _ALPHA[users]
    gh = (_GAMMA[users, j] ** ((1.0 - a) / a)).tolist()
    lam = _split_multiplier(gh, (1.0 / a).tolist())
    return float(np.sum(np.log1p(_GAMMA[users, j])) - np.log(lam))


def _work() -> float:
    total = 0.0
    mu = np.zeros(_BS)
    for _ in range(_PRICE_ITERS):
        bs = np.argmax(np.log(_GAMMA) - mu, axis=1)
        load = np.bincount(bs, minlength=_BS)
        total += sum(_bs_value(bs, j) for j in range(_BS))
        mu = np.maximum(mu + 0.05 * (load - _USERS / _BS), 0.0)
    rng = np.random.default_rng(7)
    memo = {}
    pop = rng.integers(0, _BS, size=(12, _USERS))
    for _ in range(_GA_GENERATIONS):
        for row in pop:
            for j in range(_BS):
                key = (j, tuple(np.flatnonzero(row == j).tolist()))
                if key not in memo:
                    memo[key] = float(np.sum(_GAMMA[list(key[1]), j])) if key[1] else 0.0
                total += memo[key]
        mask = rng.random(pop.shape) < 0.5
        pop = np.where(mask, pop, np.roll(pop, 1, axis=0))
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
