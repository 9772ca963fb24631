"""Checks of hafnet's outputs against computations made apart from it.

Nothing here calls hafnet's solvers. The per-BS bandwidth split is solved by
scipy's brentq on the KKT equation in s = log(lambda),

    sum_i gamma_hat_i * exp(-s / alpha_i) = 1,

and HAF is summed from this module's own alpha-fair utility. hafnet is used
only to rebuild the channel matrices (its public channel API), since those
are the program's inputs, not its outputs.

Every check function returns a list of problems; an empty list means pass.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

import numpy as np
from scipy.optimize import brentq

# The HAF objective scores a rate below this floor as the floor itself
# (the objective's definition, so degenerate decisions stay finite).
RATE_FLOOR = 1e-9

# Relative tolerance for equality with a recomputation: hafnet's bisection
# stops at a relative bracket width of 1e-10 in lambda, far inside this.
EQ_RTOL = 1e-7
# Slack for inequalities that hold exactly in real arithmetic.
INEQ_RTOL = 1e-6


def utility(rates: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Alpha-fair utility r^(1-a)/(1-a), with the objective's rate floor."""
    r = np.maximum(np.asarray(rates, dtype=float), RATE_FLOOR)
    e = 1.0 - np.asarray(alpha, dtype=float)
    return r**e / e


def bs_split(gamma_hat: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Optimal bandwidth shares of one BS's users, by brentq on log(lambda)."""
    gh = np.asarray(gamma_hat, dtype=float)
    inv_a = 1.0 / np.asarray(alpha, dtype=float)

    def excess(s: float) -> float:
        return float(np.sum(gh * np.exp(-s * inv_a))) - 1.0

    lo, hi = -1.0, 1.0
    while excess(lo) < 0.0:
        lo *= 2.0
    while excess(hi) > 0.0:
        hi *= 2.0
    s = brentq(excess, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500)
    return gh * np.exp(-s * inv_a)


def bs_utility(gamma: np.ndarray, alpha: np.ndarray, users: Sequence[int], j: int) -> float:
    """Optimal HAF contribution of `users` served by BS j (0 when empty)."""
    users = np.asarray(users, dtype=int)
    if users.size == 0:
        return 0.0
    a = alpha[users]
    g = gamma[users, j]
    y = bs_split(g ** ((1.0 - a) / a), a)
    return float(np.sum(utility(g * y, a)))


def haf(gamma: np.ndarray, alpha: np.ndarray, bs_of_user: np.ndarray) -> float:
    """HAF of an association with every BS's split solved optimally."""
    bs = np.asarray(bs_of_user, dtype=int)
    return sum(bs_utility(gamma, alpha, np.flatnonzero(bs == j), j) for j in range(gamma.shape[1]))


def max_sinr_haf(gamma: np.ndarray, alpha: np.ndarray) -> float:
    """HAF of every user on its best link (ties to the lowest BS index)."""
    return haf(gamma, alpha, np.argmax(gamma, axis=1))


def haf_ceiling(gamma: np.ndarray, alpha: np.ndarray) -> float:
    """sum_i u_i(max_j gamma_ij): no user can do better than its best link alone."""
    return float(np.sum(utility(np.max(gamma, axis=1), alpha)))


def exhaustive_optimum(gamma: np.ndarray, alpha: np.ndarray) -> float:
    """Best HAF over all J^I associations: a per-BS table of every user
    subset's optimal utility, summed over every partition."""
    I, J = gamma.shape
    table = np.zeros((J, 2**I))
    for j in range(J):
        for mask in range(1, 2**I):
            table[j, mask] = bs_utility(gamma, alpha, [i for i in range(I) if mask >> i & 1], j)
    cands = np.array(list(itertools.product(range(J), repeat=I)))
    bits = 1 << np.arange(I)
    total = np.zeros(cands.shape[0])
    for j in range(J):
        total += table[j, ((cands == j) * bits).sum(axis=1)]
    return float(np.max(total))


def _close(a: float, b: float, rtol: float = EQ_RTOL) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


def _at_most(a: float, b: float, rtol: float = INEQ_RTOL) -> bool:
    return a <= b + rtol * (1.0 + abs(b))


def _rows_by_method(rows: Sequence[dict]) -> Dict[str, dict]:
    return {r["method"]: r for r in rows}


def check_static(rows: Sequence[dict], gamma: np.ndarray, alpha: np.ndarray, methods: Sequence[str]) -> List[str]:
    """One instance of the static comparison (proposed and max_sinr included)."""
    by = _rows_by_method(rows)
    if sorted(by) != sorted(methods) or len(rows) != len(methods):
        return [f"expected one row per method {sorted(methods)}, got {[r['method'] for r in rows]}"]
    bad = []
    ref = max_sinr_haf(gamma, alpha)
    if not _close(by["max_sinr"]["haf"], ref):
        bad.append(f"max_sinr HAF {by['max_sinr']['haf']!r} != recomputed {ref!r}")
    ceiling = haf_ceiling(gamma, alpha)
    dual = by["proposed"]["best_dual"]
    for m, r in by.items():
        if not _at_most(r["haf"], ceiling):
            bad.append(f"{m} HAF {r['haf']!r} above the best-link ceiling {ceiling!r}")
        if not _at_most(r["haf"], dual):
            bad.append(f"{m} HAF {r['haf']!r} above proposed best_dual {dual!r}")
    prop = by["proposed"]
    if not _at_most(prop["empirical_gap"], prop["theorem2_bound"]):
        bad.append(f"empirical_gap {prop['empirical_gap']!r} > theorem2_bound {prop['theorem2_bound']!r}")
    if not _at_most(by["max_sinr"]["haf"], prop["haf"], EQ_RTOL):
        bad.append(f"proposed HAF {prop['haf']!r} below max_sinr {by['max_sinr']['haf']!r}")
    return bad


def check_oracle(rows: Sequence[dict], gamma: np.ndarray, alpha: np.ndarray, methods: Sequence[str]) -> List[str]:
    """A small instance: every row against this module's exhaustive optimum."""
    bad = check_static(rows, gamma, alpha, methods)
    by = _rows_by_method(rows)
    if sorted(by) != sorted(methods):
        return bad
    opt = exhaustive_optimum(gamma, alpha)
    if not _close(by["brute_force"]["haf"], opt):
        bad.append(f"brute_force HAF {by['brute_force']['haf']!r} != exhaustive optimum {opt!r}")
    for m, r in by.items():
        if not _at_most(r["haf"], opt, EQ_RTOL):
            bad.append(f"{m} HAF {r['haf']!r} beats the exhaustive optimum {opt!r}")
    prop = by["proposed"]
    if not _at_most(opt, prop["best_dual"]):
        bad.append(f"best_dual {prop['best_dual']!r} below the exhaustive optimum {opt!r}")
    # C5's criterion: the certificate covers the distance to the optimum
    if opt - prop["haf"] > prop["theorem2_bound"] + 1e-6:
        bad.append(
            f"proposed HAF {prop['haf']!r} more than theorem2_bound {prop['theorem2_bound']!r} "
            f"below the optimum {opt!r}"
        )
    return bad


def check_timevary(rows: Sequence[Sequence], gammas: Sequence[np.ndarray], alpha: np.ndarray, methods: Sequence[str]) -> List[str]:
    """Rows [seed, slot, method, haf] of one trajectory; gammas[k] is slot k+1."""
    if len(rows) != len(gammas) * len(methods):
        return [f"expected {len(gammas) * len(methods)} rows, got {len(rows)}"]
    bad = []
    ceilings = [haf_ceiling(g, alpha) for g in gammas]
    for _, slot, m, value in rows:
        k = int(slot) - 1
        if not _at_most(value, ceilings[k]):
            bad.append(f"slot {slot} {m} HAF {value!r} above the best-link ceiling {ceilings[k]!r}")
        if m == "max_sinr":
            ref = max_sinr_haf(gammas[k], alpha)
            if not _close(value, ref):
                bad.append(f"slot {slot} max_sinr HAF {value!r} != recomputed {ref!r}")
    return bad
