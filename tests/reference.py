"""Scalar references that the tests compare the production code against.

Nothing in `hafnet` calls these. The allocation references solve one BS's
KKT equation

    sum_{i in I_j} gamma_hat_ij * lam^(-1/alpha_i)  =  1

on Python floats: `solve_lambda_digit` by the printed decimal digit search,
`solve_lambda_brentq` by scipy's brentq in s = log lam. `kkt_residual`
measures how far a multiplier is from the root.

`REFERENCE_RULES` gives every pricing method's user pick and price direction
as per-call formulas that recompute every instance term on each call; the
loop's prepared rules must match them bit for bit.

`weak_duality_ok` and `theorem1_check` test a finished pricing run: the
dual above the primal at every iteration, and the convergence-rate envelope
of a calibrated second run.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from hafnet import pricing
from hafnet.core import Association, NetworkInstance
from hafnet.pricing import PricingConfig, RunTrace
from hafnet.ra import LambdaSearchConfig


class EmptyBSError(ValueError):
    """Raised when a multiplier is requested for a BS with no users."""


def _bs_terms(inst: NetworkInstance, assoc: Association, j: int) -> Tuple[List[float], List[float]]:
    """Python-float gains and exponents of BS j's users."""
    users = np.flatnonzero(np.asarray(assoc.bs_of_user) == j)
    if users.size == 0:
        raise EmptyBSError(f"BS {j} has no associated users")
    gh = inst.gamma_hat[users, j].tolist()
    inv_alpha = (1.0 / inst.alphas.alpha[users]).tolist()
    return gh, inv_alpha


def _load(gh: Sequence[float], inv_alpha: Sequence[float], lam: float) -> float:
    s = 0.0
    for g, a in zip(gh, inv_alpha):
        s += g * lam ** (-a)
    return s


def kkt_residual(inst: NetworkInstance, assoc: Association, j: int, lam: float) -> float:
    """sum_i gamma_hat_ij lam^(-1/alpha_i) - 1 over BS j's users.

    Zero at the optimal multiplier; strictly decreasing in lam.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    gh, ia = _bs_terms(inst, assoc, j)
    return _load(gh, ia, float(lam)) - 1.0


#: The printed digit-search schedule: the first step, and the outer sweeps of
#: inner probes each. It reaches at most outer * (inner + 1) * initial_step.
DIGIT_INITIAL_STEP = 1e3
DIGIT_OUTER_ITERS = 12
DIGIT_INNER_ITERS = 10


def _digit_search(
    gh: Sequence[float], inv_alpha: Sequence[float], initial_step: float, outer_iters: int, inner_iters: int
) -> float:
    """Decimal digit search for the multiplier.

    Starts at lam = 0 with a coarse step; keeps adding the step while the
    load stays above 1, retracting and shrinking the step tenfold on each
    overshoot; after every inner sweep one extra step is probed. Every probe
    (the extra one included) is subject to the same retract-and-shrink rule,
    so lam never ends above the root; an unconditional trailing add would park
    lam one coarse step past the root with no way back down.
    """
    lam = 0.0
    step = float(initial_step)

    def probe() -> None:
        nonlocal lam, step
        lam += step
        if 1.0 > _load(gh, inv_alpha, lam):
            lam -= step
            step /= 10.0

    for _ in range(outer_iters):
        for _ in range(inner_iters):
            probe()
        probe()
    return lam


def solve_lambda_digit(
    inst: NetworkInstance,
    assoc: Association,
    j: int,
    initial_step: float = DIGIT_INITIAL_STEP,
    outer_iters: int = DIGIT_OUTER_ITERS,
    inner_iters: int = DIGIT_INNER_ITERS,
) -> float:
    """Digit-search multiplier for BS j, on the printed schedule by default.
    Raises EmptyBSError if j is empty."""
    gh, ia = _bs_terms(inst, assoc, j)
    return _digit_search(gh, ia, initial_step, outer_iters, inner_iters)


def solve_lambda_brentq(inst: NetworkInstance, assoc: Association, j: int) -> float:
    """Multiplier for BS j by brentq on load(s) - 1, s = log lam, to a few ulps.

    The bracket is closed-form. At s = max_k (lg_k - 1) / ia_k one term is e,
    so the load is above 1; at s = max_k (lg_k + ln n + 1) / ia_k each of the
    n terms is at most 1 / (e n), so the load is below 1. No term in between
    exceeds e, so none overflows. Raises EmptyBSError if j is empty.
    """
    gh, ia = _bs_terms(inst, assoc, j)
    lg, ia = np.log(gh), np.array(ia)
    lo = float(np.max((lg - 1.0) / ia))
    hi = float(np.max((lg + math.log(lg.size) + 1.0) / ia))
    s = brentq(lambda s: float(np.exp(lg - s * ia).sum()) - 1.0, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    return math.exp(s)


def alpha_utility(rate: float, alpha: float) -> float:
    """Alpha-fair utility of a single positive rate.

    u_alpha(r) = r**(1-alpha) / (1-alpha) for alpha != 1, ln(r) at alpha = 1
    (the proportional-fair limit). Raises ValueError on non-positive rate.
    """
    rate = float(rate)
    alpha = float(alpha)
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    if alpha == 1.0:
        return float(np.log(rate))
    return float(rate ** (1.0 - alpha) / (1.0 - alpha))


def bootstrap_mean_lower(diffs: np.ndarray) -> float:
    """One-sided 95% lower confidence bound on the mean via percentile
    bootstrap: 2000 resamples drawn from a generator seeded with 0."""
    diffs = np.asarray(diffs, dtype=float)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, diffs.size, size=(2000, diffs.size))
    means = diffs[idx].mean(axis=1)
    return float(np.quantile(means, 1.0 - 0.95))


class ReferenceRule(NamedTuple):
    """A pricing method as per-call formulas: associate(inst, mu) picks each
    user's BS, and the prices step mu <- clip(mu - eta_t * direction(inst, assoc, mu))."""

    associate: Callable[[NetworkInstance, np.ndarray], Association]
    direction: Callable[[NetworkInstance, Association, np.ndarray], np.ndarray]


def _rule(score: Callable, direction: Callable, pick: Callable = np.argmax) -> ReferenceRule:
    """The rule whose users take the pick (argmax or argmin) of their score row."""

    def associate(inst, mu):
        return Association(bs_of_user=pick(score(inst, mu), axis=1))

    return ReferenceRule(associate=associate, direction=direction)


def _pf_score(inst, mu):
    return mu[None, :] * inst.gamma


def _pf_direction(inst, assoc, mu):
    counts = np.bincount(np.asarray(assoc.bs_of_user, dtype=int), minlength=inst.num_bs)
    cap = 0.5 * (math.log(np.finfo(float).max) - math.log(inst.num_bs)) - 1.0
    return np.exp(np.minimum(mu - 1.0, cap)) - counts.astype(float)


def _alpha_fair(a: float) -> ReferenceRule:
    """The printed fixed-alpha rule: score mu_j gamma_ij^e with e = (1-a)/a."""
    e = (1.0 - a) / a

    def score(inst, mu):
        return mu[None, :] * inst.gamma ** e

    def direction(inst, assoc, mu):
        js = np.asarray(assoc.bs_of_user, dtype=int)
        gh = inst.gamma[np.arange(inst.num_users), js] ** e
        sums = np.bincount(js, weights=gh, minlength=inst.num_bs)
        x = e * mu
        return -np.copysign(np.float_power(np.abs(x), 1.0 / (a - 1.0)), x) + sums

    return _rule(score, direction)


def _latency_score(inst, mu):
    return mu[None, :] / np.sqrt(inst.gamma)


def _latency_direction(inst, assoc, mu):
    js = np.asarray(assoc.bs_of_user, dtype=int)
    inv_sqrt = 1.0 / np.sqrt(inst.gamma[np.arange(inst.num_users), js])
    return 0.5 * mu + np.bincount(js, weights=inv_sqrt, minlength=inst.num_bs)


#: Every pricing method by name, as `hafnet.experiments` names them.
REFERENCE_RULES: Dict[str, ReferenceRule] = {
    "proposed": ReferenceRule(associate=pricing.associate, direction=pricing.price_gradient),
    "pf": _rule(_pf_score, _pf_direction),
    "af_low": _alpha_fair(0.6),
    "af_high": _alpha_fair(1.6),
    "min_latency": _rule(_latency_score, _latency_direction),
    "min_latency_argmin": _rule(_latency_score, _latency_direction, np.argmin),
}


def weak_duality_ok(trace: RunTrace) -> bool:
    """dual >= primal - 1e-6*(1+|dual|) at every iteration of trace."""
    slack = trace.dual - trace.primal + 1e-6 * (1.0 + np.abs(trace.dual))
    return bool(np.all(slack >= 0.0))


def theorem1_check(
    inst: NetworkInstance,
    trace: RunTrace,
    cfg: Optional[PricingConfig] = None,
    ra_cfg: Optional[LambdaSearchConfig] = None,
) -> bool:
    """Calibrated convergence-rate check against a finished run's trace.

    The best dual iterate of `trace` stands in for the dual optimum and the
    largest observed subgradient norm for the Lipschitz constant G. A second
    pass is run with the constant step ||mu1 - mu*|| / (G sqrt(T)); the check
    holds if its best dual gap obeys  min_t g(mu_t) - g(mu*) <= G ||mu1 - mu*||^2 / sqrt(T) + 1e-6.
    """
    T = len(trace)
    proxy = trace.mu[trace.best_dual_iter]
    g_star = trace.best_dual
    G = float(np.max(trace.grad_norm))
    mu1 = trace.mu[0]
    D = float(np.linalg.norm(mu1 - proxy))
    if G <= 0.0 or D <= 0.0:
        return True
    eta = D / (G * math.sqrt(T))
    base = cfg or PricingConfig()
    cfg2 = replace(base, total_iters=T, eta0=eta, eta_schedule="constant")
    _, _, second = pricing.solve(inst, cfg2, ra_cfg, mu0=mu1.copy())
    lhs = second.best_dual - g_star
    return lhs <= G * D * D / math.sqrt(T) + 1e-6
