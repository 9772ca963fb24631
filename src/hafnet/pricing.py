"""Distributed pricing for joint association and bandwidth allocation.

The association constraint is relaxed through per-BS prices mu_j. Each
iteration alternates two stages:

  1. every BS solves its own bandwidth allocation for the current association
     and nudges its price along the (negative) load subgradient
         mu_j <- [ mu_j - eta_t (1 - sum_{i in I_j} gamma_hat_ij mu_j^(-1/alpha_i)) ]
     projected onto [mu_min, mu_max];
  2. every user re-associates to argmax_j gamma_ij / mu_j.

The dual function

    g(mu) = sum_j mu_j + sum_i max_j (alpha_i/(1-alpha_i)) gamma_hat_ij mu_j^((alpha_i-1)/alpha_i)

upper-bounds the HAF value of every feasible decision, so any price vector
certifies solution quality: the run keeps the best primal iterate and reports
the gap to the best dual value, together with an analytic bound on that gap
evaluated at the best-dual prices.

`iterate` is the one two-stage loop. A method enters it as a PricingRule (an
association rule and a price direction): `solve` runs it with the rule above
and attaches the certificate; the baselines module supplies the other rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from . import ra
from .core import Allocation, Association, NetworkInstance, haf_objective


@dataclass(frozen=True)
class PricingConfig:
    total_iters: int = 500
    eta0: float = 0.05
    eta_schedule: str = "diminishing"  # eta0 / sqrt(t), or "constant"
    mu_init: float = 1.0
    mu_min: float = 1e-8
    mu_max: float = 1e12

    def __post_init__(self) -> None:
        if self.eta_schedule not in ("diminishing", "constant"):
            raise ValueError(f"unknown eta_schedule {self.eta_schedule!r}")
        if self.total_iters < 1:
            raise ValueError(f"pricing total_iters={self.total_iters} must be >= 1")
        if not 0.0 < self.eta0 < math.inf:
            raise ValueError(f"pricing eta0={self.eta0} must be positive and finite")
        if not (0.0 < self.mu_min <= self.mu_max < math.inf and 0.0 < self.mu_init < math.inf):
            raise ValueError(f"pricing needs 0 < mu_min <= mu_max < inf and 0 < mu_init < inf: {self}")

    def eta_at(self, t: int) -> float:
        if self.eta_schedule == "constant":
            return self.eta0
        return self.eta0 / math.sqrt(t)


@dataclass(frozen=True)
class GapCertificate:
    """Duality-gap certificate at the best dual iterate.

    empirical_gap = best dual - best primal (>= 0 up to solver tolerance);
    theorem2_bound is the analytic gap bound at lambda_star = best-dual prices
    and lambda_hat = allocation multipliers of the induced association.
    """

    theorem2_bound: float
    empirical_gap: float
    lambda_star: np.ndarray
    lambda_hat: np.ndarray


@dataclass
class RunTrace:
    """Per-iteration record of one pricing run (arrays of length T).

    grad_norm is ||d|| of the run's price direction (the dual subgradient for
    the proposed rule). Only the proposed rule attaches a certificate.
    """

    primal: np.ndarray
    dual: np.ndarray
    mu: np.ndarray  # (T, J) prices *before* the iteration's update
    assoc_changes: np.ndarray
    grad_norm: np.ndarray
    mu_final: np.ndarray  # prices after the last update (warm-start handle)
    assoc_final: Optional[Association] = None  # the association mu_final induces
    certificate: Optional[GapCertificate] = None
    # True where the iteration solved its allocation, False where its
    # association equalled the previous one and the allocation was reused
    alloc_solved: Optional[np.ndarray] = None
    # the (association, allocation) of the best dual iterate, for the certificate
    best_dual_decision: Optional[Tuple[Association, Allocation]] = None

    def __len__(self) -> int:
        return int(self.primal.shape[0])

    @property
    def best_primal(self) -> float:
        return float(np.max(self.primal))

    @property
    def best_primal_iter(self) -> int:
        return int(np.argmax(self.primal))

    @property
    def best_dual(self) -> float:
        return float(np.min(self.dual))

    @property
    def best_dual_iter(self) -> int:
        return int(np.argmin(self.dual))

    def weak_duality_ok(self, tol: float = 1e-6) -> bool:
        """dual >= primal - tol*(1+|dual|) at every iteration."""
        slack = self.dual - self.primal + tol * (1.0 + np.abs(self.dual))
        return bool(np.all(slack >= 0.0))


@dataclass(frozen=True)
class PricingRule:
    """One pricing method for `iterate`: associate(inst, mu) picks each user's
    BS, and the prices step mu <- clip(mu - eta_t * direction(inst, assoc, mu))."""

    associate: Callable[[NetworkInstance, np.ndarray], Association]
    direction: Callable[[NetworkInstance, Association, np.ndarray], np.ndarray]


def associate(inst: NetworkInstance, mu: np.ndarray) -> Association:
    """Each user picks argmax_j gamma_ij / mu_j; ties go to the lowest index."""
    if np.any(mu <= 0):
        raise ValueError("prices must be positive")
    ratios = inst.gamma / mu[None, :]
    return Association(bs_of_user=np.argmax(ratios, axis=1))


def price_gradient(inst: NetworkInstance, assoc: Association, mu: np.ndarray) -> np.ndarray:
    """Subgradient of the dual at mu for the association it induced:
    component j is 1 - sum_{i in I_j} gamma_hat_ij * mu_j^(-1/alpha_i)."""
    I, J = inst.num_users, inst.num_bs
    js = np.asarray(assoc.bs_of_user, dtype=int)
    idx = np.arange(I)
    terms = inst.gamma_hat[idx, js] * mu[js] ** (-1.0 / inst.alphas.alpha)
    loads = np.bincount(js, weights=terms, minlength=J)
    return 1.0 - loads


def _dual(inst: NetworkInstance) -> Callable[[np.ndarray], float]:
    """g as a function of a price array, with the instance's constants (the
    alpha == 1 mask, log gamma of those users, coef * gamma_hat and the
    exponents) computed once. Users with alpha exactly 1 contribute
    max_j (ln gamma_ij - ln mu_j) - 1 (the proportional-fair form); all
    others use the closed power form."""
    a = inst.alphas.alpha
    pf = a == 1.0
    has_pf = bool(np.any(pf))
    log_gamma = np.log(inst.gamma[pf]) if has_pf else None
    rest = ~pf
    has_rest = bool(np.any(rest))
    ar = a[rest]
    expo = ((ar - 1.0) / ar)[:, None]
    coef_gh = (ar / (1.0 - ar))[:, None] * inst.gamma_hat[rest]

    def g(m: np.ndarray) -> float:
        if np.any(m <= 0):
            raise ValueError("prices must be positive")
        total = float(np.sum(m))
        if has_pf:
            scores = log_gamma - np.log(m)[None, :]
            total += float(np.sum(np.max(scores, axis=1) - 1.0))
        if has_rest:
            terms = coef_gh * m[None, :] ** expo
            total += float(np.sum(np.max(terms, axis=1)))
        return total

    return g


def dual_value(inst: NetworkInstance, mu: np.ndarray) -> float:
    """g(mu): an upper bound on the HAF value of every feasible decision."""
    return _dual(inst)(mu)


def theorem2_bound(
    inst: NetworkInstance,
    assoc: Association,
    lambda_star: np.ndarray,
    lambda_hat: np.ndarray,
) -> float:
    """Analytic duality-gap bound between prices lambda_star and the exact
    per-BS multipliers lambda_hat of the association they induce:

        sum_j (lam*_j - lam^_j)
        + sum_i (alpha_i gamma_hat_{i,j_i} / (1-alpha_i))
              * ((lam*_{j_i})^e_i - (lam^_{j_i})^e_i),   e_i = (alpha_i-1)/alpha_i.

    Non-finite lambda_hat entries (empty BSs) contribute 0 to the first sum
    and cannot appear in the second.
    """
    lh = np.where(np.isfinite(lambda_hat), lambda_hat, 0.0)
    js = np.asarray(assoc.bs_of_user, dtype=int)
    a = inst.alphas.alpha
    idx = np.arange(inst.num_users)
    gh = inst.gamma_hat[idx, js]
    ls_u, lh_u = lambda_star[js], lh[js]
    if np.any(lh_u <= 0):
        raise ValueError("lambda_hat must be positive on associated BSs")
    total = float(np.sum(lambda_star - lh))
    pf = a == 1.0
    if np.any(pf):
        total += float(np.sum(np.log(lh_u[pf]) - np.log(ls_u[pf])))
    rest = ~pf
    if np.any(rest):
        ar = a[rest]
        e = (ar - 1.0) / ar
        coef = ar * gh[rest] / (1.0 - ar)
        total += float(np.sum(coef * (ls_u[rest] ** e - lh_u[rest] ** e)))
    return total


def _certificate(
    inst: NetworkInstance, trace: RunTrace, ra_cfg: Optional[ra.LambdaSearchConfig]
) -> GapCertificate:
    mu_star = trace.mu[trace.best_dual_iter].copy()
    assoc = associate(inst, mu_star)
    alloc = ra.allocate(inst, assoc, ra_cfg, trace.best_dual_decision)
    return GapCertificate(
        theorem2_bound=theorem2_bound(inst, assoc, mu_star, alloc.lam),
        empirical_gap=trace.best_dual - trace.best_primal,
        lambda_star=mu_star,
        lambda_hat=np.where(np.isfinite(alloc.lam), alloc.lam, 0.0),
    )


def iterate(
    inst: NetworkInstance,
    rule: PricingRule,
    cfg: Optional[PricingConfig] = None,
    ra_cfg: Optional[ra.LambdaSearchConfig] = None,
    mu0: Optional[np.ndarray] = None,
) -> Tuple[Association, Allocation, RunTrace]:
    """The two-stage loop of every pricing method: returns the best primal
    iterate (the first on ties) and a trace with no certificate. The recorded
    dual is g(mu), a valid bound at any positive prices. mu0 warm-starts a
    continuation; cold or warm, every iterate evaluates the association its
    prices induce.

    Each iteration passes the previous (association, allocation) to
    ra.allocate, which returns that allocation when the association has not
    changed; the primal value is then reused too.
    """
    cfg = cfg or PricingConfig()
    T = int(cfg.total_iters)
    J = inst.num_bs
    mu = np.full(J, float(cfg.mu_init)) if mu0 is None else np.asarray(mu0, dtype=float).copy()
    mu = np.clip(mu, cfg.mu_min, cfg.mu_max)
    assoc = rule.associate(inst, mu)

    primal = np.empty(T)
    dual = np.empty(T)
    mu_snaps = np.empty((T, J))
    changes = np.zeros(T, dtype=int)
    grad_norms = np.empty(T)
    solved = np.zeros(T, dtype=bool)
    g = _dual(inst)

    best_p = -np.inf
    best: Optional[Tuple[Association, Allocation]] = None
    best_d = np.inf
    at_best_dual: Optional[Tuple[Association, Allocation]] = None
    prev: Optional[Tuple[Association, Allocation]] = None
    pending_changes = 0

    for t in range(1, T + 1):
        k = t - 1
        alloc = ra.allocate(inst, assoc, ra_cfg, prev)
        if prev is None or alloc is not prev[1]:
            p = haf_objective(inst, assoc, alloc)
            solved[k] = True
        prev = (assoc, alloc)
        d = rule.direction(inst, assoc, mu)
        primal[k] = p
        dual[k] = g(mu)
        mu_snaps[k] = mu
        changes[k] = pending_changes
        grad_norms[k] = float(np.linalg.norm(d))
        if best is None or p > best_p:
            best_p = p
            best = prev
        if dual[k] < best_d:
            best_d = dual[k]
            at_best_dual = prev
        mu = np.clip(mu - cfg.eta_at(t) * d, cfg.mu_min, cfg.mu_max)
        nxt = rule.associate(inst, mu)
        pending_changes = int(np.count_nonzero(nxt.bs_of_user != assoc.bs_of_user))
        assoc = nxt

    trace = RunTrace(
        primal=primal,
        dual=dual,
        mu=mu_snaps,
        assoc_changes=changes,
        grad_norm=grad_norms,
        mu_final=mu,
        assoc_final=assoc,
        alloc_solved=solved,
        best_dual_decision=at_best_dual,
    )
    return best[0], best[1], trace


def solve(
    inst: NetworkInstance,
    cfg: Optional[PricingConfig] = None,
    ra_cfg: Optional[ra.LambdaSearchConfig] = None,
    mu0: Optional[np.ndarray] = None,
) -> Tuple[Association, Allocation, RunTrace]:
    """Run the pricing loop with the proposed rule and return the best primal
    iterate.

    With the default uniform price init the first association is max-SINR.
    mu0 warm-starts a continuation (time-varying operation). The returned
    trace carries per-iteration primal/dual values and a GapCertificate.
    """
    # built per call from the module attributes, so a wrapper installed on
    # them (the perfbench tracer) sees every association and gradient
    rule = PricingRule(associate=associate, direction=price_gradient)
    assoc, alloc, trace = iterate(inst, rule, cfg, ra_cfg, mu0)
    trace.certificate = _certificate(inst, trace, ra_cfg)
    return assoc, alloc, trace


def theorem1_check(
    inst: NetworkInstance,
    trace: RunTrace,
    cfg: Optional[PricingConfig] = None,
    ra_cfg: Optional[ra.LambdaSearchConfig] = None,
    tol: float = 1e-6,
) -> bool:
    """Calibrated convergence-rate check against a finished run's trace.

    The best dual iterate of `trace` stands in for the dual optimum and the
    largest observed subgradient norm for the Lipschitz constant G. A second
    pass is run with the constant step ||mu1 - mu*|| / (G sqrt(T)); the check
    holds if its best dual gap obeys  min_t g(mu_t) - g(mu*) <= G ||mu1 - mu*||^2 / sqrt(T) + tol.
    """
    T = len(trace)
    proxy = trace.mu[trace.best_dual_iter]
    g_star = dual_value(inst, proxy)
    G = float(np.max(trace.grad_norm))
    mu1 = trace.mu[0]
    D = float(np.linalg.norm(mu1 - proxy))
    if G <= 0.0 or D <= 0.0:
        return True
    eta = D / (G * math.sqrt(T))
    base = cfg or PricingConfig()
    cfg2 = replace(base, total_iters=T, eta0=eta, eta_schedule="constant")
    _, _, second = solve(inst, cfg2, ra_cfg, mu0=mu1.copy())
    lhs = second.best_dual - g_star
    return lhs <= G * D * D / math.sqrt(T) + tol
