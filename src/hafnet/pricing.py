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

takes each user's max_j at the BS of stage 2, since the user's term rises with
gamma_ij / mu_j in every alpha branch (see `dual_value`). It upper-bounds the HAF
value of every feasible decision, so any price vector certifies solution
quality: the run keeps the best primal iterate and reports the gap to the best
dual value, together with an analytic bound on that gap evaluated at the
best-dual prices.

`iterate` is the one two-stage loop. A method enters it as a PricingRule (an
association rule and a price direction): `solve` runs it with the rule above
and attaches the certificate; the baselines module supplies the other rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple, Union

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


@dataclass
class RunTrace:
    """Per-iteration record of one pricing run (arrays of length T).

    grad_norm is ||d|| of the run's price direction (the dual subgradient for
    the proposed rule). dual is g at each row of mu, evaluated after the loop;
    the best-dual iterate is its first argmin. The run's certificate is
    empirical_gap against theorem2_bound, which only the proposed rule sets.
    """

    primal: np.ndarray
    dual: np.ndarray
    mu: np.ndarray  # (T, J) prices *before* the iteration's update
    assoc_changes: np.ndarray
    grad_norm: np.ndarray
    mu_final: np.ndarray  # prices after the last update (warm-start handle)
    assoc_final: Optional[Association] = None  # the association mu_final induces
    theorem2_bound: Optional[float] = None  # the analytic gap bound at the best-dual prices

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

    @property
    def empirical_gap(self) -> float:
        """best dual - best primal (>= 0 up to solver tolerance)."""
        return self.best_dual - self.best_primal

    @property
    def alloc_solved(self) -> np.ndarray:
        """True where the iteration solved its allocation: the first one and
        every one whose association changed; the others reused the previous
        allocation."""
        solved = self.assoc_changes != 0
        solved[:1] = True
        return solved

    def weak_duality_ok(self) -> bool:
        """dual >= primal - 1e-6*(1+|dual|) at every iteration."""
        slack = self.dual - self.primal + 1e-6 * (1.0 + np.abs(self.dual))
        return bool(np.all(slack >= 0.0))


@dataclass(frozen=True)
class PricingRule:
    """One pricing method for `iterate`: associate(inst, mu) picks each user's
    BS, and the prices step mu <- clip(mu - eta_t * direction(inst, assoc, mu))."""

    associate: Callable[[NetworkInstance, np.ndarray], Association]
    direction: Callable[[NetworkInstance, Association, np.ndarray], np.ndarray]


def associate(inst: NetworkInstance, mu: np.ndarray) -> Association:
    """Each user picks argmax_j gamma_ij / mu_j; ties go to the lowest index."""
    if not np.all(mu > 0):  # NaN fails too
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


#: Price rows per block of `dual_value`: a block's (rows, users, BSs) ratio
#: table stays small, and each numpy call is shared by the block's rows.
_DUAL_BLOCK = 64


def dual_value(inst: NetworkInstance, mu: np.ndarray) -> Union[float, np.ndarray]:
    """g(mu): an upper bound on the HAF value of every feasible decision.
    A (J,) price vector gives a float, a (T, J) array g at each row.

    Each user's max over j sits at js = argmax_j gamma_ij / mu_j, ties to the
    lowest index as in `associate`, so g takes one term per user:
    coef gamma_hat_ij mu_j^e = coef (gamma_ij / mu_j)^(-e) rises with gamma_ij / mu_j
    (coef > 0, -e > 0 for alpha < 1; both < 0 for alpha > 1), as does the
    proportional-fair ln gamma_ij - ln mu_j - 1 of users with alpha exactly 1.
    The terms are summed as sum mu, then the alpha = 1 users, then the rest.

    Rows go in blocks of _DUAL_BLOCK, and each block's maximisers come from
    one argmax over its ratio table, so no (T, users, BSs) array is built.
    Every array that feeds a power, a log or a row sum is C-contiguous,
    as a one-row call's arrays are: numpy's vectorised transcendentals and
    pairwise sums then round each row as that call does, so a table's values
    equal the one-row values bit for bit.
    """
    mu = np.asarray(mu, dtype=float)
    table = np.ascontiguousarray(mu[None, :] if mu.ndim == 1 else mu)
    if not (table > 0).all():  # NaN fails too
        raise ValueError("prices must be positive")
    a = inst.alphas.alpha
    pf = a == 1.0
    rest = ~pf
    has_pf = bool(np.any(pf))
    gamma_pf, gamma_rest = inst.gamma[pf], inst.gamma[rest]
    log_gamma = np.log(gamma_pf)
    ar = a[rest]
    expo = (ar - 1.0) / ar
    coef_gh = (ar / (1.0 - ar))[:, None] * inst.gamma_hat[rest]
    pf_rows, rest_rows = np.arange(log_gamma.shape[0]), np.arange(ar.size)
    out = np.empty(table.shape[0])
    for lo in range(0, table.shape[0], _DUAL_BLOCK):
        m = table[lo : lo + _DUAL_BLOCK]
        rows = np.arange(m.shape[0])[:, None]
        total = m.sum(axis=1)
        if has_pf:
            jp = np.argmax(gamma_pf / m[:, None, :], axis=2)
            total += (log_gamma[pf_rows, jp] - np.log(m)[rows, jp] - 1.0).sum(axis=1)
        jr = np.argmax(gamma_rest / m[:, None, :], axis=2)
        out[lo : lo + m.shape[0]] = total + (coef_gh[rest_rows, jr] * m[rows, jr] ** expo).sum(axis=1)
    return float(out[0]) if mu.ndim == 1 else out


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
) -> float:
    """theorem2_bound at the best-dual prices. The loop keeps no decision for
    them, so this solves the association they induce with one ra.allocate
    call; the solve is deterministic, so its multipliers are the ones the
    loop found at that iterate."""
    mu_star = trace.mu[trace.best_dual_iter]
    assoc = associate(inst, mu_star)
    return theorem2_bound(inst, assoc, mu_star, ra.allocate(inst, assoc, ra_cfg).lam)


def iterate(
    inst: NetworkInstance,
    rule: PricingRule,
    cfg: Optional[PricingConfig] = None,
    ra_cfg: Optional[ra.LambdaSearchConfig] = None,
    mu0: Optional[np.ndarray] = None,
) -> Tuple[Association, Allocation, RunTrace]:
    """The two-stage loop of every pricing method: returns the best primal
    iterate (the first on ties) and a trace with no theorem2_bound. The recorded
    dual is g(mu), a valid bound at any positive prices; nothing in the loop
    reads it, so it is evaluated after the loop, on all recorded prices in
    blocks. mu0 warm-starts a continuation and is clipped to [mu_min, mu_max];
    NaN in it raises ValueError. Cold or warm, every iterate evaluates the
    association its prices induce.

    Each iteration passes the previous (association, allocation) to
    ra.allocate, which returns that allocation when the association has not
    changed; the primal value is then reused too. An unchanged association
    keeps its object, so that test is one identity check.
    """
    cfg = cfg or PricingConfig()
    T = int(cfg.total_iters)
    J = inst.num_bs
    mu = np.full(J, float(cfg.mu_init)) if mu0 is None else np.asarray(mu0, dtype=float).copy()
    if np.isnan(mu).any():  # clip would keep NaN; other starts clip into range
        raise ValueError("start prices must not be NaN")
    mu = np.clip(mu, cfg.mu_min, cfg.mu_max)
    assoc = rule.associate(inst, mu)

    primal = np.empty(T)
    mu_snaps = np.empty((T, J))
    changes = np.zeros(T, dtype=int)
    grad_norms = np.empty(T)

    best_p = -np.inf
    best: Optional[Tuple[Association, Allocation]] = None
    prev: Optional[Tuple[Association, Allocation]] = None
    pending_changes = 0

    for t in range(1, T + 1):
        k = t - 1
        alloc = ra.allocate(inst, assoc, ra_cfg, prev)
        if prev is None or alloc is not prev[1]:
            p = haf_objective(inst, assoc, alloc)
        prev = (assoc, alloc)
        d = rule.direction(inst, assoc, mu)
        primal[k] = p
        mu_snaps[k] = mu
        changes[k] = pending_changes
        grad_norms[k] = math.sqrt(d.dot(d))
        if best is None or p > best_p:
            best_p = p
            best = prev
        mu = np.minimum(np.maximum(mu - cfg.eta_at(t) * d, cfg.mu_min), cfg.mu_max)
        nxt = rule.associate(inst, mu)
        pending_changes = int(np.count_nonzero(nxt.bs_of_user != assoc.bs_of_user))
        if pending_changes:  # else keep the object, which ra.allocate tests first
            assoc = nxt

    trace = RunTrace(
        primal=primal,
        dual=dual_value(inst, mu_snaps),
        mu=mu_snaps,
        assoc_changes=changes,
        grad_norm=grad_norms,
        mu_final=mu,
        assoc_final=assoc,
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
    trace carries per-iteration primal/dual values and theorem2_bound.
    """
    # built per call from the module attributes, so a wrapper installed on
    # them (the perfbench tracer) sees every association and gradient
    rule = PricingRule(associate=associate, direction=price_gradient)
    assoc, alloc, trace = iterate(inst, rule, cfg, ra_cfg, mu0)
    trace.theorem2_bound = _certificate(inst, trace, ra_cfg)
    return assoc, alloc, trace


def theorem1_check(
    inst: NetworkInstance,
    trace: RunTrace,
    cfg: Optional[PricingConfig] = None,
    ra_cfg: Optional[ra.LambdaSearchConfig] = None,
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
    _, _, second = solve(inst, cfg2, ra_cfg, mu0=mu1.copy())
    lhs = second.best_dual - g_star
    return lhs <= G * D * D / math.sqrt(T) + 1e-6
