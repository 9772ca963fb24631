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

for alpha_i != 1, which NetworkInstance requires. It takes each user's max_j
at the BS of stage 2, since the user's term rises with gamma_ij / mu_j (see
`dual_value`). It upper-bounds the HAF value of every feasible decision, so
any price vector certifies solution quality: the run keeps the best primal
iterate and reports the gap to the best dual value, together with an analytic
bound on that gap evaluated at the best-dual prices.

`iterate` is the one two-stage loop. A method enters it as a PricingRule,
whose `prepare(inst)` binds the method to one instance: it computes the
instance's terms once and returns the users' pick and the price direction.
`solve` runs the loop with the rule above and attaches the certificate; the
baselines module supplies the other rules. `associate` and `price_gradient`
are the rule above as one-off calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

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

    def step_sizes(self) -> np.ndarray:
        """eta_t for t = 1..total_iters: eta0, or eta0 / sqrt(t). Both
        divide and square root are correctly rounded, so each entry equals
        the scalar eta0 / math.sqrt(t) bit for bit."""
        if self.eta_schedule == "constant":
            return np.full(self.total_iters, float(self.eta0))
        return self.eta0 / np.sqrt(np.arange(1, self.total_iters + 1))


@dataclass
class RunTrace:
    """Per-iteration record of one pricing run (arrays of length T).

    grad_norm is ||d|| of the run's price direction (the dual subgradient for
    the proposed rule). dual is g at each row of mu, evaluated after the loop;
    the best-dual iterate is its first argmin, and best_dual_decision keeps
    its association and allocation. The run's certificate is empirical_gap
    against theorem2_bound, which only the proposed rule sets.
    """

    primal: np.ndarray
    dual: np.ndarray
    mu: np.ndarray  # (T, J) prices *before* the iteration's update
    assoc_changes: np.ndarray
    assoc_id: np.ndarray  # (T,) the iteration's association, as its rank by first visit
    grad_norm: np.ndarray
    mu_final: np.ndarray  # prices after the last update (warm-start handle)
    assoc_final: Optional[Association] = None  # the association mu_final induces
    best_dual_decision: Optional[Tuple[Association, Allocation]] = None  # of the best-dual iterate
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
        """True where the iteration solved its allocation: the first visit of
        each association; the others reused the allocation of that visit."""
        solved = np.zeros(len(self), dtype=bool)
        solved[np.unique(self.assoc_id, return_index=True)[1]] = True
        return solved


#: pick(mu) -> (I,) BS per user; direction(bs, mu) -> (J,) price direction.
Pick = Callable[[np.ndarray], np.ndarray]
Direction = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PricingRule:
    """One pricing method for `iterate`. prepare(inst) computes the method's
    per-instance terms once and returns (pick, direction): pick(mu) gives
    each user's BS, and the prices step
    mu <- clip(mu - eta_t * direction(bs, mu)). A direction may cache terms
    of the association on the identity of its bs array (see
    `per_association`), so a caller passes the same array object while the
    association is unchanged and never writes into it. pick and direction
    must be deterministic in their arguments: `iterate` ends a run at the
    first step that leaves the prices unchanged, since every later iteration
    would repeat it."""

    prepare: Callable[[NetworkInstance], Tuple[Pick, Direction]]


def per_association(terms: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """terms(bs), recomputed only when bs is not the array object of the
    previous call. The last bs is held, so its identity cannot be reused."""
    last_bs = last_terms = None

    def cached(bs: np.ndarray) -> np.ndarray:
        nonlocal last_bs, last_terms
        if bs is not last_bs:
            last_bs, last_terms = bs, terms(bs)
        return last_terms

    return cached


def _prepare_proposed(inst: NetworkInstance) -> Tuple[Pick, Direction]:
    """The rule above, bound to inst: `associate` and `price_gradient`, with
    -1/alpha computed once and gamma_hat gathered once per association."""
    gamma, gamma_hat, J = inst.gamma, inst.gamma_hat, inst.num_bs
    expo = -1.0 / inst.alphas.alpha
    users = np.arange(inst.num_users)
    gathered = per_association(lambda bs: gamma_hat[users, bs])

    def pick(mu):
        return (gamma / mu).argmax(1)

    def direction(bs, mu):
        return 1.0 - np.bincount(bs, weights=gathered(bs) * mu.take(bs) ** expo, minlength=J)

    return pick, direction


#: The proposed method's rule, which `solve` runs.
PROPOSED = PricingRule(prepare=_prepare_proposed)


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
    (coef > 0, -e > 0 for alpha < 1; both < 0 for alpha > 1). g is sum mu
    plus the sum of these terms.

    Rows go in blocks of _DUAL_BLOCK, and each block's maximisers come from
    one argmax over its ratio table, so no (T, users, BSs) array is built.
    The coefficients and prices at the maximisers are gathered by flat
    `take` on the C-ordered tables, which yields the values and layout of
    2-D fancy indexing.
    Every array that feeds a power or a row sum is C-contiguous,
    as a one-row call's arrays are: numpy's vectorised transcendentals and
    pairwise sums then round each row as that call does, so a table's values
    equal the one-row values bit for bit.
    """
    mu = np.asarray(mu, dtype=float)
    table = np.ascontiguousarray(mu[None, :] if mu.ndim == 1 else mu)
    if not (table > 0).all():  # NaN fails too
        raise ValueError("prices must be positive")
    a = inst.alphas.alpha
    J = inst.num_bs
    expo = (a - 1.0) / a
    coef_gh = ((a / (1.0 - a))[:, None] * inst.gamma_hat).ravel()
    user_base = np.arange(a.size) * J  # user i's offset into the flat (I, J) table
    out = np.empty(table.shape[0])
    for lo in range(0, table.shape[0], _DUAL_BLOCK):
        m = table[lo : lo + _DUAL_BLOCK]
        js = (inst.gamma / m[:, None, :]).argmax(2)
        row_base = np.arange(0, m.size, J)[:, None]  # each row's offset into the flat block
        terms = coef_gh.take(user_base + js) * m.take(row_base + js) ** expo
        out[lo : lo + m.shape[0]] = m.sum(axis=1) + terms.sum(axis=1)
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
    e = (a - 1.0) / a
    coef = a * gh / (1.0 - a)
    return float(np.sum(lambda_star - lh)) + float(np.sum(coef * (ls_u ** e - lh_u ** e)))


def _certificate(
    inst: NetworkInstance, trace: RunTrace, ra_cfg: Optional[ra.LambdaSearchConfig]
) -> float:
    """theorem2_bound at the best-dual prices, with the multipliers of the
    association they induce: the best-dual iterate's association, which the
    loop kept with its allocation. Its one ra.allocate call is passed that
    decision as prev and returns its allocation without solving."""
    assoc = trace.best_dual_decision[0]
    lam = ra.allocate(inst, assoc, ra_cfg, trace.best_dual_decision).lam
    return theorem2_bound(inst, assoc, trace.mu[trace.best_dual_iter], lam)


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
    a shape other than (J,) or NaN in it raises ValueError, and so do prices
    that become NaN during the run. Cold or warm, every iterate evaluates the
    association its prices induce.

    The rule is prepared once per run, and the loop works on the BS array
    its pick returns. An iteration's pick is a change only when its bytes
    differ from the current association's, and only then are the moved
    users counted. That array, and the Association built around it, keep
    their objects while the association is unchanged, even when the pick
    returns a fresh equal array, which lets the rule's direction reuse its
    per-association terms. Step sizes come from `PricingConfig.step_sizes`,
    and the trace's rows are collected in lists and stacked after.

    Each association is solved and scored once per run. A table keyed on the
    association's bytes (BS indices in the narrowest unsigned type) holds
    each first visit's allocation, primal value and rank; a later visit
    takes the allocation object and primal value from there, and cannot
    become the best iterate, which moves only on a strictly larger primal.
    The best-dual iterate's decision pairs the table's allocation with the
    association its key holds, for the certificate.
    Every iteration the loop runs makes one ra.allocate call: it passes the
    previous iteration's pair when the association is unchanged (an
    unchanged association keeps its object, so that test is one identity
    check), the table's pair on a revisit, and nothing on a first visit,
    which solves.

    The loop ends at the first iteration whose clipped step leaves the
    prices unchanged bit for bit, and the trace repeats that iteration's row
    to length T, with 0 association changes; mu_final and assoc_final are
    that iteration's. This is exact: the step sizes never increase, rounding
    and the clip are monotone, so every smaller step rounds back to the same
    prices, and the rule's pick and direction depend only on their
    arguments, so every later iteration would repeat this one. A repeated
    row takes the computed row's dual, which `dual_value` gives the same
    bits wherever the row sits in its table, and cannot become the best
    iterate.
    """
    cfg = cfg or PricingConfig()
    J = inst.num_bs
    mu = np.full(J, float(cfg.mu_init)) if mu0 is None else np.asarray(mu0, dtype=float).copy()
    if mu.shape != (J,):
        raise ValueError(f"start prices have shape {mu.shape}, not ({J},)")
    if np.isnan(mu).any():  # clip would keep NaN; other starts clip into range
        raise ValueError("start prices must not be NaN")
    mu = np.clip(mu, cfg.mu_min, cfg.mu_max)
    mu_bytes = mu.tobytes()
    pick, direction = rule.prepare(inst)
    bs = pick(mu)
    bs_bytes = bs.tobytes()
    assoc = Association(bs_of_user=bs)
    mu_min, mu_max = cfg.mu_min, cfg.mu_max

    primal, mu_rows, changes, ranks, dd = [], [], [], [], []
    key_type = np.min_scalar_type(J - 1)  # the narrowest BS index: one byte per user up to 256 BSs
    table: Dict[bytes, Tuple[Allocation, float, int]] = {}  # a first visit's allocation, primal and rank
    best_p = -np.inf
    best: Optional[Tuple[Association, Allocation]] = None
    prev: Optional[Tuple[Association, Allocation]] = None
    pending_changes = 0

    for eta in cfg.step_sizes().tolist():
        if prev is None or assoc is not prev[0]:  # the first iteration or a changed association
            key = bs.astype(key_type).tobytes()
            visit = table.get(key)
            prev = None if visit is None else (assoc, visit[0])
        alloc = ra.allocate(inst, assoc, ra_cfg, prev)
        if prev is None:  # a first visit: score it and add it to the table
            visit = table[key] = (alloc, haf_objective(inst, assoc, alloc), len(table))
        prev = (assoc, alloc)
        _, p, rank = visit
        d = direction(bs, mu)
        primal.append(p)
        mu_rows.append(mu)
        changes.append(pending_changes)
        ranks.append(rank)
        dd.append(d.dot(d))
        if best is None or p > best_p:
            best_p = p
            best = prev
        stepped = np.minimum(np.maximum(mu - eta * d, mu_min), mu_max)
        stepped_bytes = stepped.tobytes()
        if stepped_bytes == mu_bytes:  # a fixed point: every later iteration repeats this one
            break
        mu, mu_bytes = stepped, stepped_bytes
        nxt = pick(mu)
        nxt_bytes = nxt.tobytes()
        # equal bytes are an unchanged association: keep both objects, which
        # ra.allocate and the direction test first
        pending_changes = 0 if nxt_bytes == bs_bytes else int(np.count_nonzero(nxt != bs))
        if pending_changes:
            bs, bs_bytes = nxt, nxt_bytes
            assoc = Association(bs_of_user=bs)

    # a NaN price stays NaN through every later step and clip, so the final
    # prices show one in any recorded row
    if np.isnan(mu).any():
        raise ValueError("prices became NaN")
    mu_snaps = np.array(mu_rows)
    dual = dual_value(inst, mu_snaps)
    rest = cfg.total_iters - len(primal)
    if rest:  # a fixed point: every later row repeats the last, whose g has the same bits in any table
        primal += primal[-1:] * rest
        changes += [0] * rest
        ranks += ranks[-1:] * rest
        dd += dd[-1:] * rest
        mu_snaps = np.concatenate((mu_snaps, np.broadcast_to(mu, (rest, J))))
        dual = np.concatenate((dual, np.full(rest, dual[-1])))
    assoc_id = np.array(ranks)
    # the table keeps first-visit order, so the best-dual row's rank is its entry
    key, (dual_alloc, _, _) = list(table.items())[assoc_id[np.argmin(dual)]]
    dual_assoc = Association(bs_of_user=np.frombuffer(key, dtype=key_type).astype(int))
    trace = RunTrace(
        primal=np.array(primal),
        dual=dual,
        mu=mu_snaps,
        assoc_changes=np.array(changes),
        assoc_id=assoc_id,
        grad_norm=np.sqrt(dd),
        mu_final=mu,
        assoc_final=assoc,
        best_dual_decision=(dual_assoc, dual_alloc),
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
    # the loop calls PROPOSED's prepared pick and direction, and the
    # certificate takes the loop's kept association: a wrapper on the module
    # attributes `associate` and `price_gradient` sees no call
    assoc, alloc, trace = iterate(inst, PROPOSED, cfg, ra_cfg, mu0)
    trace.theorem2_bound = _certificate(inst, trace, ra_cfg)
    return assoc, alloc, trace
