"""Per-BS bandwidth allocation under heterogeneous alpha-fairness.

For a fixed association, each BS solves an independent concave program over
its own users' bandwidth fractions. The KKT conditions reduce it to a single
scalar root-find per BS: find lam > 0 with

    sum_{i in I_j} gamma_hat_ij * lam^(-1/alpha_i)  =  1,

after which y_ij = gamma_hat_ij * lam^(-1/alpha_i). The left side is strictly
decreasing in lam (+inf at 0+, -> 0 at inf), so the root is unique.

Every solve goes through one segmented Newton kernel on s = log lam, which
solves many root-finds at once: `solve_stacked` passes every BS of many
associations, each on its own gains (a slotted run's blocks of slots), and
`allocate` is its one-association case; `subset_solve` passes many
(BS, user set) pairs for the search baselines. `assemble` turns per-BS log
multipliers into an allocation, for a search that kept the ones it solved.
The scalar references the tests compare the kernel against (the printed
decimal digit search and a brentq root-find) live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import Allocation, Association, NetworkInstance, utility_vector


@dataclass(frozen=True)
class LambdaSearchConfig:
    # The digit-search schedule. Only the tests' digit-search reference reads
    # these; they stay so that saved INI files keep loading.
    initial_step: float = 1e3
    outer_iters: int = 12
    inner_iters: int = 10
    # The Newton kernel's tolerance on log(lam).
    bisect_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 <= self.bisect_tol < np.inf:
            raise ValueError(f"ra bisect_tol={self.bisect_tol} must be non-negative and finite")


_DEFAULT = LambdaSearchConfig()

# Newton steps: 5-8 suffice from the start point; the cap catches NaNs.
_NEWTON_MAX_STEPS = 100
_ULPS4 = 4.0 * np.finfo(float).eps  # a few ulps, relative to |s|


def _newton(lg: np.ndarray, ia: np.ndarray, seg: np.ndarray, n: int, tol: float) -> np.ndarray:
    """Segmented Newton on s = log lam for n KKT equations at once.

    Term k belongs to segment seg[k] (every segment has at least one term)
    and contributes exp(lg[k] - s * ia[k]), with lg = log gamma_hat and
    ia = 1/alpha. Segment sums go through np.bincount. The start
    s0 = max_k lg[k] / ia[k] has every term <= 1 and load >= 1, i.e. it sits
    left of the root of the convex, decreasing load - 1; so the iterates
    climb monotonically to the root and no exp overflows. A segment stops
    once its step is at most max(tol, a few ulps of s); a non-positive step
    means rounding has reached the root. Returns s per segment.
    """
    s = np.full(n, -np.inf)
    np.maximum.at(s, seg, lg / ia)
    active = np.ones(n, dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        t = np.exp(lg - s[seg] * ia)
        # (load - 1) / -(d load / ds): the Newton step, positive left of the root
        step = (np.bincount(seg, t, n) - 1.0) / np.bincount(seg, t * ia, n)
        step *= active  # converged segments stay put
        s += step
        active = ~(step <= np.maximum(tol, _ULPS4 * np.abs(s)))  # a NaN stays active
        if not np.count_nonzero(active):
            return s
    raise ArithmeticError("Newton multiplier search did not converge")


def solve_stacked(
    gamma_hat: np.ndarray,
    alpha: np.ndarray,
    bs: np.ndarray,
    cfg: Optional[LambdaSearchConfig] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal bandwidth fractions of P associations in one kernel call.

    Association p assigns user i to BS bs[p, i] (bs: (P, I) integers in
    [0, J), not checked) on the gains gamma_hat[p] (gamma_hat: (P, I, J));
    every association shares the users' exponents alpha (I,). Returns
    (y, s): y (P, I) is each user's fraction of its BS, and s (P, J) the log
    multipliers, NaN at empty BSs.

    The kernel's segments are the flat (association, BS) pairs in use, and
    each converges and freezes on its own, with its terms in user order; so
    row p equals the solve of association p alone bit for bit, which is
    `allocate`.
    """
    cfg = cfg or _DEFAULT
    P, I, J = gamma_hat.shape
    ids = (bs + np.arange(0, P * J, J)[:, None]).ravel()  # each term's flat (association, BS) pair
    in_use = np.bincount(ids, minlength=P * J) > 0
    seg = (np.cumsum(in_use) - 1)[ids]  # each term's rank among the pairs in use
    lg = np.log(gamma_hat.reshape(P * I, J)[np.arange(P * I), bs.ravel()])
    ia = (1.0 / alpha)[None].repeat(P, 0).ravel()
    s = np.full(P * J, np.nan)
    s[in_use] = _newton(lg, ia, seg, int(np.count_nonzero(in_use)), cfg.bisect_tol)
    return _fractions(lg, s[ids], ia).reshape(P, I), s.reshape(P, J)


def _fractions(lg: np.ndarray, s_at: np.ndarray, ia: np.ndarray) -> np.ndarray:
    """y = exp(lg - s / alpha) at each user's BS, from lg = log gamma_hat and
    s = log lam there, and ia = 1/alpha: the one formula every allocation
    takes its fractions from."""
    return np.exp(lg - s_at * ia)


def allocate(
    inst: NetworkInstance,
    assoc: Association,
    cfg: Optional[LambdaSearchConfig] = None,
    prev: Optional[Tuple[Association, Allocation]] = None,
) -> Allocation:
    """Optimal bandwidth fractions for every BS under a fixed association.

    The one-association case of `solve_stacked`: one Newton kernel call
    solves every non-empty BS. Empty BSs get a NaN multiplier and a zero
    column. y_ij = gamma_hat_ij * lam_j^(-1/alpha_i) on associated pairs.

    prev is an (association, allocation) pair for the same instance and cfg
    whose allocation is this function's result for that association, or a
    bit-identical copy of it, not necessarily the object it returned. If
    assoc is prev's association object or equals it, prev's Allocation
    object is returned as it is (the solve is deterministic, so a cold solve
    would give the same arrays); otherwise the split is solved.
    """
    if prev is not None and (prev[0] is assoc or np.array_equal(prev[0].bs_of_user, assoc.bs_of_user)):
        return prev[1]
    I, J = inst.num_users, inst.num_bs
    bs = np.asarray(assoc.bs_of_user, dtype=int)
    if bs.shape[0] != I:
        raise ValueError("association length must match the instance")
    if I and (bs.min() < 0 or bs.max() >= J):
        raise ValueError("association refers to a BS outside the instance")
    y_user, s = solve_stacked(inst.gamma_hat[None], inst.alphas.alpha, bs[None], cfg)
    return _allocation(bs, y_user[0], s[0], J)


def _allocation(bs: np.ndarray, y_user: np.ndarray, s: np.ndarray, num_bs: int) -> Allocation:
    y = np.zeros((bs.shape[0], num_bs))
    y[np.arange(bs.shape[0]), bs] = y_user
    return Allocation(y=y, lam=np.exp(s))


def assemble(inst: NetworkInstance, bs: np.ndarray, s: np.ndarray) -> Allocation:
    """The allocation of association bs (I,) from its BSs' log multipliers
    s = log lam (J,), NaN at empty BSs: y_ij = exp(lg_i - s_j / alpha_i) at
    each user's BS, where lg_i = log gamma_hat_{i, bs_i}, and lam = exp(s).

    Its fractions take allocate's formula, so s from any solve of the same
    (BS, user set) splits gives allocate's arrays bit for bit. It takes s,
    not lam, because log(exp(s)) need not give s back.
    """
    lg = np.log(inst.gamma_hat[np.arange(inst.num_users), bs])
    return _allocation(bs, _fractions(lg, s[bs], 1.0 / inst.alphas.alpha), s, inst.num_bs)


def subset_solve(
    inst: NetworkInstance,
    bs: np.ndarray,
    members: np.ndarray,
    cfg: Optional[LambdaSearchConfig] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal HAF contribution of many (BS, user set) pairs in one kernel call.

    Pair p serves the users where members[p] (shape (P, I), boolean) is true
    from BS bs[p]. Returns (utility, s), each of shape (P,), with s the log
    multiplier that `assemble` takes; empty sets contribute (0.0, nan). A
    pair's result does not depend on the rest of its batch. Utilities use
    the same rate floor as the global objective, so per-BS sums match
    haf_objective.
    """
    cfg = cfg or _DEFAULT
    bs = np.asarray(bs, dtype=int)
    members = np.asarray(members, dtype=bool)
    P = bs.shape[0]
    pair, users = np.nonzero(members)
    in_use = members.any(axis=1)
    used = np.flatnonzero(in_use)
    seg = (np.cumsum(in_use) - 1)[pair]  # each term's rank among the non-empty pairs
    js = bs[pair]
    lg = np.log(inst.gamma_hat[users, js])
    alpha = inst.alphas.alpha[users]
    ia = 1.0 / alpha
    s = np.full(P, np.nan)
    s[used] = s_used = _newton(lg, ia, seg, used.size, cfg.bisect_tol)
    rates = inst.gamma[users, js] * np.exp(lg - s_used[seg] * ia)
    util = np.zeros(P)
    util[used] = np.bincount(seg, weights=utility_vector(rates, alpha), minlength=used.size)
    return util, s


def subset_utilities(
    inst: NetworkInstance,
    bs: np.ndarray,
    members: np.ndarray,
    cfg: Optional[LambdaSearchConfig] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """subset_solve with multipliers: returns (utility, lam), each of shape
    (P,); empty sets contribute (0.0, nan)."""
    util, s = subset_solve(inst, bs, members, cfg)
    return util, np.exp(s)


def bs_optimal_utility(
    inst: NetworkInstance,
    j: int,
    users: np.ndarray,
    cfg: Optional[LambdaSearchConfig] = None,
) -> Tuple[float, float]:
    """Optimal HAF contribution of serving `users` from BS j: (utility, lam).

    The one-pair form of subset_utilities; empty user sets contribute
    (0.0, nan).
    """
    members = np.zeros((1, inst.num_users), dtype=bool)
    members[0, np.asarray(users, dtype=int)] = True
    util, lam = subset_utilities(inst, np.array([j]), members, cfg)
    return float(util[0]), float(lam[0])
