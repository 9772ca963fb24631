"""Per-BS bandwidth allocation under heterogeneous alpha-fairness.

For a fixed association, each BS solves an independent concave program over
its own users' bandwidth fractions. The KKT conditions reduce it to a single
scalar root-find per BS: find lam > 0 with

    sum_{i in I_j} gamma_hat_ij * lam^(-1/alpha_i)  =  1,

after which y_ij = gamma_hat_ij * lam^(-1/alpha_i). The left side is strictly
decreasing in lam (+inf at 0+, -> 0 at inf), so the root is unique.

Production solves go through one segmented Newton kernel on s = log lam,
which solves many root-finds at once: `allocate` passes every BS of an
association, and `subset_utilities` passes many (BS, user set) pairs for the
search baselines. A decimal digit search (the printed method) and a
bracketing bisection are kept as scalar references that the tests compare
the kernel against; nothing in production calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Allocation, Association, NetworkInstance, utility_vector


@dataclass(frozen=True)
class LambdaSearchConfig:
    initial_step: float = 1e3
    outer_iters: int = 12
    inner_iters: int = 10
    # Newton: tolerance on log(lam); bisection: relative bracket width.
    bisect_tol: float = 1e-10


class EmptyBSError(ValueError):
    """Raised when a multiplier is requested for a BS with no users."""


_DEFAULT = LambdaSearchConfig()


def _bs_terms(inst: NetworkInstance, assoc: Association, j: int) -> Tuple[List[float], List[float]]:
    """Python-float gains and exponents of BS j's users (hot-path friendly)."""
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


def _digit_search(gh: Sequence[float], inv_alpha: Sequence[float], cfg: LambdaSearchConfig) -> float:
    """Decimal digit search for the multiplier.

    Starts at lam = 0 with a coarse step; keeps adding the step while the
    load stays above 1, retracting and shrinking the step tenfold on each
    overshoot; after every inner sweep one extra step is probed. Every probe
    (the extra one included) is subject to the same retract-and-shrink rule,
    so lam never ends above the root; an unconditional trailing add would park
    lam one coarse step past the root with no way back down.
    """
    lam = 0.0
    step = float(cfg.initial_step)

    def probe() -> None:
        nonlocal lam, step
        lam += step
        if 1.0 > _load(gh, inv_alpha, lam):
            lam -= step
            step /= 10.0

    for _ in range(cfg.outer_iters):
        for _ in range(cfg.inner_iters):
            probe()
        probe()
    return lam


def _bisect(gh: Sequence[float], inv_alpha: Sequence[float], tol: float) -> float:
    """Bracket the root by doubling/halving from lam = 1, then bisect."""
    r0 = _load(gh, inv_alpha, 1.0) - 1.0
    if r0 == 0.0:
        return 1.0
    if r0 > 0.0:  # load too high -> root above 1
        lo, hi = 1.0, 2.0
        for _ in range(400):
            if _load(gh, inv_alpha, hi) - 1.0 <= 0.0:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise ArithmeticError("failed to bracket multiplier from above")
    else:
        lo, hi = 0.5, 1.0
        for _ in range(400):
            if _load(gh, inv_alpha, lo) - 1.0 >= 0.0:
                break
            lo, hi = lo * 0.5, lo
        else:
            raise ArithmeticError("failed to bracket multiplier from below")
    mid = 0.5 * (lo + hi)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * mid or mid == lo or mid == hi:
            break
        if _load(gh, inv_alpha, mid) - 1.0 >= 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def solve_lambda_digit(
    inst: NetworkInstance, assoc: Association, j: int, cfg: Optional[LambdaSearchConfig] = None
) -> float:
    """Digit-search multiplier for BS j. Raises EmptyBSError if j is empty."""
    cfg = cfg or _DEFAULT
    gh, ia = _bs_terms(inst, assoc, j)
    return _digit_search(gh, ia, cfg)


def solve_lambda_bisect(
    inst: NetworkInstance, assoc: Association, j: int, cfg: Optional[LambdaSearchConfig] = None
) -> float:
    """Bisection multiplier for BS j, |kkt_residual| <= ~1e-8 at return."""
    cfg = cfg or _DEFAULT
    gh, ia = _bs_terms(inst, assoc, j)
    return _bisect(gh, ia, cfg.bisect_tol)


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


def allocate(
    inst: NetworkInstance,
    assoc: Association,
    cfg: Optional[LambdaSearchConfig] = None,
    prev: Optional[Tuple[Association, Allocation]] = None,
) -> Allocation:
    """Optimal bandwidth fractions for every BS under a fixed association.

    One Newton kernel call solves every non-empty BS. Empty BSs get a NaN
    multiplier and a zero column. y_ij = gamma_hat_ij * lam_j^(-1/alpha_i)
    on associated pairs.

    prev is an (association, allocation) pair this function already returned
    for the same instance and cfg. If assoc equals prev's association, prev's
    Allocation object is returned as it is (the solve is deterministic, so a
    cold solve would give the same arrays); otherwise the split is solved.
    """
    if prev is not None and np.array_equal(prev[0].bs_of_user, assoc.bs_of_user):
        return prev[1]
    cfg = cfg or _DEFAULT
    I, J = inst.num_users, inst.num_bs
    bs = np.asarray(assoc.bs_of_user, dtype=int)
    if bs.shape[0] != I:
        raise ValueError("association length must match the instance")
    used, seg = np.unique(bs, return_inverse=True)  # used is sorted
    if used.size and (used[0] < 0 or used[-1] >= J):
        raise ValueError("association refers to a BS outside the instance")
    users = np.arange(I)
    lg = np.log(inst.gamma_hat[users, bs])
    ia = 1.0 / inst.alphas.alpha
    s = _newton(lg, ia, seg, used.size, cfg.bisect_tol)
    y = np.zeros((I, J))
    y[users, bs] = np.exp(lg - s[seg] * ia)
    lam = np.full(J, np.nan)
    lam[used] = np.exp(s)
    return Allocation(y=y, lam=lam)


def subset_utilities(
    inst: NetworkInstance,
    bs: np.ndarray,
    members: np.ndarray,
    cfg: Optional[LambdaSearchConfig] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal HAF contribution of many (BS, user set) pairs in one kernel call.

    Pair p serves the users where members[p] (shape (P, I), boolean) is true
    from BS bs[p]. Returns (utility, lam), each of shape (P,); empty sets
    contribute (0.0, nan). Utilities use the same rate floor as the global
    objective, so per-BS sums match haf_objective.
    """
    cfg = cfg or _DEFAULT
    bs = np.asarray(bs, dtype=int)
    members = np.asarray(members, dtype=bool)
    P = bs.shape[0]
    pair, users = np.nonzero(members)
    used, seg = np.unique(pair, return_inverse=True)
    js = bs[pair]
    lg = np.log(inst.gamma_hat[users, js])
    alpha = inst.alphas.alpha[users]
    ia = 1.0 / alpha
    s = _newton(lg, ia, seg, used.size, cfg.bisect_tol)
    rates = inst.gamma[users, js] * np.exp(lg - s[seg] * ia)
    util = np.zeros(P)
    util[used] = np.bincount(seg, weights=utility_vector(rates, alpha), minlength=used.size)
    lam = np.full(P, np.nan)
    lam[used] = np.exp(s)
    return util, lam


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
