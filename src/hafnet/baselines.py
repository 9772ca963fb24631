"""Reference association policies the pricing method is compared against.

Three families:

* one-shot rules: uniform random association, max-SINR;
* pricing rules with alternative user scores f1(i, j) and price updates f2
  (proportional-fair, fixed-alpha fairness, delay-oriented). Each is a
  PricingRule run by the one pricing loop, `pricing.iterate`, so it shares the
  proposed method's price floor/ceiling, best-primal convention and trace;
* search: single-move local search (2RS), a genetic algorithm, and exhaustive
  enumeration for small instances.

Every baseline's allocation is re-solved optimally for the true per-user
fairness exponents, so methods differ only in the association they pick.

The pricing baselines follow their printed score and price rules literally,
and on the experiment scenario their best-primal iterate is almost always
the first one. On the low-fairness mix (100 seeds, eta0 = 0.5, master seed
0), which the group-dominance acceptance check compares against:

* ``pf`` returns the max-SINR association on 98/100 seeds, ``af_low`` on
  100/100;
* ``af_high`` and ``min_latency`` (the printed argmax) pick the same
  association on every seed: every user on its weakest BS on 90/100 seeds
  (the first iterate), all users on one BS on the other 10, for a mean HAF
  of -4.9e11.

The paper's abstract does not settle whether these printed rules are the
comparators it meant. A load-balancing form is much stronger on the same
fixture: Ye et al.'s rule (IEEE TWC 2013), argmax_j log gamma_ij - mu_j with
mu_j <- mu_j - eta (exp(mu_j - 1) - K_j), reaches a mean HAF of 12.7 against
6.07 for the printed ``pf`` (the proposed method: 15.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import pricing, ra
from .core import Allocation, Association, NetworkInstance, haf_objective
from .pricing import PricingConfig, PricingRule, RunTrace
from .pricing import dual_value  # unused here; perfbench's tracer test reads baselines.dual_value


@dataclass(frozen=True)
class GaParams:
    population: int = 60
    parents: int = 10
    mutation_prob: float = 0.01
    max_generations: int = 300

    def __post_init__(self) -> None:
        if not 2 <= self.parents <= self.population:
            raise ValueError(f"ga parents={self.parents} must lie in [2, population={self.population}]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"ga mutation_prob={self.mutation_prob} must lie in [0, 1]")
        if not self.max_generations >= 0:
            raise ValueError(f"ga max_generations={self.max_generations} must be >= 0")


# 2RS takes a move only when its gain exceeds this share of the utilities it
# differences: well above their rounding, far below any gain worth a move.
_GAIN_RTOL = 1e-12

# Subsets or candidates per brute-force batch; bounds its memory on the
# largest instances it accepts.
_BATCH = 4096

# Search caps: brute force refuses more than _MAX_CANDIDATES associations,
# and full-mode 2RS stops after _MAX_PASSES passes.
_MAX_CANDIDATES = 1_000_000
_MAX_PASSES = 50


class InstanceTooLargeError(ValueError):
    """Raised when brute force would enumerate too many associations."""


def _finish(inst, bs, ra_cfg) -> Tuple[Association, Allocation]:
    assoc = Association(bs_of_user=np.asarray(bs, dtype=int))
    return assoc, ra.allocate(inst, assoc, ra_cfg)


def run_random(inst: NetworkInstance, seed: int, ra_cfg=None) -> Tuple[Association, Allocation]:
    """Uniform random BS per user. Deterministic given seed."""
    rng = np.random.default_rng(seed)
    return _finish(inst, rng.integers(0, inst.num_bs, size=inst.num_users), ra_cfg)


def run_max_sinr(inst: NetworkInstance, ra_cfg=None) -> Tuple[Association, Allocation]:
    """Every user takes its best channel, ties to the lowest BS index."""
    return _finish(inst, np.argmax(inst.gamma, axis=1), ra_cfg)


# ---------------------------------------------------------------- pricing ---


def _signed_pow(x: float, p: float) -> float:
    # real sign-preserving power; matches the plain power at integer p
    if x == 0.0:
        return 0.0
    return math.copysign(abs(x) ** p, x)


def _rule(score: Callable, direction: Callable, pick: Callable = np.argmax) -> PricingRule:
    """The rule whose users take the pick (argmax or argmin) of their score row."""

    def associate(inst, mu):
        return Association(bs_of_user=pick(score(inst, mu), axis=1))

    return PricingRule(associate=associate, direction=direction)


def _pf_score(inst, mu):
    return mu[None, :] * inst.gamma


def _pf_direction(inst, assoc, mu):
    counts = np.bincount(np.asarray(assoc.bs_of_user, dtype=int), minlength=inst.num_bs)
    return np.exp(np.minimum(mu - 1.0, 709.0)) - counts.astype(float)


def _alpha_fair(a: float) -> PricingRule:
    """The printed fixed-alpha rule: score mu_j gamma_ij^e with e = (1-a)/a."""
    e = (1.0 - a) / a

    def score(inst, mu):
        return mu[None, :] * inst.gamma ** e

    def direction(inst, assoc, mu):
        js = np.asarray(assoc.bs_of_user, dtype=int)
        gh = inst.gamma[np.arange(inst.num_users), js] ** e
        sums = np.bincount(js, weights=gh, minlength=inst.num_bs)
        supply = np.array([_signed_pow(e * m, 1.0 / (a - 1.0)) for m in mu])
        return -supply + sums

    return _rule(score, direction)


def _latency_score(inst, mu):
    return mu[None, :] / np.sqrt(inst.gamma)


def _latency_direction(inst, assoc, mu):
    js = np.asarray(assoc.bs_of_user, dtype=int)
    inv_sqrt = 1.0 / np.sqrt(inst.gamma[np.arange(inst.num_users), js])
    return 0.5 * mu + np.bincount(js, weights=inv_sqrt, minlength=inst.num_bs)


#: The pricing baselines by method name: each printed user score f1 and price
#: update f2 as a PricingRule. ``min_latency`` takes the printed argmax of its
#: score; ``min_latency_argmin`` is the same rule with argmin.
RULES: Dict[str, PricingRule] = {
    "pf": _rule(_pf_score, _pf_direction),
    "af_low": _alpha_fair(0.6),
    "af_high": _alpha_fair(1.6),
    "min_latency": _rule(_latency_score, _latency_direction),
    "min_latency_argmin": _rule(_latency_score, _latency_direction, np.argmin),
}


def run_pricing_baseline(
    inst: NetworkInstance,
    name: str,
    cfg: Optional[PricingConfig] = None,
    ra_cfg=None,
    mu0: Optional[np.ndarray] = None,
) -> Tuple[Association, Allocation, RunTrace]:
    """The pricing loop with the named baseline's own scores and price update.

    The recorded dual values are the HAF dual bound at the baseline's prices
    (valid for any positive price vector); no gap certificate is attached
    because the bound construction is specific to the proposed update.
    """
    return pricing.iterate(inst, RULES[name], cfg, ra_cfg, mu0)


# ----------------------------------------------------------------- search ---


class _UtilityCache:
    """Memoizes the optimal per-BS utility of a user set, keyed by (BS, the
    set's membership row); each lookup batch solves its misses in one
    ra.subset_utilities call."""

    def __init__(self, inst: NetworkInstance, ra_cfg=None):
        self.inst = inst
        self.ra_cfg = ra_cfg
        self._memo: Dict[Tuple[int, bytes], float] = {}

    def utilities(self, bs: np.ndarray, members: np.ndarray) -> List[float]:
        """Utility of serving the users where members[p] is true from BS bs[p]."""
        keys = [(j, row.tobytes()) for j, row in zip(bs.tolist(), members)]
        misses: Dict[Tuple[int, bytes], int] = {}
        for p, key in enumerate(keys):
            if key not in self._memo:
                misses.setdefault(key, p)
        if misses:
            rows = list(misses.values())
            vals, _ = ra.subset_utilities(self.inst, bs[rows], members[rows], self.ra_cfg)
            self._memo.update(zip(misses, vals.tolist()))
        return [self._memo[key] for key in keys]


def run_2rs(
    inst: NetworkInstance,
    start: Association,
    adaptive: bool = False,
    ra_cfg=None,
) -> Tuple[Association, Allocation]:
    """First-improvement local search over single-user reassignments.

    A move changes one user's BS (association matrices at Hamming distance 2).
    Moves are tried user by user, target BS by target BS; one batch per user
    solves its old BS without it and every other BS with it. Full mode repeats
    passes until a complete pass finds no improving move or _MAX_PASSES is
    hit; adaptive mode applies exactly one improving move.
    """
    cache = _UtilityCache(inst, ra_cfg)
    bs = np.asarray(start.bs_of_user, dtype=int).copy()
    I, J = inst.num_users, inst.num_bs
    all_bs = np.arange(J)
    sets = bs[None, :] == all_bs[:, None]  # sets[j, i]: BS j serves user i
    utils = cache.utilities(all_bs, sets)

    for _ in range(_MAX_PASSES):
        improved = False
        for i in range(I):
            a = bs[i]
            moved = sets.copy()  # row a: a without i; row b != a: b with i
            moved[:, i] = True
            moved[a, i] = False
            u = cache.utilities(all_bs, moved)
            for b in range(J):
                if b == a:
                    continue
                delta = u[a] + u[b] - utils[a] - utils[b]
                # a gain must clear the rounding of the four utilities it
                # differences (the first test is the cheap necessary one)
                if delta > _GAIN_RTOL and delta > _GAIN_RTOL * (
                    1.0 + abs(u[a]) + abs(u[b]) + abs(utils[a]) + abs(utils[b])
                ):
                    bs[i] = b
                    sets[a, i], sets[b, i] = False, True
                    utils[a], utils[b] = u[a], u[b]
                    improved = True
                    if adaptive:
                        return _finish(inst, bs, ra_cfg)
                    break
        if not improved:
            break
    return _finish(inst, bs, ra_cfg)


def run_ga(
    inst: NetworkInstance,
    params: Optional[GaParams] = None,
    seed: int = 0,
    ra_cfg=None,
) -> Tuple[Association, Allocation]:
    """Genetic search over association vectors; returns the best ever seen.

    Elitist: the top `parents` chromosomes survive unchanged, offspring come
    from uniform crossover of two random parents plus per-gene mutation.
    Each generation's fitness is one utility-cache batch.
    """
    params = params or GaParams()
    rng = np.random.default_rng(seed)
    cache = _UtilityCache(inst, ra_cfg)
    I, J = inst.num_users, inst.num_bs
    all_bs = np.tile(np.arange(J), params.population)

    def fitness_of(pop):
        members = (pop[:, None, :] == np.arange(J)[None, :, None]).reshape(-1, I)
        return np.array(cache.utilities(all_bs, members)).reshape(-1, J).sum(axis=1)

    pop = rng.integers(0, J, size=(params.population, I))
    fitness = fitness_of(pop)
    best_idx = int(np.argmax(fitness))
    best_bs, best_fit = pop[best_idx].copy(), float(fitness[best_idx])

    for _ in range(params.max_generations):
        order = np.argsort(-fitness, kind="stable")
        elite = pop[order[: params.parents]]
        children = np.empty((params.population - params.parents, I), dtype=pop.dtype)
        for c in range(children.shape[0]):
            pa, pb = rng.choice(params.parents, size=2, replace=False)
            mask = rng.random(I) < 0.5
            child = np.where(mask, elite[pa], elite[pb])
            mut = rng.random(I) < params.mutation_prob
            if np.any(mut):
                child[mut] = rng.integers(0, J, size=int(np.count_nonzero(mut)))
            children[c] = child
        pop = np.vstack([elite, children])
        fitness = fitness_of(pop)
        gen_best = int(np.argmax(fitness))
        if float(fitness[gen_best]) > best_fit:
            best_fit = float(fitness[gen_best])
            best_bs = pop[gen_best].copy()

    return _finish(inst, best_bs, ra_cfg)


def _subset_table(inst: NetworkInstance, ra_cfg=None) -> np.ndarray:
    """(J, 2^I) optimal utility of every user subset at every BS; bit i of
    the column index is user i. Solved in batches of subsets."""
    I, J = inst.num_users, inst.num_bs
    table = np.empty((J, 2**I))
    bit = 1 << np.arange(I)
    for lo in range(0, 2**I, _BATCH):
        subsets = np.arange(lo, min(lo + _BATCH, 2**I))
        members = (subsets[:, None] & bit) > 0
        util, _ = ra.subset_utilities(inst, np.repeat(np.arange(J), subsets.size), np.tile(members, (J, 1)), ra_cfg)
        table[:, subsets] = util.reshape(J, subsets.size)
    return table


def brute_force(
    inst: NetworkInstance,
    ra_cfg=None,
) -> Tuple[Association, Allocation, float]:
    """Exhaustive search over all J^I associations (small instances only).

    Ties keep the first maximum in lexicographic enumeration order. Raises
    InstanceTooLargeError when J^I exceeds _MAX_CANDIDATES.
    """
    I, J = inst.num_users, inst.num_bs
    n_cand = J**I
    if n_cand > _MAX_CANDIDATES:
        raise InstanceTooLargeError(f"{J}^{I} = {n_cand} associations exceed the {_MAX_CANDIDATES} cap")
    if J == 1:
        assoc, alloc = _finish(inst, np.zeros(I, dtype=int), ra_cfg)
        return assoc, alloc, haf_objective(inst, assoc, alloc)

    # per-BS utility of every user subset, then the partition sums in
    # batches of candidates; candidate k's digits in base J, user 0 first,
    # give the lexicographic order
    table = _subset_table(inst, ra_cfg)
    bit = 1 << np.arange(I)
    place = J ** np.arange(I - 1, -1, -1)
    best_val = -np.inf
    best = None
    for lo in range(0, n_cand, _BATCH):
        cand = np.arange(lo, min(lo + _BATCH, n_cand))[:, None] // place % J
        val = np.zeros(cand.shape[0])
        for j in range(J):
            val += table[j, (cand == j) @ bit]
        k = int(np.argmax(val))
        if val[k] > best_val:
            best_val, best = val[k], cand[k]
    assoc, alloc = _finish(inst, np.array(best, dtype=int), ra_cfg)
    return assoc, alloc, float(best_val)
