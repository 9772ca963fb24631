"""Reference association policies the pricing method is compared against.

Three families:

* one-shot rules: uniform random association, max-SINR;
* pricing rules with alternative user scores f1(i, j) and price updates f2
  (proportional-fair, fixed-alpha fairness, delay-oriented). Each is a
  PricingRule run by the one pricing loop, `pricing.iterate`, so it shares the
  proposed method's price floor/ceiling, best-primal convention and trace.
  Its prepare step computes the instance's score table once (gamma^e,
  sqrt(gamma)) and fixes what the prices cannot change (the fixed-alpha
  rules' sign of e = (1-a)/a, an add or a subtract of the power term, since
  prices are positive); its pick is one argmax or argmin method call on the
  score table, and its direction keeps the current association's per-BS
  loads until the association changes;
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

On the same fixture the prices of ``af_high`` and ``min_latency`` stop
moving, bit for bit, after 2-3 iterations on every seed, so the loop ends
there (see `pricing.iterate`); ``pf``'s stop after a median of 230
iterations (35-500, all 500 on 31 seeds) and ``min_latency_argmin``'s after
2 on 51 seeds (all 500 on the other 49). ``af_low``'s, like the proposed
rule's, run all 500.

The paper's abstract does not settle whether these printed rules are the
comparators it meant. A load-balancing form is much stronger on the same
fixture: Ye et al.'s rule (IEEE TWC 2013), argmax_j log gamma_ij - mu_j with
mu_j <- mu_j - eta (exp(mu_j - 1) - K_j), reaches a mean HAF of 12.7 against
6.07 for the printed ``pf`` (the proposed method: 15.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import pricing, ra
from .core import Allocation, Association, NetworkInstance, haf_objective
from .pricing import Direction, Pick, PricingConfig, PricingRule, RunTrace, per_association
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

# Subsets or candidates per brute-force batch, and user sets per 2RS block
# (at most _BATCH // J users, J sets each); bounds their memory.
_BATCH = 4096

# Users in the first 2RS block of a scan and after each move: on 1000 adaptive
# timevary slots, 8 finds the move in one kernel call on 856 (one user: 162).
_FIRST_BLOCK = 8

# Search caps: brute force refuses more than _MAX_CANDIDATES associations,
# and full-mode 2RS stops after _MAX_PASSES passes.
_MAX_CANDIDATES = 1_000_000
_MAX_PASSES = 50


class InstanceTooLargeError(ValueError):
    """Raised when brute force would enumerate too many associations."""


def check_brute_force_size(num_users: int, num_bs: int) -> None:
    """Raise InstanceTooLargeError when num_bs ** num_users exceeds
    _MAX_CANDIDATES, before brute force or a config naming it runs."""
    n_cand = num_bs**num_users
    if n_cand > _MAX_CANDIDATES:
        raise InstanceTooLargeError(
            f"brute_force: {num_bs}^{num_users} = {n_cand} associations exceed the {_MAX_CANDIDATES} cap"
        )


def _finish(inst, bs, ra_cfg) -> Tuple[Association, Allocation]:
    assoc = Association(bs_of_user=np.asarray(bs, dtype=int))
    return assoc, ra.allocate(inst, assoc, ra_cfg)


def random_association(inst: NetworkInstance, seed: int) -> np.ndarray:
    """Uniform random BS per user, as an (I,) BS array. Deterministic given seed."""
    return np.random.default_rng(seed).integers(0, inst.num_bs, size=inst.num_users)


def max_sinr_association(inst: NetworkInstance) -> np.ndarray:
    """Every user's best channel, ties to the lowest BS index, as an (I,) BS array."""
    return np.argmax(inst.gamma, axis=1)


def run_random(inst: NetworkInstance, seed: int, ra_cfg=None) -> Tuple[Association, Allocation]:
    """The random association and its allocation."""
    return _finish(inst, random_association(inst, seed), ra_cfg)


def run_max_sinr(inst: NetworkInstance, ra_cfg=None) -> Tuple[Association, Allocation]:
    """The max-SINR association and its allocation."""
    return _finish(inst, max_sinr_association(inst), ra_cfg)


# ---------------------------------------------------------------- pricing ---


_LOG_MAX = math.log(np.finfo(float).max)


def _prepare_pf(inst: NetworkInstance) -> Tuple[Pick, Direction]:
    """Proportional fair: score mu_j gamma_ij, and the price moves by
    exp(mu_j - 1) minus BS j's user count."""
    gamma, J = inst.gamma, inst.num_bs
    counts = per_association(lambda bs: np.bincount(bs, minlength=J).astype(float))
    # exp(mu - 1) is capped at sqrt(float max / J) / e, so the J squared
    # components sum below the float max and the loop's norm of d stays finite
    cap = 0.5 * (_LOG_MAX - math.log(J)) - 1.0

    def pick(mu):
        return (gamma * mu).argmax(1)

    def direction(bs, mu):
        return np.exp(np.minimum(mu - 1.0, cap)) - counts(bs)

    return pick, direction


def _alpha_fair(a: float) -> PricingRule:
    """The printed fixed-alpha rule: score mu_j gamma_ij^e with e = (1-a)/a,
    and the price moves by sum_{i in I_j} gamma_ij^e minus the sign-preserving
    power sign(x) |x|^(1/(a-1)) of x = e mu_j."""
    e = (1.0 - a) / a
    # mu > 0, so x has e's sign, and |x| = |e| mu to the bit (rounding is
    # symmetric in sign): the power is added to the loads for e < 0 and
    # subtracted for e > 0. float_power rounds as the scalar pow does, which
    # `**` need not.
    scale, power = abs(e), 1.0 / (a - 1.0)
    combine = np.subtract if e > 0 else np.add

    def prepare(inst: NetworkInstance) -> Tuple[Pick, Direction]:
        G = inst.gamma ** e
        users, J = np.arange(inst.num_users), inst.num_bs
        sums = per_association(lambda bs: np.bincount(bs, weights=G[users, bs], minlength=J))

        def pick(mu):
            return (G * mu).argmax(1)

        def direction(bs, mu):
            return combine(sums(bs), np.float_power(scale * mu, power))

        return pick, direction

    return PricingRule(prepare=prepare)


def _min_latency(choose: Callable) -> PricingRule:
    """The delay-oriented rule: users take the choose (np.ndarray.argmax or
    argmin, called with the axis) of mu_j / sqrt(gamma_ij), and the price
    moves by mu_j / 2 plus the sum of 1 / sqrt(gamma_ij) over BS j's users."""

    def prepare(inst: NetworkInstance) -> Tuple[Pick, Direction]:
        root = np.sqrt(inst.gamma)
        inv_root = 1.0 / root
        users, J = np.arange(inst.num_users), inst.num_bs
        loads = per_association(lambda bs: np.bincount(bs, weights=inv_root[users, bs], minlength=J))

        def pick(mu):
            return choose(mu / root, 1)

        def direction(bs, mu):
            return 0.5 * mu + loads(bs)

        return pick, direction

    return PricingRule(prepare=prepare)


#: The pricing baselines by method name: each printed user score f1 and price
#: update f2 as a PricingRule. ``min_latency`` takes the printed argmax of its
#: score; ``min_latency_argmin`` is the same rule with argmin.
RULES: Dict[str, PricingRule] = {
    "pf": PricingRule(prepare=_prepare_pf),
    "af_low": _alpha_fair(0.6),
    "af_high": _alpha_fair(1.6),
    "min_latency": _min_latency(np.ndarray.argmax),
    "min_latency_argmin": _min_latency(np.ndarray.argmin),
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


def run_2rs(
    inst: NetworkInstance,
    start: Association,
    adaptive: bool = False,
    ra_cfg=None,
) -> Tuple[Association, Allocation]:
    """First-improvement local search over single-user reassignments.

    A move changes one user's BS (association matrices at Hamming distance 2).
    Users are tried in order, and the first user with an improving move
    moves to the lowest-indexed BS whose gain clears the rounding test. Each
    kernel call scores a block of consecutive users, J sets per user: the
    user's old BS without it and every other BS with it. The block starts at
    min(_FIRST_BLOCK, _BATCH // J) users (at least one) at the start of the
    scan and after each move, and doubles after each block with no move, up
    to _BATCH // J users; the first call also scores the start sets. The
    result is that of scoring one user at a time: a set's utility does not
    depend on the rest of its batch, and the users before the first move in
    a block are scored against the same sets as they would be alone.
    Each BS's log multiplier is kept beside its utility, so the returned
    allocation is assembled from the scored sets, not solved again; it
    equals ra.allocate of the returned association bit for bit.
    Full mode repeats passes until a complete pass finds no improving move
    or _MAX_PASSES is hit; adaptive mode applies exactly one improving move.
    A start whose shape is not (I,) or that names a BS outside [0, J)
    raises ValueError.
    """
    bs = np.array(start.bs_of_user, dtype=int)
    I, J = inst.num_users, inst.num_bs
    if bs.shape != (I,):
        raise ValueError(f"2RS start has shape {bs.shape}, not ({I},)")
    if I and (bs.min() < 0 or bs.max() >= J):
        raise ValueError(f"2RS start refers to a BS outside [0, {J})")
    all_bs = np.arange(J)
    sets = bs[None, :] == all_bs[:, None]  # sets[j, i]: BS j serves user i
    cap = max(1, _BATCH // max(J, 1))  # J is 0 only when I is 0
    first = min(_FIRST_BLOCK, cap)
    utils, block = None, first
    logs = np.full(J, np.nan)  # each set's log multiplier, beside utils

    for _ in range(_MAX_PASSES):
        improved = False
        i = 0
        while i < I:
            users = np.arange(i, min(i + block, I))
            k = np.arange(users.size)
            a = bs[users]
            # moved[k, a[k]]: BS a[k] without users[k]; moved[k, b]: BS b with it
            moved = np.repeat(sets[None], users.size, axis=0)
            moved[k, :, users] = True
            moved[k, a, users] = False
            if utils is None:  # the start sets ride in the first call
                moved = np.concatenate([sets[None], moved])
            u, s = ra.subset_solve(inst, np.tile(all_bs, len(moved)), moved.reshape(-1, I), ra_cfg)
            u, s = u.reshape(-1, J), s.reshape(-1, J)
            if utils is None:
                utils, u, logs, s = u[0], u[1:], s[0], s[1:]
            ua, ta = u[k, a][:, None], utils[a][:, None]
            delta = ua + u - ta - utils
            # a gain must clear the rounding of the four utilities it differences
            ok = delta > _GAIN_RTOL * (1.0 + abs(ua) + abs(u) + abs(ta) + abs(utils))
            ok[k, a] = False
            hits = np.flatnonzero(ok.any(axis=1))
            if not hits.size:
                i += users.size
                block = min(2 * block, cap)
                continue
            h = hits[0]  # the first user with an improving move
            user, old, b = users[h], a[h], int(np.argmax(ok[h]))  # b: the first improving target BS
            bs[user] = b
            sets[old, user], sets[b, user] = False, True
            utils[old], utils[b] = u[h, old], u[h, b]
            logs[old], logs[b] = s[h, old], s[h, b]
            if adaptive:
                return Association(bs_of_user=bs), ra.assemble(inst, bs, logs)
            improved = True
            i, block = user + 1, first
        if not improved:
            break
    return Association(bs_of_user=bs), ra.assemble(inst, bs, logs)


def run_ga(
    inst: NetworkInstance,
    params: Optional[GaParams] = None,
    seed: int = 0,
    ra_cfg=None,
) -> Tuple[Association, Allocation]:
    """Genetic search over association vectors; returns the best member of
    the final generation, which elitism makes the first best ever seen.

    Elitist: the top `parents` chromosomes survive unchanged, offspring come
    from uniform crossover of two distinct random parents plus per-gene
    mutation, the whole generation drawn in a few array calls. Fitness is
    memoized per chromosome; the elite keep theirs, and each generation
    solves its unseen children in one kernel batch.
    """
    params = params or GaParams()
    rng = np.random.default_rng(seed)
    I, J = inst.num_users, inst.num_bs
    if I == 0:  # the empty association is the only one; a row of no genes has no bytes key
        return _finish(inst, np.zeros(0, dtype=int), ra_cfg)
    k, n = params.parents, params.population - params.parents
    memo: Dict[bytes, float] = {}

    def fitness_of(rows):
        keys = rows.view((np.void, rows.dtype.itemsize * I)).ravel().tolist()  # one bytes key per row
        new = {key: row for key, row in zip(keys, rows) if key not in memo}
        if new:
            fresh = np.array(list(new.values()))
            members = (fresh[:, None, :] == np.arange(J)[None, :, None]).reshape(-1, I)
            util, _ = ra.subset_solve(inst, np.tile(np.arange(J), len(fresh)), members, ra_cfg)
            memo.update(zip(new, util.reshape(-1, J).sum(axis=1).tolist()))
        return np.array([memo[key] for key in keys])

    pop = rng.integers(0, J, size=(params.population, I))
    fitness = fitness_of(pop)
    for _ in range(params.max_generations):
        order = np.argsort(-fitness, kind="stable")[:k]
        elite = pop[order]
        pa = rng.integers(0, k, n)
        pb = (pa + rng.integers(1, k, n)) % k  # a second parent other than pa
        children = np.where(rng.random((n, I)) < 0.5, elite[pa], elite[pb])
        mut = rng.random((n, I)) < params.mutation_prob
        children[mut] = rng.integers(0, J, size=int(np.count_nonzero(mut)))
        pop = np.vstack([elite, children])
        fitness = np.concatenate([fitness[order], fitness_of(children)])
    return _finish(inst, pop[np.argmax(fitness)], ra_cfg)


def _subset_table(inst: NetworkInstance, ra_cfg=None) -> np.ndarray:
    """(J, 2^I) optimal utility of every user subset at every BS; bit i of
    the column index is user i. Solved in batches of subsets."""
    I, J = inst.num_users, inst.num_bs
    table = np.empty((J, 2**I))
    bit = 1 << np.arange(I)
    for lo in range(0, 2**I, _BATCH):
        subsets = np.arange(lo, min(lo + _BATCH, 2**I))
        members = (subsets[:, None] & bit) > 0
        util, _ = ra.subset_solve(inst, np.repeat(np.arange(J), subsets.size), np.tile(members, (J, 1)), ra_cfg)
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
    check_brute_force_size(I, J)
    n_cand = J**I
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
