"""Property tests for the batched Newton kernel and the search code on it.

The kernel is checked against the scalar brentq reference and against the
KKT equation; the batched search paths against per-pair loops kept here.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hafnet import baselines, ra
from hafnet.baselines import _subset_table, brute_force, run_2rs
from hafnet.core import AlphaProfile, Association, GROUP_INTERVALS, NetworkInstance
from hafnet.experiments import build_instance, low_fairness_config
from hafnet.ra import LambdaSearchConfig, allocate, bs_optimal_utility, subset_utilities
from conftest import random_instance
from reference import kkt_residual, solve_lambda_brentq

GAMMA_MIN = 1e-6  # the channel model's spectral-efficiency floor
ALPHA_RANGES = tuple(GROUP_INTERVALS.values()) + ((0.999, 0.999), (1.001, 1.001))
TOLS = (0.0, 1e-16, 1e-12, 1e-10)


@st.composite
def layouts(draw):
    """An instance and an association with 0-12 users per BS, at least one
    user; alphas from every group interval plus 0.999 and 1.001; gammas
    log-uniform down to the floor, some exactly at it."""
    J = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(0, 12), min_size=J, max_size=J).filter(any))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bs = rng.permutation(np.repeat(np.arange(J), counts))
    I = bs.size
    gamma = 10.0 ** rng.uniform(np.log10(GAMMA_MIN), 2.0, size=(I, J))
    gamma[rng.random((I, J)) < 0.1] = GAMMA_MIN
    group = rng.integers(0, len(ALPHA_RANGES), size=I)
    lo, hi = np.array(ALPHA_RANGES).T
    alpha = lo[group] + rng.random(I) * (hi[group] - lo[group])
    prof = AlphaProfile(alpha=alpha, group=np.minimum(group, 3))
    return NetworkInstance.from_gamma(gamma, prof), Association(bs)


@settings(max_examples=150, deadline=None)
@given(layouts(), st.sampled_from(TOLS))
def test_allocate_solves_every_bs(layout, tol):
    inst, assoc = layout
    with np.errstate(all="raise"):
        alloc = allocate(inst, assoc, LambdaSearchConfig(bisect_tol=tol))
    for j in range(inst.num_bs):
        users = np.flatnonzero(assoc.bs_of_user == j)
        if users.size == 0:
            assert np.isnan(alloc.lam[j]) and np.all(alloc.y[:, j] == 0.0)
            continue
        assert abs(alloc.y[users, j].sum() - 1.0) <= 1e-12
        assert abs(kkt_residual(inst, assoc, j, alloc.lam[j])) <= 1e-8
        lam_ref = solve_lambda_brentq(inst, assoc, j)
        assert alloc.lam[j] == pytest.approx(lam_ref, rel=1e-10)
    off = np.ones(alloc.y.shape, dtype=bool)
    off[np.arange(inst.num_users), assoc.bs_of_user] = False
    assert np.all(alloc.y[off] == 0.0)


@settings(max_examples=60, deadline=None)
@given(layouts(), st.sampled_from(TOLS), st.integers(0, 2**32 - 1))
def test_subset_utilities_equal_per_pair_calls(layout, tol, seed):
    inst, _ = layout
    cfg = LambdaSearchConfig(bisect_tol=tol)
    rng = np.random.default_rng(seed)
    P = int(rng.integers(1, 12))
    bs = rng.integers(0, inst.num_bs, size=P)
    members = rng.random((P, inst.num_users)) < rng.random((P, 1))
    with np.errstate(all="raise"):
        util, lam = subset_utilities(inst, bs, members, cfg)
    for p in range(P):
        u_ref, lam_ref = bs_optimal_utility(inst, int(bs[p]), np.flatnonzero(members[p]), cfg)
        assert util[p] == u_ref
        assert lam[p] == lam_ref or (np.isnan(lam[p]) and np.isnan(lam_ref))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 12), st.integers(1, 5), st.sampled_from(TOLS), st.integers(0, 2**32 - 1))
def test_solve_stacked_equals_one_association_solves(S, I, J, tol, seed):
    # S slots share the users' exponents; each slot has its own gains and an
    # association over its first 1..J BSs, so some BSs stay empty
    rng = np.random.default_rng(seed)
    group = rng.integers(0, len(ALPHA_RANGES), size=I)
    lo, hi = np.array(ALPHA_RANGES).T
    prof = AlphaProfile(alpha=lo[group] + rng.random(I) * (hi[group] - lo[group]), group=np.minimum(group, 3))
    insts, bs = [], np.empty((S, I), dtype=int)
    for p in range(S):
        gamma = 10.0 ** rng.uniform(np.log10(GAMMA_MIN), 2.0, size=(I, J))
        gamma[rng.random((I, J)) < 0.1] = GAMMA_MIN
        insts.append(NetworkInstance.from_gamma(gamma, prof))
        bs[p] = rng.integers(0, rng.integers(1, J + 1), size=I)
    cfg = LambdaSearchConfig(bisect_tol=tol)
    with np.errstate(all="raise"):
        y, s = ra.solve_stacked(np.stack([inst.gamma_hat for inst in insts]), prof.alpha, bs, cfg)
        for p, inst in enumerate(insts):
            alloc = allocate(inst, Association(bs[p]), cfg)
            assert np.array_equal(np.exp(s[p]), alloc.lam, equal_nan=True)
            assert y[p].tobytes() == alloc.y[np.arange(I), bs[p]].tobytes()


def _reference_table(inst):
    I, J = inst.num_users, inst.num_bs
    table = np.zeros((J, 2**I))
    for j in range(J):
        for mask in range(1, 2**I):
            users = np.array([i for i in range(I) if mask >> i & 1])
            table[j, mask], _ = bs_optimal_utility(inst, j, users)
    return table


def test_subset_table_spans_batches():
    inst = random_instance(np.random.default_rng(13), 13, 2)  # 2^13 subsets: two batches
    assert np.array_equal(_subset_table(inst), _reference_table(inst))


def _reference_brute_force(inst, table):
    best_val, best = -np.inf, None
    for cand in itertools.product(range(inst.num_bs), repeat=inst.num_users):
        val = 0.0
        for j in range(inst.num_bs):
            val += table[j, sum(1 << i for i, c in enumerate(cand) if c == j)]
        if val > best_val:
            best_val, best = val, cand
    return list(best), best_val


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_brute_force_matches_per_subset_loop(I, J, seed):
    inst = random_instance(np.random.default_rng(seed), I, J)
    table = _reference_table(inst)
    assert np.array_equal(_subset_table(inst), table)
    assoc, _, value = brute_force(inst)
    assert (assoc.bs_of_user.tolist(), value) == _reference_brute_force(inst, table)


@pytest.mark.parametrize("seed", range(4))
def test_brute_force_across_candidate_batches(seed):
    inst = random_instance(np.random.default_rng(seed), 9, 3)  # 3^9 candidates: five batches
    assoc, _, value = brute_force(inst)
    assert (assoc.bs_of_user.tolist(), value) == _reference_brute_force(inst, _reference_table(inst))


def _reference_2rs(inst, start, adaptive, max_passes=50):
    """2RS one set at a time: first improving (user, BS) move, as printed."""
    bs = start.copy()
    I, J = inst.num_users, inst.num_bs
    sets = [tuple(np.flatnonzero(bs == j).tolist()) for j in range(J)]

    def util(j, users):
        return bs_optimal_utility(inst, j, np.array(users, dtype=int))[0]

    utils = [util(j, sets[j]) for j in range(J)]
    for _ in range(max_passes):
        improved = False
        for i in range(I):
            a = bs[i]
            for b in range(J):
                if b == a:
                    continue
                minus = tuple(u for u in sets[a] if u != i)
                plus = tuple(sorted(sets[b] + (i,)))
                u_minus, u_plus = util(a, minus), util(b, plus)
                if u_minus + u_plus - utils[a] - utils[b] > 1e-12:
                    bs[i] = b
                    sets[a], sets[b] = minus, plus
                    utils[a], utils[b] = u_minus, u_plus
                    improved = True
                    if adaptive:
                        return bs
                    break
        if not improved:
            break
    return bs


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 14), st.integers(2, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_2rs_matches_per_move_reference(I, J, adaptive, seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, I, J)
    start = rng.integers(0, J, size=I)
    assoc, _ = run_2rs(inst, Association(start), adaptive=adaptive)
    assert assoc.bs_of_user.tolist() == _reference_2rs(inst, start, adaptive).tolist()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 20), st.integers(2, 4), st.integers(1, 16), st.booleans(), st.integers(0, 2**32 - 1))
def test_2rs_across_capped_blocks_matches_per_move_reference(I, J, batch, adaptive, seed):
    # a small _BATCH caps each block at max(1, _BATCH // J) users, so scans
    # span several blocks and reach the cap
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, I, J)
    start = rng.integers(0, J, size=I)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "_BATCH", batch)
        assoc, _ = run_2rs(inst, Association(start), adaptive=adaptive)
    assert assoc.bs_of_user.tolist() == _reference_2rs(inst, start, adaptive).tolist()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("adaptive", [False, True])
def test_2rs_matches_per_move_reference_at_40x6(seed, adaptive):
    inst, _, _ = build_instance(low_fairness_config(), 3, seed)  # the experiments' 40x6 shape
    start = np.argmax(inst.gamma, axis=1)
    assoc, _ = run_2rs(inst, Association(start), adaptive=adaptive)
    assert assoc.bs_of_user.tolist() == _reference_2rs(inst, start, adaptive).tolist()


@pytest.mark.parametrize(
    "I, batch, scans",
    [(I, 4096, math.ceil(math.log2(I + 1))) for I in (1, 2, 3, 7, 8, 40)]
    + [(40, 12, 12), (7, 2, 7)],  # caps of 4 users (1 + 2 + 10 * 4) and 1 user
)
def test_2rs_scan_doubles_its_block_up_to_the_cap(I, batch, scans, monkeypatch):
    # from a local optimum, adaptive 2RS scores blocks of 1, 2, 4, ... users,
    # at most _BATCH // J each, to find no move, and solves nothing more
    rng = np.random.default_rng(I)
    inst = random_instance(rng, I, 3)
    local_opt, _ = run_2rs(inst, Association(rng.integers(0, 3, size=I)))
    calls = []
    newton = ra._newton

    def counted_newton(*args):
        calls.append(1)
        return newton(*args)

    monkeypatch.setattr(ra, "_newton", counted_newton)
    monkeypatch.setattr(baselines, "_BATCH", batch)
    assoc, _ = run_2rs(inst, local_opt, adaptive=True)
    assert np.array_equal(assoc.bs_of_user, local_opt.bs_of_user)
    assert len(calls) == scans
