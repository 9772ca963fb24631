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
from hafnet.ra import LambdaSearchConfig, allocate, bs_optimal_utility, subset_solve
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
            assert np.isnan(alloc.lam[j])
            continue
        assert abs(alloc.share[users].sum() - 1.0) <= 1e-12
        assert abs(kkt_residual(inst, assoc, j, alloc.lam[j])) <= 1e-8
        lam_ref = solve_lambda_brentq(inst, assoc, j)
        assert alloc.lam[j] == pytest.approx(lam_ref, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(layouts(), st.sampled_from(TOLS), st.integers(0, 2**32 - 1))
def test_subset_solve_equals_per_pair_calls(layout, tol, seed):
    inst, _ = layout
    cfg = LambdaSearchConfig(bisect_tol=tol)
    rng = np.random.default_rng(seed)
    P = int(rng.integers(1, 12))
    bs = rng.integers(0, inst.num_bs, size=P)
    members = rng.random((P, inst.num_users)) < rng.random((P, 1))
    with np.errstate(all="raise"):
        util, s = subset_solve(inst, bs, members, cfg)
        lam = np.exp(s)
    for p in range(P):
        u_ref, lam_ref = bs_optimal_utility(inst, int(bs[p]), np.flatnonzero(members[p]), cfg)
        assert util[p] == u_ref
        assert lam[p] == lam_ref or (np.isnan(lam[p]) and np.isnan(lam_ref))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 12), st.integers(1, 5), st.sampled_from(TOLS), st.integers(0, 2**32 - 1))
def test_solve_stacked_equals_one_association_solves(S, I, J, tol, seed):
    # S slots share the users' exponents; each slot has its own gains,
    # gathered at the links of an association over its first 1..J BSs, so
    # some BSs stay empty
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
        gains = np.stack([inst.gamma_hat[np.arange(I), bs[p]] for p, inst in enumerate(insts)])
        share, s = ra.solve_stacked(gains, prof.alpha, bs, J, cfg)
        for p, inst in enumerate(insts):
            alloc = allocate(inst, Association(bs[p]), cfg)
            assert np.array_equal(np.exp(s[p]), alloc.lam, equal_nan=True)
            assert share[p].tobytes() == alloc.share.tobytes()


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
    bs, value = brute_force(inst)
    assert (bs.tolist(), value) == _reference_brute_force(inst, table)


@pytest.mark.parametrize("seed", range(4))
def test_brute_force_across_candidate_batches(seed):
    inst = random_instance(np.random.default_rng(seed), 9, 3)  # 3^9 candidates: five batches
    bs, value = brute_force(inst)
    assert (bs.tolist(), value) == _reference_brute_force(inst, _reference_table(inst))


def _reference_2rs(inst, start, adaptive, max_passes=50, passes=None):
    """2RS one set at a time: first improving (user, BS) move, as printed.
    A `passes` list receives each pass's moved users, in order."""
    bs = start.copy()
    I, J = inst.num_users, inst.num_bs
    sets = [tuple(np.flatnonzero(bs == j).tolist()) for j in range(J)]

    def util(j, users):
        return bs_optimal_utility(inst, j, np.array(users, dtype=int))[0]

    utils = [util(j, sets[j]) for j in range(J)]
    for _ in range(max_passes):
        improved = False
        moved = []
        if passes is not None:
            passes.append(moved)
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
                    moved.append(i)
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
    assert run_2rs(inst, start, adaptive=adaptive).tolist() == _reference_2rs(inst, start, adaptive).tolist()


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
        bs = run_2rs(inst, start, adaptive=adaptive)
    assert bs.tolist() == _reference_2rs(inst, start, adaptive).tolist()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("adaptive", [False, True])
def test_2rs_matches_per_move_reference_at_40x6(seed, adaptive):
    inst, _, _ = build_instance(low_fairness_config(), 3, seed)  # the experiments' 40x6 shape
    start = np.argmax(inst.gamma, axis=1)
    assert run_2rs(inst, start, adaptive=adaptive).tolist() == _reference_2rs(inst, start, adaptive).tolist()


def _counting_newton(monkeypatch):
    """Patch ra._newton to record its calls; returns the list of calls."""
    calls = []
    newton = ra._newton

    def counted_newton(*args):
        calls.append(1)
        return newton(*args)

    monkeypatch.setattr(ra, "_newton", counted_newton)
    return calls


# Newton calls of the scan from a local optimum at the default first block
# of 8 users: one block covers I <= 8; I = 40 takes blocks of 8, 16 and 16;
# a 4-user cap takes ten blocks of 4, a 1-user cap one block per user.
_SCANS_FROM_EIGHT = {(1, 4096): 1, (2, 4096): 1, (3, 4096): 1, (7, 4096): 1, (8, 4096): 1,
                     (40, 4096): 3, (40, 12): 10, (7, 2): 7}


@pytest.mark.parametrize(
    "I, batch, scans",
    [(I, 4096, math.ceil(math.log2(I + 1))) for I in (1, 2, 3, 7, 8, 40)]
    + [(40, 12, 12), (7, 2, 7)],  # caps of 4 users (1 + 2 + 10 * 4) and 1 user
)
def test_2rs_scan_doubles_its_block_up_to_the_cap(I, batch, scans, monkeypatch):
    # from a local optimum, adaptive 2RS scores blocks that double from the
    # first block, at most _BATCH // J users each, to find no move, and
    # solves nothing more; `scans` counts the blocks of 1, 2, 4, ... users
    # that a scan starting at one user (_FIRST_BLOCK = 1) takes
    rng = np.random.default_rng(I)
    inst = random_instance(rng, I, 3)
    local_opt = run_2rs(inst, rng.integers(0, 3, size=I))
    calls = _counting_newton(monkeypatch)
    monkeypatch.setattr(baselines, "_BATCH", batch)
    for first, expected in ((baselines._FIRST_BLOCK, _SCANS_FROM_EIGHT[I, batch]), (1, scans)):
        calls.clear()
        monkeypatch.setattr(baselines, "_FIRST_BLOCK", first)
        assert np.array_equal(run_2rs(inst, local_opt, adaptive=True), local_opt)
        assert len(calls) == expected


def _scan_calls(passes, I, J, adaptive):
    """Kernel calls of the 2RS block schedule, from the module's constants,
    over the reference's passes: the first block is min(_FIRST_BLOCK, cap)
    users, at the start and after each move, and each block with no move
    doubles the next, up to the cap of _BATCH // J users."""
    cap = max(1, baselines._BATCH // J)
    first = min(baselines._FIRST_BLOCK, cap)
    block, calls = first, 0
    for moved in passes:
        i = 0
        for user in moved:
            calls += 1
            while user >= i + block:
                i, block, calls = i + block, min(2 * block, cap), calls + 1
            if adaptive:
                return calls
            i, block = user + 1, first
        while i < I:
            i, block, calls = i + block, min(2 * block, cap), calls + 1
    return calls


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 20), st.integers(2, 4), st.one_of(st.just(4096), st.integers(1, 40)),
    st.sampled_from(["random", "one_user_moved", "local_optimum"]), st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_2rs_scan_makes_the_calls_its_schedule_needs(I, J, batch, start_kind, adaptive, seed):
    # 2RS makes one Newton call per block its schedule needs to reach each
    # of the reference's moves and to finish the last pass (adaptive mode:
    # to reach its one move, or to finish a scan with none); a small _BATCH
    # clamps the first block to the cap
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, I, J)
    start = rng.integers(0, J, size=I)
    if start_kind != "random":
        start = run_2rs(inst, start)
    if start_kind == "one_user_moved":
        user = rng.integers(I)
        start[user] = (start[user] + rng.integers(1, J)) % J
    passes = []
    expected = _reference_2rs(inst, start, adaptive, passes=passes)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_newton(mp)
        mp.setattr(baselines, "_BATCH", batch)
        bs = run_2rs(inst, start, adaptive=adaptive)
        needed = _scan_calls(passes, I, J, adaptive)
    assert bs.tolist() == expected.tolist()
    assert len(calls) == needed
