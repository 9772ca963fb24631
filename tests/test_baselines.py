import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hafnet import ra
from hafnet.baselines import (
    RULES,
    GaParams,
    InstanceTooLargeError,
    brute_force,
    run_2rs,
    run_ga,
    run_max_sinr,
    run_pricing_baseline,
    run_random,
)
from hafnet.core import Association, haf_objective
from hafnet.metrics import report
from hafnet.pricing import PricingConfig, associate, solve
from hafnet.ra import allocate, subset_solve
from conftest import make_instance, random_instance


def _haf(inst, bs):
    """HAF of the BS array bs under its optimal allocation."""
    assoc = Association(bs)
    return haf_objective(inst, assoc, allocate(inst, assoc))


def test_run_random_single_bs():
    inst = make_instance([[1.0]] * 4, [0.5] * 4)
    bs = run_random(inst, 0)
    assert np.all(bs == 0)
    assert allocate(inst, Association(bs)).share.sum() == pytest.approx(1.0, abs=1e-6)


def test_run_random_deterministic_and_uniform():
    rng = np.random.default_rng(1)
    inst = random_instance(rng, 6000, 6)
    a1 = run_random(inst, 9)
    a2 = run_random(inst, 9)
    assert np.array_equal(a1, a2)
    shares = np.bincount(a1, minlength=6) / 6000
    assert np.all(np.abs(shares - 1 / 6) < 0.02)


def test_max_sinr_equals_uniform_price_association():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 25, 4)
    assert np.array_equal(run_max_sinr(inst), associate(inst, np.ones(4)).bs_of_user)


def test_max_sinr_rows_and_ties():
    inst = make_instance([[1.0, 5.0, 2.0], [3.0, 3.0, 3.0]], [0.5, 0.5])
    assert run_max_sinr(inst).tolist() == [1, 0]


def test_pf_first_association_is_max_sinr():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, 15, 3)
    _, _, trace = run_pricing_baseline(inst, "pf", PricingConfig(total_iters=1))
    expected = _haf(inst, run_max_sinr(inst))
    assert trace.primal[0] == pytest.approx(expected, rel=1e-12)


def test_pf_price_fixed_point_single_user():
    # |I_j| = 1: printed update is stationary at mu = 1 (e^{mu-1} = 1)
    inst = make_instance([[2.0]], [0.5])
    _, _, trace = run_pricing_baseline(inst, "pf", PricingConfig(total_iters=40, eta0=0.3))
    assert trace.mu_final[0] == pytest.approx(1.0, abs=1e-9)


def test_min_latency_argmax_as_printed_prefers_weak_link():
    # mu=(1,1), gamma=(4,1): f1 = mu/sqrt(gamma) = (0.5, 1) -> argmax picks BS 1
    inst = make_instance([[4.0, 1.0]], [0.5])
    assoc, _, _ = run_pricing_baseline(inst, "min_latency", PricingConfig(total_iters=1))
    assert assoc.bs_of_user[0] == 1


def test_min_latency_argmin_switch():
    inst = make_instance([[4.0, 1.0]], [0.5])
    assoc, _, _ = run_pricing_baseline(inst, "min_latency_argmin", PricingConfig(total_iters=1))
    assert assoc.bs_of_user[0] == 0


@pytest.mark.parametrize("name, a", [("af_low", 0.6), ("af_high", 1.6)])
def test_alpha_fair_direction_matches_the_printed_rule_per_bs(name, a):
    # the supply (e mu_j)^(1/(a-1)), sign kept, e = (1-a)/a, against the
    # scalar pow BS by BS; prices reach both clip bounds
    cfg = PricingConfig()
    e = (1.0 - a) / a
    rng = np.random.default_rng(21)
    for _ in range(20):
        I, J = int(rng.integers(1, 12)), int(rng.integers(2, 7))
        inst = random_instance(rng, I, J)
        assoc = Association(rng.integers(0, J, size=I))
        mu = np.exp(rng.uniform(np.log(cfg.mu_min), np.log(cfg.mu_max), size=J))
        mu[:2] = cfg.mu_min, cfg.mu_max
        with np.errstate(all="raise"):
            got = RULES[name](inst)[1](assoc.bs_of_user)(mu)
        gh = inst.gamma[np.arange(I), assoc.bs_of_user] ** e
        served = np.bincount(assoc.bs_of_user, weights=gh, minlength=J)
        for j in range(J):
            supply = math.copysign(abs(e * mu[j]) ** (1.0 / (a - 1.0)), e * mu[j])
            assert got[j].tobytes() == (-supply + served[j]).tobytes()


def test_pricing_baseline_traces_stay_finite():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, 20, 4)
    for name in ("pf", "af_low", "af_high", "min_latency"):
        _, _, trace = run_pricing_baseline(inst, name, PricingConfig(total_iters=300, eta0=0.5))
        assert np.all(np.isfinite(trace.primal))
        assert np.all(np.isfinite(trace.mu))
        assert np.all(trace.mu >= PricingConfig().mu_min)
        assert np.all(trace.mu <= PricingConfig().mu_max)


def test_final_prices_and_association_continue_the_run_exactly():
    # with a constant step, k iterations then k more warm-started from
    # mu_final replay one run of 2k iterations: the second run starts at
    # the association mu_final induces, which is assoc_final
    rng = np.random.default_rng(8)
    inst = random_instance(rng, 12, 3)
    cfg = PricingConfig(total_iters=20, eta0=0.2, eta_schedule="constant")
    half = PricingConfig(total_iters=10, eta0=0.2, eta_schedule="constant")
    runs = {"proposed": lambda c, **kw: solve(inst, c, **kw)}
    for name in ("pf", "af_low", "min_latency_argmin"):
        runs[name] = lambda c, name=name, **kw: run_pricing_baseline(inst, name, c, **kw)
    for name, run in runs.items():
        _, _, full = run(cfg)
        _, _, first = run(half)
        _, _, second = run(half, mu0=first.mu_final)
        assert np.array_equal(np.concatenate([first.primal, second.primal]), full.primal), name
        assert np.array_equal(np.concatenate([first.mu, second.mu]), full.mu), name
        assert np.array_equal(second.assoc_final.bs_of_user, full.assoc_final.bs_of_user), name
        assert np.all(full.grad_norm > 0), name


def test_2rs_keeps_global_optimum():
    inst = make_instance([[4.0, 1.0], [1.0, 4.0]], [0.5, 0.5])
    opt = np.array([0, 1])
    assert np.array_equal(run_2rs(inst, opt), opt)


def test_2rs_escapes_shared_bs_start():
    inst = make_instance([[4.0, 1.0], [1.0, 4.0]], [0.5, 0.5])
    bs = run_2rs(inst, np.array([0, 0]))
    assert bs.tolist() == [0, 1]
    assert _haf(inst, bs) == pytest.approx(8.0, rel=1e-9)


def test_2rs_never_decreases_haf():
    rng = np.random.default_rng(6)
    for _ in range(20):
        inst = random_instance(rng, int(rng.integers(3, 10)), int(rng.integers(2, 4)))
        n = inst.gamma.shape[0]
        start = rng.integers(0, inst.gamma.shape[1], size=n)
        h0 = _haf(inst, start)
        bs = run_2rs(inst, start)
        assert _haf(inst, bs) >= h0 - 1e-12


def test_2rs_adaptive_single_move():
    inst = make_instance([[4.0, 1.0], [1.0, 4.0], [2.0, 2.0]], [0.5, 0.5, 0.5])
    start = np.array([0, 0, 0])
    bs = run_2rs(inst, start, adaptive=True)
    assert np.sum(bs != start) == 1
    assert start.tolist() == [0, 0, 0]  # the search moves users in its own copy


def test_2rs_refuses_a_gain_made_of_rounding():
    # users 1 and 2 mirror each other across the two BSs and user 0 sees both
    # alike, so moving user 0 gains exactly nothing; the low-rate alpha=2.8
    # users put the BS utilities near -1e5, whose rounding exceeds 1e-12
    inst = make_instance([[1.0, 1.0], [1e-3, 1e-4], [1e-4, 1e-3]], [0.5, 2.8, 2.8])
    start = np.array([0, 0, 1])
    sets = np.array([[True, True, False], [False, False, True]])
    moved = np.array([[False, True, False], [True, False, True]])
    utils, _ = subset_solve(inst, np.array([0, 1]), sets)
    u, _ = subset_solve(inst, np.array([0, 1]), moved)
    assert u[0] == utils[1] and u[1] == utils[0]
    assert u[0] + u[1] - utils[0] - utils[1] > 1e-12  # the gain 2RS sums
    for adaptive in (True, False):
        assert np.array_equal(run_2rs(inst, start, adaptive=adaptive), start)


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize(
    "start",
    [[0, 1], [0, -1, 1], [0, 2, 1], [0.6, 1.4, 0.2], [0.0, 1.0, 1.0], [True, False, True]],
    ids=["short", "negative", "past_last_bs", "float", "integral_float", "bool"],
)
def test_2rs_rejects_a_bad_start_before_any_solve(start, adaptive, monkeypatch):
    # a float start was truncated to [0, 1, 0] and a bool one read as BSs 0 and 1
    inst = make_instance([[4.0, 1.0], [1.0, 4.0], [2.0, 2.0]], [0.5, 0.5, 0.5])
    calls = []
    monkeypatch.setattr(ra, "_newton", lambda *args: calls.append(1))
    with pytest.raises(ValueError, match="2RS start"):
        run_2rs(inst, np.array(start), adaptive=adaptive)
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 5), st.sampled_from([(0.1, 10.0), (1e-6, 1e3)]),
    st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
)
def test_2rs_allocation_equals_a_cold_allocate(I, J, gains, seed, adaptive, max_sinr_start):
    # 2RS returns its association only; the harness solves it in a stacked
    # call next to other rows, which must give ra.allocate's arrays bit for
    # bit, NaN at empty BSs included, whichever row it lands in
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, I, J, *gains)
    start = np.argmax(inst.gamma, axis=1) if max_sinr_start else rng.integers(0, J, size=I)
    with np.errstate(all="raise"):
        bs = run_2rs(inst, start, adaptive=adaptive)
        rows = np.stack([start, bs, start])
        share, s = ra.solve_stacked(inst.gamma_hat[np.arange(I), rows], inst.alphas.alpha, rows, J)
        cold = allocate(inst, Association(bs))
    assert np.array_equal(share[1], cold.share)
    assert np.array_equal(np.exp(s[1]), cold.lam, equal_nan=True)


def test_2rs_result_is_single_move_local_optimum():
    rng = np.random.default_rng(7)
    inst = random_instance(rng, 6, 3)
    bs = run_2rs(inst, rng.integers(0, 3, size=6))
    best = _haf(inst, bs)
    for i in range(6):
        for j in range(3):
            if j == bs[i]:
                continue
            cand = bs.copy()
            cand[i] = j
            assert _haf(inst, cand) <= best + 1e-9


def test_ga_zero_generations_is_best_of_population():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, 6, 3)
    params = GaParams(population=20, parents=5, max_generations=0)
    got = _haf(inst, run_ga(inst, params, 123))
    test_rng = np.random.default_rng(123)
    pop = test_rng.integers(0, 3, size=(20, 6))
    vals = [_haf(inst, row) for row in pop]
    assert got == pytest.approx(max(vals), rel=1e-12)


def test_ga_without_mutation_keeps_initial_genes_and_the_best_member():
    # crossover only copies genes position by position, and elitism never
    # loses the best member of the first population
    rng = np.random.default_rng(22)
    params = GaParams(population=6, parents=3, mutation_prob=0.0, max_generations=20)
    for seed in range(10):
        inst = random_instance(rng, 8, 3)
        bs = run_ga(inst, params, seed)
        pop = np.random.default_rng(seed).integers(0, 3, size=(params.population, 8))
        assert np.all((pop == bs).any(axis=0))
        best = max(_haf(inst, row) for row in pop)
        assert _haf(inst, bs) >= best - 1e-9 * abs(best)


def _reference_ga(inst, params, seed):
    """run_ga's draws with every chromosome scored cold, as the sum of one
    subset_solve call over its J sets; keeps the best by strict
    improvement."""
    rng = np.random.default_rng(seed)
    I, J = inst.num_users, inst.num_bs
    k, n = params.parents, params.population - params.parents
    pop = rng.integers(0, J, size=(params.population, I))
    best, best_fit = None, -np.inf
    for gen in range(params.max_generations + 1):
        if gen:
            elite = pop[sorted(range(len(pop)), key=lambda p: -fit[p])[:k]]
            pa = rng.integers(0, k, n)
            pb = (pa + rng.integers(1, k, n)) % k
            children = np.where(rng.random((n, I)) < 0.5, elite[pa], elite[pb])
            mut = rng.random((n, I)) < params.mutation_prob
            children[mut] = rng.integers(0, J, size=int(np.count_nonzero(mut)))
            pop = np.vstack([elite, children])
        fit = [subset_solve(inst, np.arange(J), row[None, :] == np.arange(J)[:, None])[0].sum() for row in pop]
        for row, f in zip(pop, fit):
            if f > best_fit:
                best, best_fit = row, f
    return best


@pytest.mark.parametrize("params", [
    GaParams(max_generations=6),
    GaParams(population=12, parents=4, mutation_prob=0.3, max_generations=15),
    GaParams(population=12, parents=4, mutation_prob=0.0, max_generations=15),
], ids=["default", "high_mutation", "no_mutation"])
def test_ga_matches_a_cold_reference_loop(params):
    rng = np.random.default_rng(23)
    for seed in range(20):
        inst = random_instance(rng, 7, 3)
        assert np.array_equal(run_ga(inst, params, seed), _reference_ga(inst, params, seed))


def test_ga_deterministic_per_seed():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, 8, 3)
    params = GaParams(population=12, parents=4, max_generations=10)
    assert np.array_equal(run_ga(inst, params, 7), run_ga(inst, params, 7))


def test_search_baselines_return_the_empty_association_with_no_users():
    inst = make_instance(np.ones((0, 3)), [])
    empty = np.zeros(0, dtype=int)
    bf, value = brute_force(inst)
    assert value == 0.0
    for bs in (run_2rs(inst, empty), run_ga(inst, GaParams(), 0), bf, run_max_sinr(inst), run_random(inst, 0)):
        assert bs.shape == (0,) and np.issubdtype(bs.dtype, np.integer)
        alloc = allocate(inst, Association(bs))
        assert alloc.share.shape == (0,)
        assert alloc.lam.shape == (3,)
        assert np.isnan(alloc.lam).all()
        assert set(report(inst, Association(bs), alloc).values()) == {0.0}


def test_ga_validates_params():
    inst = make_instance([[1.0]], [0.5])
    with pytest.raises(ValueError):
        run_ga(inst, GaParams(population=4, parents=6), 0)
    with pytest.raises(ValueError):
        run_ga(inst, GaParams(population=4, parents=1), 0)


def test_ga_matches_or_beats_2rs_usually():
    rng = np.random.default_rng(10)
    params = GaParams(population=60, parents=10, max_generations=40)
    wins = 0
    for k in range(100):
        inst = random_instance(rng, 5, 2)
        h_rs = _haf(inst, run_2rs(inst, rng.integers(0, 2, size=5)))
        h_ga = _haf(inst, run_ga(inst, params, k))
        wins += h_ga >= h_rs - 1e-9
    assert wins >= 90


def test_brute_force_single_user_picks_best_utility():
    inst = make_instance([[4.0, 9.0, 1.0]], [0.5])
    bs, val = brute_force(inst)
    assert bs.tolist() == [1]
    assert val == pytest.approx(2 * 9.0 ** 0.5, rel=1e-9)


def test_brute_force_two_by_two_diagonal():
    inst = make_instance([[4.0, 1.0], [1.0, 4.0]], [0.5, 0.5])
    bs, val = brute_force(inst)
    assert bs.tolist() == [0, 1]
    assert val == pytest.approx(8.0, rel=1e-9)


def test_brute_force_single_bs_value_is_the_haf_of_all_users_on_it():
    # J = 1 skips the subset table: its one candidate's value is the one set's utility
    rng = np.random.default_rng(13)
    for I in (1, 6, 40):
        inst = random_instance(rng, I, 1)
        bs, val = brute_force(inst)
        assert bs.tolist() == [0] * I
        assert val == pytest.approx(_haf(inst, bs), rel=1e-12)


def test_brute_force_guard():
    rng = np.random.default_rng(11)
    inst = random_instance(rng, 30, 4)  # 4^30 >> 1e6
    with pytest.raises(InstanceTooLargeError):
        brute_force(inst)


def test_brute_force_dominates_other_methods():
    rng = np.random.default_rng(12)
    for _ in range(10):
        inst = random_instance(rng, 5, 3)
        bs, best = brute_force(inst)
        assert best == pytest.approx(_haf(inst, bs), rel=1e-12)
        assert best >= _haf(inst, run_2rs(inst, rng.integers(0, 3, size=5))) - 1e-9
        assert best >= _haf(inst, run_max_sinr(inst)) - 1e-9
