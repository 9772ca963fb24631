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
from hafnet.pricing import PricingConfig, associate, solve
from hafnet.ra import allocate, subset_solve
from conftest import make_instance, random_instance


def test_run_random_single_bs():
    inst = make_instance([[1.0]] * 4, [0.5] * 4)
    assoc, alloc = run_random(inst, 0)
    assert np.all(assoc.bs_of_user == 0)
    assert alloc.share.sum() == pytest.approx(1.0, abs=1e-6)


def test_run_random_deterministic_and_uniform():
    rng = np.random.default_rng(1)
    inst = random_instance(rng, 6000, 6)
    a1, _ = run_random(inst, 9)
    a2, _ = run_random(inst, 9)
    assert np.array_equal(a1.bs_of_user, a2.bs_of_user)
    shares = np.bincount(a1.bs_of_user, minlength=6) / 6000
    assert np.all(np.abs(shares - 1 / 6) < 0.02)


def test_max_sinr_equals_uniform_price_association():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 25, 4)
    a, _ = run_max_sinr(inst)
    b = associate(inst, np.ones(4))
    assert np.array_equal(a.bs_of_user, b.bs_of_user)


def test_max_sinr_rows_and_ties():
    inst = make_instance([[1.0, 5.0, 2.0], [3.0, 3.0, 3.0]], [0.5, 0.5])
    a, _ = run_max_sinr(inst)
    assert a.bs_of_user.tolist() == [1, 0]


def test_pf_first_association_is_max_sinr():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, 15, 3)
    _, _, trace = run_pricing_baseline(inst, "pf", PricingConfig(total_iters=1))
    ms, _ = run_max_sinr(inst)
    expected = haf_objective(inst, ms, allocate(inst, ms))
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
            got = RULES[name].prepare(inst)[1](assoc.bs_of_user, mu)
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
    opt = Association(np.array([0, 1]))
    assoc, _ = run_2rs(inst, opt)
    assert np.array_equal(assoc.bs_of_user, opt.bs_of_user)


def test_2rs_escapes_shared_bs_start():
    inst = make_instance([[4.0, 1.0], [1.0, 4.0]], [0.5, 0.5])
    start = Association(np.array([0, 0]))
    assoc, alloc = run_2rs(inst, start)
    assert assoc.bs_of_user.tolist() == [0, 1]
    assert haf_objective(inst, assoc, alloc) == pytest.approx(8.0, rel=1e-9)


def test_2rs_never_decreases_haf():
    rng = np.random.default_rng(6)
    for _ in range(20):
        inst = random_instance(rng, int(rng.integers(3, 10)), int(rng.integers(2, 4)))
        n = inst.gamma.shape[0]
        start = Association(rng.integers(0, inst.gamma.shape[1], size=n))
        h0 = haf_objective(inst, start, allocate(inst, start))
        assoc, alloc = run_2rs(inst, start)
        assert haf_objective(inst, assoc, alloc) >= h0 - 1e-12


def test_2rs_adaptive_single_move():
    inst = make_instance([[4.0, 1.0], [1.0, 4.0], [2.0, 2.0]], [0.5, 0.5, 0.5])
    start = Association(np.array([0, 0, 0]))
    assoc, _ = run_2rs(inst, start, adaptive=True)
    moved = np.sum(assoc.bs_of_user != start.bs_of_user)
    assert moved == 1


def test_2rs_refuses_a_gain_made_of_rounding():
    # users 1 and 2 mirror each other across the two BSs and user 0 sees both
    # alike, so moving user 0 gains exactly nothing; the low-rate alpha=2.8
    # users put the BS utilities near -1e5, whose rounding exceeds 1e-12
    inst = make_instance([[1.0, 1.0], [1e-3, 1e-4], [1e-4, 1e-3]], [0.5, 2.8, 2.8])
    start = Association(np.array([0, 0, 1]))
    sets = np.array([[True, True, False], [False, False, True]])
    moved = np.array([[False, True, False], [True, False, True]])
    utils, _ = subset_solve(inst, np.array([0, 1]), sets)
    u, _ = subset_solve(inst, np.array([0, 1]), moved)
    assert u[0] == utils[1] and u[1] == utils[0]
    assert u[0] + u[1] - utils[0] - utils[1] > 1e-12  # the gain 2RS sums
    for adaptive in (True, False):
        assoc, _ = run_2rs(inst, start, adaptive=adaptive)
        assert np.array_equal(assoc.bs_of_user, start.bs_of_user)


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("start", [[0, 1], [0, -1, 1], [0, 2, 1]], ids=["short", "negative", "past_last_bs"])
def test_2rs_rejects_a_bad_start_before_any_solve(start, adaptive, monkeypatch):
    inst = make_instance([[4.0, 1.0], [1.0, 4.0], [2.0, 2.0]], [0.5, 0.5, 0.5])
    calls = []
    monkeypatch.setattr(ra, "_newton", lambda *args: calls.append(1))
    with pytest.raises(ValueError, match="2RS start"):
        run_2rs(inst, Association(np.array(start)), adaptive=adaptive)
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 5), st.sampled_from([(0.1, 10.0), (1e-6, 1e3)]),
    st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
)
def test_2rs_allocation_equals_a_cold_allocate(I, J, gains, seed, adaptive, max_sinr_start):
    # 2RS assembles its allocation from the log multipliers it scored; they
    # must give ra.allocate's arrays bit for bit, NaN at empty BSs included.
    # Caught mutation: assembling from log(lam) = log(exp(s)) instead of s.
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, I, J, *gains)
    start = np.argmax(inst.gamma, axis=1) if max_sinr_start else rng.integers(0, J, size=I)
    with np.errstate(all="raise"):
        assoc, alloc = run_2rs(inst, Association(start), adaptive=adaptive)
        cold = allocate(inst, assoc)
    assert np.array_equal(alloc.share, cold.share)
    assert np.array_equal(alloc.lam, cold.lam, equal_nan=True)


def test_2rs_result_is_single_move_local_optimum():
    rng = np.random.default_rng(7)
    inst = random_instance(rng, 6, 3)
    start = Association(rng.integers(0, 3, size=6))
    assoc, alloc = run_2rs(inst, start)
    best = haf_objective(inst, assoc, alloc)
    for i in range(6):
        for j in range(3):
            if j == assoc.bs_of_user[i]:
                continue
            cand = assoc.bs_of_user.copy()
            cand[i] = j
            ca = Association(cand)
            val = haf_objective(inst, ca, allocate(inst, ca))
            assert val <= best + 1e-9


def test_ga_zero_generations_is_best_of_population():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, 6, 3)
    params = GaParams(population=20, parents=5, max_generations=0)
    assoc, alloc = run_ga(inst, params, 123)
    got = haf_objective(inst, assoc, alloc)
    test_rng = np.random.default_rng(123)
    pop = test_rng.integers(0, 3, size=(20, 6))
    vals = [haf_objective(inst, Association(row), allocate(inst, Association(row))) for row in pop]
    assert got == pytest.approx(max(vals), rel=1e-12)


def test_ga_without_mutation_keeps_initial_genes_and_the_best_member():
    # crossover only copies genes position by position, and elitism never
    # loses the best member of the first population
    rng = np.random.default_rng(22)
    params = GaParams(population=6, parents=3, mutation_prob=0.0, max_generations=20)
    for seed in range(10):
        inst = random_instance(rng, 8, 3)
        assoc, alloc = run_ga(inst, params, seed)
        pop = np.random.default_rng(seed).integers(0, 3, size=(params.population, 8))
        assert np.all((pop == assoc.bs_of_user).any(axis=0))
        best = max(haf_objective(inst, Association(row), allocate(inst, Association(row))) for row in pop)
        assert haf_objective(inst, assoc, alloc) >= best - 1e-9 * abs(best)


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
        assoc, _ = run_ga(inst, params, seed)
        assert np.array_equal(assoc.bs_of_user, _reference_ga(inst, params, seed))


def test_ga_deterministic_per_seed():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, 8, 3)
    params = GaParams(population=12, parents=4, max_generations=10)
    a1, _ = run_ga(inst, params, 7)
    a2, _ = run_ga(inst, params, 7)
    assert np.array_equal(a1.bs_of_user, a2.bs_of_user)


def test_search_baselines_return_the_empty_association_with_no_users():
    inst = make_instance(np.ones((0, 3)), [])
    empty = Association(np.zeros(0, dtype=int))
    for assoc, alloc in (run_2rs(inst, empty), run_ga(inst, GaParams(), 0)):
        assert assoc.bs_of_user.shape == (0,)
        assert alloc.share.shape == (0,)
        assert alloc.lam.shape == (3,)
        assert np.isnan(alloc.lam).all()


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
        start = Association(rng.integers(0, 2, size=5))
        a_rs, l_rs = run_2rs(inst, start)
        a_ga, l_ga = run_ga(inst, params, k)
        h_rs = haf_objective(inst, a_rs, l_rs)
        h_ga = haf_objective(inst, a_ga, l_ga)
        wins += h_ga >= h_rs - 1e-9
    assert wins >= 90


def test_brute_force_single_user_picks_best_utility():
    inst = make_instance([[4.0, 9.0, 1.0]], [0.5])
    assoc, alloc, val = brute_force(inst)
    assert assoc.bs_of_user[0] == 1
    assert val == pytest.approx(2 * 9.0 ** 0.5, rel=1e-9)


def test_brute_force_two_by_two_diagonal():
    inst = make_instance([[4.0, 1.0], [1.0, 4.0]], [0.5, 0.5])
    assoc, alloc, val = brute_force(inst)
    assert assoc.bs_of_user.tolist() == [0, 1]
    assert val == pytest.approx(8.0, rel=1e-9)


def test_brute_force_guard():
    rng = np.random.default_rng(11)
    inst = random_instance(rng, 30, 4)  # 4^30 >> 1e6
    with pytest.raises(InstanceTooLargeError):
        brute_force(inst)


def test_brute_force_dominates_other_methods():
    rng = np.random.default_rng(12)
    for _ in range(10):
        inst = random_instance(rng, 5, 3)
        _, _, best = brute_force(inst)
        start = Association(rng.integers(0, 3, size=5))
        a, l = run_2rs(inst, start)
        assert best >= haf_objective(inst, a, l) - 1e-9
        a, l = run_max_sinr(inst)
        assert best >= haf_objective(inst, a, l) - 1e-9
