import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hafnet import baselines, pricing, ra
from hafnet.core import AlphaProfile, Association, GROUP_INTERVALS, NetworkInstance, haf_objective
from hafnet.experiments import _PRICING, _RULES, build_instance, low_fairness_config
from hafnet.pricing import (
    _DUAL_BLOCK,
    PROPOSED,
    PricingConfig,
    associate,
    dual_value,
    price_gradient,
    solve,
    theorem2_bound,
)
from hafnet.ra import allocate
from conftest import make_instance, random_instance
from reference import REFERENCE_RULES, theorem1_check, weak_duality_ok


def test_associate_picks_max_gamma_over_mu():
    inst = make_instance([[4.0, 1.0], [1.0, 4.0]], [0.5, 0.5])
    a = associate(inst, np.array([1.0, 1.0]))
    assert a.bs_of_user.tolist() == [0, 1]
    # raising BS 0's price flips user 0 once 4/mu0 < 1/1
    a2 = associate(inst, np.array([5.0, 1.0]))
    assert a2.bs_of_user.tolist() == [1, 1]


def test_associate_tie_goes_to_lowest_index():
    inst = make_instance([[2.0, 2.0]], [0.5])
    a = associate(inst, np.array([1.0, 1.0]))
    assert a.bs_of_user[0] == 0


def test_associate_rejects_nonpositive_prices():
    inst = make_instance([[1.0, 1.0]], [0.5])
    with pytest.raises(ValueError):
        associate(inst, np.array([1.0, 0.0]))
    # NaN is not positive either; the dual checks its prices the same way
    for mu in ([np.nan, 1.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="positive"):
            associate(inst, np.array(mu))
        with pytest.raises(ValueError, match="positive"):
            dual_value(inst, np.array(mu))


def test_price_gradient_is_one_minus_load():
    # single user gamma=4 alpha=0.5 on BS0 at mu=1: load = 4, gradient = -3
    inst = make_instance([[4.0, 1.0]], [0.5])
    assoc = Association(np.array([0]))
    g = price_gradient(inst, assoc, np.array([1.0, 1.0]))
    assert g[0] == pytest.approx(-3.0, rel=1e-12)
    assert g[1] == pytest.approx(1.0, rel=1e-12)  # empty BS: full step up


def _one_step(inst, mu0, eta):
    """Prices after one iteration of the loop from mu0 with step eta; the
    iteration evaluates the association mu0 induces."""
    cfg = PricingConfig(total_iters=1, eta0=eta, eta_schedule="constant")
    return solve(inst, cfg, mu0=np.array(mu0))[2].mu_final


def test_one_step_empty_bs_decays_and_floors():
    inst = make_instance([[4.0, 1.0]], [0.5])
    # at equal prices the user takes BS0 (4/1 > 1/1)
    mu = _one_step(inst, [1.0, 1.0], 0.1)
    # BS1 empty: mu' = 1 - 0.1*1 = 0.9
    assert mu[1] == pytest.approx(0.9, rel=1e-12)
    # BS0 overloaded: mu' = 1 - 0.1*(-3) = 1.3
    assert mu[0] == pytest.approx(1.3, rel=1e-12)
    # floor applies: BS0's price at the floor keeps the user there, and
    # the empty BS1 steps from 1 to 0, below the floor
    lo = _one_step(inst, [1e-8, 1.0], 1.0)
    assert lo[1] == PricingConfig().mu_min


def test_one_step_fixed_point_at_kkt_price():
    # single user gamma=4 alpha=0.5: load(mu)=4 mu^-2 equals 1 at mu=2
    inst = make_instance([[4.0]], [0.5])
    mu = _one_step(inst, [2.0], 0.5)
    assert mu[0] == pytest.approx(2.0, rel=1e-12)


def test_dual_value_single_link():
    # I=J=1, gamma=4, alpha=0.5: g(mu) = mu + (0.5/0.5)*4*mu^-1 = mu + 4/mu
    inst = make_instance([[4.0]], [0.5])
    for mu in (1.0, 2.0, 5.0):
        assert dual_value(inst, np.array([mu])) == pytest.approx(mu + 4.0 / mu, rel=1e-12)
    # minimized at mu=2 with value 4 = primal optimum u(4)=4
    assert dual_value(inst, np.array([2.0])) == pytest.approx(4.0, rel=1e-12)


def test_dual_dominates_primal_random_sweep():
    rng = np.random.default_rng(21)
    for _ in range(40):
        inst = random_instance(rng, int(rng.integers(2, 10)), int(rng.integers(1, 4)))
        n_bs = inst.gamma.shape[1]
        mu = rng.uniform(0.05, 20.0, size=n_bs)
        g = dual_value(inst, mu)
        for _ in range(10):
            assoc = Association(rng.integers(0, n_bs, size=inst.gamma.shape[0]))
            alloc = allocate(inst, assoc)
            p = haf_objective(inst, assoc, alloc)
            assert g >= p - 1e-6 * (1.0 + abs(g))


def test_solve_two_by_two_reaches_diagonal_optimum():
    inst = make_instance([[4.0, 1.0], [1.0, 4.0]], [0.5, 0.5])
    assoc, alloc, trace = solve(inst, PricingConfig(total_iters=50), None)
    assert assoc.bs_of_user.tolist() == [0, 1]
    assert trace.best_primal == pytest.approx(8.0, rel=1e-9)
    assert trace.best_primal_iter == 0  # uniform prices already split them


def test_solve_trace_shapes_and_weak_duality():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 12, 3)
    cfg = PricingConfig(total_iters=80)
    assoc, alloc, trace = solve(inst, cfg)
    assert len(trace) == 80
    assert trace.mu.shape == (80, 3)
    assert trace.primal.shape == (80,)
    assert weak_duality_ok(trace)
    assert trace.assoc_changes[0] == 0
    # returned pair is the best recorded primal
    assert haf_objective(inst, assoc, alloc) == pytest.approx(trace.best_primal, rel=1e-12)


def test_solve_first_iteration_is_max_sinr():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, 10, 3)
    _, _, trace = solve(inst, PricingConfig(total_iters=1))
    start = Association(np.argmax(inst.gamma, axis=1))
    expected = haf_objective(inst, start, allocate(inst, start))
    assert trace.primal[0] == pytest.approx(expected, rel=1e-12)


def test_solve_warm_start_resumes_from_given_prices():
    rng = np.random.default_rng(6)
    inst = random_instance(rng, 8, 2)
    mu0 = np.array([3.0, 0.7])
    _, _, trace = solve(inst, PricingConfig(total_iters=1), mu0=mu0)
    assert np.allclose(trace.mu[0], mu0)
    expected = Association(np.argmax(inst.gamma / mu0, axis=1))
    p = haf_objective(inst, expected, allocate(inst, expected))
    assert trace.primal[0] == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("name", ["proposed", *baselines.RULES])
def test_a_nan_start_price_is_rejected(name):
    inst = random_instance(np.random.default_rng(6), 8, 3)
    mu0 = np.array([np.nan, 1.0, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        _run(name, inst, PricingConfig(total_iters=5), mu0)
    with pytest.raises(ValueError, match="NaN"):
        pricing.walk(inst, _RULES[name], PricingConfig(total_iters=5), mu0)


def test_prices_that_become_nan_are_rejected():
    # NaN propagates through the step and the clip, so one check after the
    # loop catches a direction that turns a price into NaN at any iteration
    inst = random_instance(np.random.default_rng(6), 8, 3)
    calls = []

    def rule(inst):
        pick, bind = PROPOSED(inst)

        def bind_nan_once(bs):
            direction = bind(bs)

            def nan_once(mu):
                calls.append(1)
                d = direction(mu)
                return np.where(np.arange(d.size) == 1, np.nan, d) if len(calls) == 3 else d

            return nan_once

        return pick, bind_nan_once

    for run in (pricing.iterate, pricing.walk):
        calls.clear()
        with pytest.raises(ValueError, match="NaN"):
            run(inst, rule, PricingConfig(total_iters=5))
        assert len(calls) >= 3  # the NaN direction was reached


@pytest.mark.parametrize("length", [1, 4])
@pytest.mark.parametrize("name", list(_PRICING))
def test_a_start_price_of_the_wrong_length_is_rejected(name, length):
    # a length-1 start would otherwise broadcast into a uniform start
    inst = random_instance(np.random.default_rng(6), 8, 3)
    with pytest.raises(ValueError, match=rf"shape \({length},\), not \(3,\)"):
        _run(name, inst, PricingConfig(total_iters=5), np.ones(length))
    with pytest.raises(ValueError, match=rf"shape \({length},\), not \(3,\)"):
        pricing.walk(inst, _RULES[name], PricingConfig(total_iters=5), np.ones(length))


def test_out_of_range_start_prices_clip():
    inst = random_instance(np.random.default_rng(6), 8, 4)
    cfg = PricingConfig(total_iters=1)
    _, _, trace = solve(inst, cfg, mu0=np.array([-np.inf, -1.0, 0.0, np.inf]))
    assert trace.mu[0].tolist() == [cfg.mu_min, cfg.mu_min, cfg.mu_min, cfg.mu_max]


def test_certificate_bounds_empirical_gap():
    rng = np.random.default_rng(10)
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(3, 9)), int(rng.integers(2, 4)))
        _, _, trace = solve(inst, PricingConfig(total_iters=60))
        assert trace.empirical_gap <= trace.theorem2_bound + 1e-6
        assert trace.empirical_gap >= -1e-6 * (1.0 + abs(trace.best_dual))
        assert trace.theorem2_bound >= -1e-9


def test_theorem2_bound_zero_when_multipliers_match():
    # lambda_hat == lambda_star makes every term vanish
    inst = make_instance([[4.0, 1.0], [1.0, 4.0]], [0.5, 0.5])
    assoc = Association(np.array([0, 1]))
    alloc = allocate(inst, assoc)
    lam = alloc.lam
    assert theorem2_bound(inst, assoc, lam, lam) == pytest.approx(0.0, abs=1e-12)


def test_theorem2_bound_manual_value():
    # single user gamma=4 alpha=0.5 on BS0: terms
    #   sum_j (lam*_j - lam_hat_j) + (a/(1-a)) gh ((lam*)^e - (lam_hat)^e), e=(a-1)/a=-1
    inst = make_instance([[4.0]], [0.5])
    assoc = Association(np.array([0]))
    ls, lh = 3.0, 2.0
    expect = (ls - lh) + 1.0 * 4.0 * (1.0 / ls - 1.0 / lh)
    got = theorem2_bound(inst, assoc, np.array([ls]), np.array([lh]))
    assert got == pytest.approx(expect, rel=1e-12)


def test_theorem2_bound_empty_bs_uses_zero_multiplier():
    # empty BS contributes lam_star_j alone (lam_hat treated as 0)
    inst = make_instance([[4.0, 1.0]], [0.5])
    assoc = Association(np.array([0]))
    lam_hat = np.array([2.0, np.nan])
    b_with = theorem2_bound(inst, assoc, np.array([2.0, 7.0]), lam_hat)
    b_base = theorem2_bound(inst, assoc, np.array([2.0]), np.array([2.0]))
    assert b_with == pytest.approx(7.0, rel=1e-12)
    assert b_base == pytest.approx(0.0, abs=1e-12)


def test_theorem1_envelope_small_sweep():
    rng = np.random.default_rng(17)
    ok = 0
    for _ in range(15):
        inst = random_instance(rng, int(rng.integers(4, 12)), int(rng.integers(2, 4)))
        _, _, trace = solve(inst, PricingConfig(total_iters=150))
        ok += theorem1_check(inst, trace)
    assert ok == 15


def test_long_run_stays_finite():
    rng = np.random.default_rng(23)
    inst = random_instance(rng, 20, 4)
    _, _, trace = solve(inst, PricingConfig(total_iters=10_000))
    assert np.all(np.isfinite(trace.primal))
    assert np.all(np.isfinite(trace.dual))
    assert np.all(np.isfinite(trace.mu))
    assert np.all(trace.mu >= PricingConfig().mu_min)
    assert weak_duality_ok(trace)


def test_eta_schedules():
    cfg = PricingConfig(total_iters=9, eta0=0.4, eta_schedule="diminishing")
    assert cfg.step_sizes()[[0, 3]].tolist() == [0.4, 0.2]
    cfg2 = PricingConfig(total_iters=9, eta0=0.4, eta_schedule="constant")
    assert cfg2.step_sizes().tolist() == [0.4] * 9
    with pytest.raises(ValueError):
        PricingConfig(eta_schedule="warmup")


def _scalar_eta(cfg, t):
    """eta_t of the printed schedule, one Python float at a time."""
    return cfg.eta0 if cfg.eta_schedule == "constant" else cfg.eta0 / math.sqrt(t)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 10.0, exclude_min=True),
    st.integers(1, 5000),
    st.sampled_from(["diminishing", "constant"]),
)
def test_step_sizes_equal_the_scalar_schedule_bit_for_bit(eta0, total_iters, schedule):
    cfg = PricingConfig(total_iters=total_iters, eta0=eta0, eta_schedule=schedule)
    etas = cfg.step_sizes()
    assert etas.dtype == np.float64 and etas.shape == (total_iters,)
    assert etas.tobytes() == np.array([_scalar_eta(cfg, t) for t in range(1, total_iters + 1)]).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, exclude_min=True, allow_infinity=False),
    st.integers(1, 5000),
    st.sampled_from(["diminishing", "constant"]),
)
def test_step_sizes_never_increase(eta0, total_iters, schedule):
    # The loop's early end rests on this: a step that rounds back to the
    # prices leaves them in place at every smaller step too.
    etas = PricingConfig(total_iters=total_iters, eta0=eta0, eta_schedule=schedule).step_sizes()
    assert (etas[1:] <= etas[:-1]).all()


# ------------------------------------------------ exactness of the reuse ---


def _plain_dual(inst, mu):
    """g(mu) by the formula, with every constant recomputed per call."""
    a = inst.alphas.alpha
    total = float(np.sum(mu))
    pf = a == 1.0
    if np.any(pf):
        scores = np.log(inst.gamma[pf]) - np.log(mu)[None, :]
        total += float(np.sum(np.max(scores, axis=1) - 1.0))
    rest = ~pf
    if np.any(rest):
        ar = a[rest]
        expo = (ar - 1.0) / ar
        coef = ar / (1.0 - ar)
        terms = coef[:, None] * inst.gamma_hat[rest] * mu[None, :] ** expo[:, None]
        total += float(np.sum(np.max(terms, axis=1)))
    return total


def _cold_loop(inst, rule, cfg, mu0=None):
    """The pricing loop with nothing reused and no early end: a cold
    allocate, objective and dual in each of the T iterations, and a
    reference rule's per-call formulas. Returns the best primal decision and
    the run's trace, whose best-dual decision is solved cold and which has
    no theorem2_bound."""
    J = inst.num_bs
    mu = np.full(J, float(cfg.mu_init)) if mu0 is None else np.asarray(mu0, dtype=float).copy()
    mu = np.clip(mu, cfg.mu_min, cfg.mu_max)
    assoc = rule.associate(inst, mu)
    primal, dual, mus, changes, ids, norms = [], [], [], [], [], []
    ranks = {}
    moved = 0
    best = None
    for t in range(1, cfg.total_iters + 1):
        alloc = allocate(inst, assoc)
        p = haf_objective(inst, assoc, alloc)
        d = rule.direction(inst, assoc, mu)
        primal.append(p)
        dual.append(_plain_dual(inst, mu))
        mus.append(mu)
        changes.append(moved)
        ids.append(ranks.setdefault(assoc.bs_of_user.tobytes(), len(ranks)))
        norms.append(math.sqrt(d.dot(d)))
        if best is None or p > best[2]:
            best = (assoc, alloc, p)
        mu = np.clip(mu - _scalar_eta(cfg, t) * d, cfg.mu_min, cfg.mu_max)
        nxt = rule.associate(inst, mu)
        moved = int(np.count_nonzero(nxt.bs_of_user != assoc.bs_of_user))
        assoc = nxt
    a_star = rule.associate(inst, mus[int(np.argmin(dual))])
    trace = pricing.RunTrace(
        primal=np.array(primal),
        dual=np.array(dual),
        mu=np.array(mus),
        assoc_changes=np.array(changes),
        assoc_id=np.array(ids),
        grad_norm=np.array(norms),
        mu_final=mu,
        assoc_final=assoc,
        best_dual_decision=(a_star, allocate(inst, a_star)),
    )
    return best[0], best[1], trace


def _run(name, inst, cfg, mu0=None):
    if name == "proposed":
        return solve(inst, cfg, mu0=mu0)
    return baselines.run_pricing_baseline(inst, name, cfg, mu0=mu0)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_matches_the_cold_loop(name, inst, cfg, mu0, run):
    """Every field of run's trace, its returned decision, its best-dual
    decision and (for the proposed rule) its theorem2_bound equal the cold
    loop's bit for bit. Returns the cold loop's trace."""
    assoc, alloc, trace = run
    r_assoc, r_alloc, ref = _cold_loop(inst, REFERENCE_RULES[name], cfg, mu0)
    assert len(trace) == cfg.total_iters
    for field in ("primal", "dual", "mu", "assoc_changes", "assoc_id", "grad_norm", "mu_final"):
        _assert_same_bits(getattr(trace, field), getattr(ref, field))
    (d_assoc, d_alloc), (r_d_assoc, r_d_alloc) = trace.best_dual_decision, ref.best_dual_decision
    for got, want in ((assoc, r_assoc), (trace.assoc_final, ref.assoc_final), (d_assoc, r_d_assoc)):
        _assert_same_bits(got.bs_of_user, want.bs_of_user)
    for got, want in ((alloc, r_alloc), (d_alloc, r_d_alloc)):
        _assert_same_bits(got.share, want.share)
        _assert_same_bits(got.lam, want.lam)
    if name == "proposed":
        mu_star = ref.mu[ref.best_dual_iter]
        assert trace.theorem2_bound == theorem2_bound(inst, r_d_assoc, mu_star, r_d_alloc.lam)
    else:
        assert trace.theorem2_bound is None
    return ref


def _exactness_cases():
    rng = np.random.default_rng(41)
    cases = []
    for n_users, n_bs in ((12, 3), (25, 4)):
        inst = random_instance(rng, n_users, n_bs)
        cases.append((inst, PricingConfig(total_iters=80, eta0=0.5), None))
        # a warm start from prices away from the uniform init
        mu0 = rng.uniform(0.5, 3.0, size=n_bs)
        cases.append((inst, PricingConfig(total_iters=40, eta0=0.05, eta_schedule="constant"), mu0))
        # one iteration: the best dual iterate is that warm start
        cases.append((inst, PricingConfig(total_iters=1), mu0))
    # wide gains and a constant step: every rule returns to an association
    # it left more than one iteration before
    rng = np.random.default_rng(14)
    inst = random_instance(rng, 6, 3, 0.01, 100.0)
    mu0 = rng.uniform(0.3, 3.0, size=3)
    cases.append((inst, PricingConfig(total_iters=40, eta0=0.7, eta_schedule="constant"), mu0))
    return cases


def _revisits(trace):
    """Iterations that return to an association visited before, but not in
    the iteration just before."""
    ids = trace.assoc_id
    return int(np.count_nonzero((ids[1:] != ids[:-1]) & ~trace.alloc_solved[1:]))


@pytest.mark.parametrize("name", list(_PRICING))
def test_reuse_matches_the_cold_loop_bit_for_bit(name, monkeypatch):
    def checked(inst, assoc, cfg=None, prev=None):
        # a pair handed over holds the kernel's result for its association
        if prev is not None:
            cold = allocate(inst, prev[0], cfg)
            assert np.array_equal(prev[1].share, cold.share)
            assert np.array_equal(prev[1].lam, cold.lam, equal_nan=True)
        return allocate(inst, assoc, cfg, prev)

    monkeypatch.setattr("hafnet.ra.allocate", checked)
    revisits = 0
    for inst, cfg, mu0 in _exactness_cases():
        assoc, alloc, trace = _run(name, inst, cfg, mu0)
        ref = _assert_matches_the_cold_loop(name, inst, cfg, mu0, (assoc, alloc, trace))
        revisits += _revisits(trace)
        assert trace.empirical_gap == float(np.min(ref.dual)) - float(np.max(ref.primal))
    assert revisits > 0  # the cases take allocations from the table, not only from the last iteration


@pytest.mark.parametrize("name", list(_PRICING))
def test_alloc_solved_counts_association_changes(name, monkeypatch):
    # the loop scores each association once, at its first visit, with
    # haf_objective; a later visit keeps that score
    calls = []

    def counted(*args):
        calls.append(1)
        return haf_objective(*args)

    monkeypatch.setattr("hafnet.pricing.haf_objective", counted)
    rng = np.random.default_rng(43)
    for k in range(6):
        inst = random_instance(rng, int(rng.integers(5, 30)), int(rng.integers(2, 6)))
        mu0 = None if k % 2 == 0 else rng.uniform(0.5, 3.0, size=inst.num_bs)
        calls.clear()
        _, _, trace = _run(name, inst, PricingConfig(total_iters=60, eta0=0.5), mu0)
        # assoc_id ranks each iteration's association (the one its prices
        # induce) by first visit
        ranks = {}
        for t, mu in enumerate(trace.mu):
            key = REFERENCE_RULES[name].associate(inst, mu).bs_of_user.tobytes()
            assert trace.assoc_id[t] == ranks.setdefault(key, len(ranks))
        assert trace.alloc_solved.dtype == bool and trace.alloc_solved.shape == (60,)
        assert trace.alloc_solved[0]
        assert trace.alloc_solved.sum() == len(np.unique(trace.assoc_id)) == len(calls)


def _iterations_run(trace):
    """The iterations a run must execute: t + 1 for the first t whose next
    price row (mu_final after the last row) equals row t bit for bit, since
    every later iteration repeats that one, or T when no row repeats."""
    rows = np.vstack((trace.mu, trace.mu_final))
    for t in range(len(trace)):
        if rows[t + 1].tobytes() == rows[t].tobytes():
            return t + 1
    return len(trace)


def _run_counting_allocations(monkeypatch, name, inst, cfg, mu0=None):
    """_run with ra.allocate counted: the run and the loop's calls (the
    certificate's one call is not counted)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return allocate(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ra, "allocate", counted)
        run = _run(name, inst, cfg, mu0)
    return run, len(calls) - int(name == "proposed")


@pytest.mark.parametrize("name", list(_PRICING))
def test_each_association_is_solved_once_per_run(name, monkeypatch):
    # Newton runs once per distinct association, the certificate's included,
    # and ra.allocate is called once per iteration the loop runs (plus once
    # for the certificate): the loop ends at its first fixed point
    newton = []
    orig_newton = ra._newton

    def counted_newton(*args):
        newton.append(1)
        return orig_newton(*args)

    monkeypatch.setattr(ra, "_newton", counted_newton)
    rng = np.random.default_rng(47)
    for k in range(8):
        inst = random_instance(rng, int(rng.integers(3, 30)), int(rng.integers(2, 6)))
        mu0 = None if k % 2 == 0 else rng.uniform(0.3, 3.0, size=inst.num_bs)
        cfg = PricingConfig(total_iters=int(rng.integers(1, 80)), eta0=float(rng.uniform(0.05, 2.0)))
        newton.clear()
        (_, _, trace), calls = _run_counting_allocations(monkeypatch, name, inst, cfg, mu0)
        assert len(newton) == len(np.unique(trace.assoc_id))
        assert calls == _iterations_run(trace)


# ------------------------------------------------ the end at a fixed point ---


def _scenario_instance(seed):
    """A 40 x 6 instance of the experiment's low-fairness scenario."""
    return build_instance(low_fairness_config(), 0, seed)[0]


@pytest.mark.parametrize(
    "name, cfg, bound",
    [
        # both directions are positive at every price, so the prices fall to
        # mu_min and stay there
        ("af_high", PricingConfig(total_iters=40, eta0=0.5), "mu_min"),
        ("min_latency", PricingConfig(total_iters=40, eta0=0.5), "mu_min"),
        # below mu_max = 1e-3, af_low's power term outweighs every BS's load,
        # so the prices rise to mu_max and stay there
        ("af_low", PricingConfig(total_iters=40, eta0=0.5, mu_init=1e-6, mu_max=1e-3), "mu_max"),
    ],
)
def test_prices_held_at_a_bound_end_the_run_early(name, cfg, bound, monkeypatch):
    inst = _scenario_instance(0)
    run, calls = _run_counting_allocations(monkeypatch, name, inst, cfg)
    _assert_matches_the_cold_loop(name, inst, cfg, None, run)
    trace = run[2]
    assert (trace.mu_final == getattr(cfg, bound)).all()
    assert calls == _iterations_run(trace) < cfg.total_iters


@pytest.mark.parametrize("schedule", ["diminishing", "constant"])
@pytest.mark.parametrize("name", list(_PRICING))
def test_a_step_that_rounds_away_ends_the_run_at_once(name, schedule, monkeypatch):
    # eta0 = 1e-200 moves no price of a warm start inside [mu_min, mu_max] by
    # an ulp: rounding alone makes the first step a fixed point
    rng = np.random.default_rng(61)
    inst = random_instance(rng, 40, 6)
    mu0 = rng.uniform(0.5, 3.0, size=6)
    cfg = PricingConfig(total_iters=30, eta0=1e-200, eta_schedule=schedule)
    with np.errstate(all="raise"):
        run, calls = _run_counting_allocations(monkeypatch, name, inst, cfg, mu0)
        _assert_matches_the_cold_loop(name, inst, cfg, mu0, run)
    assert run[2].mu_final.tobytes() == mu0.tobytes()
    assert calls == 1


@pytest.mark.parametrize("name, seed, fixed_at", [("af_high", 0, 2), ("pf", 2, 39)])
def test_a_fixed_point_at_the_last_iteration_copies_no_row(name, seed, fixed_at, monkeypatch):
    # The fixed point comes at iteration fixed_at: a run one iteration
    # shorter never reaches it, a run that long reaches it at its last
    # iteration and copies no row, and a longer run copies the rest.
    inst = _scenario_instance(seed)
    for total_iters in (fixed_at - 1, fixed_at, fixed_at + 1, 2 * fixed_at):
        cfg = PricingConfig(total_iters=total_iters, eta0=0.5)
        run, calls = _run_counting_allocations(monkeypatch, name, inst, cfg)
        _assert_matches_the_cold_loop(name, inst, cfg, None, run)
        assert calls == _iterations_run(run[2]) == min(total_iters, fixed_at)


@st.composite
def _freezing_runs(draw):
    """An edge instance and a short run whose prices tend to stop: eta0
    down to 1e-200 and [mu_min, mu_max] as narrow as one price, cold or
    warm-started anywhere in it."""
    I = draw(st.integers(1, 10))
    J = draw(st.integers(1, 5))
    inst = _edge_instance(I, J, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    mu_min = 10.0 ** draw(st.floats(-8.0, 4.0))
    mu_max = mu_min * draw(st.sampled_from([1.0, 1.0 + 2.0**-50, 1.0 + 1e-9, 1.01, 10.0, 1e4]))
    cfg = PricingConfig(
        total_iters=draw(st.integers(1, 30)),
        eta0=10.0 ** draw(st.floats(-200.0, 0.0)),
        eta_schedule=draw(st.sampled_from(["diminishing", "constant"])),
        mu_min=mu_min,
        mu_max=mu_max,
    )
    price = st.floats(mu_min, mu_max)
    return inst, cfg, draw(st.none() | st.lists(price, min_size=J, max_size=J).map(np.array))


def _assert_walk_matches_the_cold_loop(name, inst, cfg, mu0, ref):
    """pricing.walk alone, with no solve, score or dual, against the cold
    loop's trace ref: the final prices and BS array bit for bit, and each
    row the walk ran. It stops where the cold loop's prices first repeat."""
    w = pricing.walk(inst, _RULES[name], cfg, mu0)
    _assert_same_bits(w.mu_final, ref.mu_final)
    _assert_same_bits(w.bs_final, ref.assoc_final.bs_of_user)
    n = _iterations_run(ref)
    assert len(w.mu) == len(w.rank) == len(w.changes) == len(w.dd) == n
    _assert_same_bits(np.array(w.mu), ref.mu[:n])
    _assert_same_bits(np.array(w.rank), ref.assoc_id[:n])
    _assert_same_bits(np.array(w.changes), ref.assoc_changes[:n])
    _assert_same_bits(np.sqrt(w.dd), ref.grad_norm[:n])
    firsts = np.unique(ref.assoc_id[:n], return_index=True)[1]
    assert len(w.visits) == firsts.size
    for bs, t in zip(w.visits, firsts):
        _assert_same_bits(bs, REFERENCE_RULES[name].associate(inst, ref.mu[t]).bs_of_user)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_PRICING)), _freezing_runs())
def test_the_early_end_matches_the_cold_loop_on_random_runs(name, case):
    inst, cfg, mu0 = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        run, calls = _run_counting_allocations(monkeypatch, name, inst, cfg, mu0)
    ref = _assert_matches_the_cold_loop(name, inst, cfg, mu0, run)
    assert calls == _iterations_run(run[2])
    _assert_walk_matches_the_cold_loop(name, inst, cfg, mu0, ref)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_PRICING)), st.data())
def test_iterate_matches_the_cold_loop_on_random_runs(name, data):
    inst, cfg, mu0 = data.draw(_short_runs())
    with np.errstate(all="raise"):
        ref = _assert_matches_the_cold_loop(name, inst, cfg, mu0, _run(name, inst, cfg, mu0))
        _assert_walk_matches_the_cold_loop(name, inst, cfg, mu0, ref)


def test_a_pick_that_returns_fresh_equal_arrays_keeps_one_association(monkeypatch):
    # The loop tests a change by the pick's bytes, not its array object: a
    # fresh array naming the same BSs moves no user, so one Association
    # object serves the whole run and the rule binds its direction once.
    # Caught mutation: a change test on the pick's identity.
    inst = random_instance(np.random.default_rng(59), 12, 3)
    start = np.argmax(inst.gamma, axis=1)
    bound = []

    def rule(inst):
        def bind(bs):
            bound.append(bs)
            loads = np.bincount(bs, minlength=inst.num_bs).astype(float)
            return lambda mu: mu - loads

        return (lambda mu: start.copy()), bind

    seen = []

    def recorded(inst, assoc, cfg=None, prev=None):
        seen.append(assoc)
        return allocate(inst, assoc, cfg, prev)

    monkeypatch.setattr(ra, "allocate", recorded)
    assoc, _, trace = pricing.iterate(inst, rule, PricingConfig(total_iters=50, eta0=0.5))
    assert len(np.unique(trace.mu, axis=0)) > 1  # the prices move
    assert not trace.assoc_changes.any()
    assert len(seen) == 50 and all(a is seen[0] for a in seen)
    assert assoc is seen[0] and trace.assoc_final is seen[0]
    assert len(bound) == 1 and np.array_equal(bound[0], start)


@pytest.mark.parametrize("name", list(_PRICING))
def test_a_run_binds_each_association_it_changes_to_once(name):
    # bind runs at the first iteration and at each iteration whose
    # association changed, on that association: a pick that changes at the
    # last step, into mu_final's association, is never bound. A cold and a
    # warm start between them change the association under every rule.
    # Caught mutations: a bind at every iteration, and a bind where the pick
    # changes (one too many when the last step changes it).
    inst = random_instance(np.random.default_rng(7), 12, 3)
    changed = 0
    for mu0 in (None, np.array([1e-3, 1.0, 1e3])):
        bound = []

        def counted(inst):
            pick, bind = _RULES[name](inst)

            def counted_bind(bs):
                bound.append(bs.copy())
                return bind(bs)

            return pick, counted_bind

        _, _, trace = pricing.iterate(inst, counted, PricingConfig(total_iters=60, eta0=0.5), mu0=mu0)
        rows = np.flatnonzero(trace.assoc_changes)
        assert len(bound) == 1 + rows.size
        for bs, t in zip(bound, [0, *rows]):
            assert np.array_equal(bs, REFERENCE_RULES[name].associate(inst, trace.mu[t]).bs_of_user)
        changed += rows.size
    assert changed


def test_table_keeps_no_dense_allocation_per_association(monkeypatch):
    # 40 iterations at 1000 x 60 with a large step visit about 40
    # associations; the table holds each one's (I,) shares, where dense
    # (I, J) allocations would take about 40 tables. The blocked dual after
    # the loop builds (rows, I, J) ratio tables of its own, so it is stubbed
    # out to measure the loop alone.
    inst = random_instance(np.random.default_rng(53), 1000, 60)
    cfg = PricingConfig(total_iters=40, eta0=50.0)
    monkeypatch.setattr(pricing, "dual_value", lambda inst, mu: np.zeros(mu.shape[0]))
    tracemalloc.start()
    try:
        _, _, trace = solve(inst, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(np.unique(trace.assoc_id)) >= 30  # the association keeps changing
    assert peak < 10 * inst.num_users * inst.num_bs * 8


# -------------------------------------------------- dual property tests ---

_ALPHA_RANGES = tuple(GROUP_INTERVALS.values()) + ((0.999, 0.999), (1.001, 1.001))
_MU_MIN, _MU_MAX = PricingConfig().mu_min, PricingConfig().mu_max


def _edge_instance(I, J, rng):
    """An instance with alphas from every group interval plus 0.999 and 1.001
    (built without validation), and gammas log-uniform down to the 1e-6
    floor."""
    gamma = 10.0 ** rng.uniform(-6.0, 2.0, size=(I, J))
    group = rng.integers(0, len(_ALPHA_RANGES), size=I)
    lo, hi = np.array(_ALPHA_RANGES).T
    alpha = lo[group] + rng.random(I) * (hi[group] - lo[group])
    return NetworkInstance.from_gamma(gamma, AlphaProfile(alpha=alpha, group=np.minimum(group, 3)))


def _prices(J):
    """J prices anywhere in [mu_min, mu_max], often at the ends."""
    price = st.one_of(
        st.sampled_from([_MU_MIN, _MU_MAX]),
        st.floats(np.log10(_MU_MIN), np.log10(_MU_MAX)).map(lambda e: 10.0**e),
    )
    return st.lists(price, min_size=J, max_size=J).map(np.array)


@st.composite
def _priced_instances(draw):
    """An edge instance and prices anywhere in [mu_min, mu_max]."""
    I = draw(st.integers(1, 10))
    J = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = _edge_instance(I, J, rng)
    return inst, draw(_prices(J)), rng


@settings(max_examples=200, deadline=None)
@given(_priced_instances())
def test_dual_equals_the_plain_formula(case):
    inst, mu, _ = case
    with np.errstate(all="raise"):
        assert dual_value(inst, mu) == _plain_dual(inst, mu)


@settings(max_examples=100, deadline=None)
@given(_priced_instances())
def test_dual_bounds_every_optimally_split_association(case):
    inst, mu, rng = case
    with np.errstate(all="raise"):
        g = dual_value(inst, mu)
        for _ in range(5):
            a = Association(rng.integers(0, inst.num_bs, size=inst.num_users))
            p = haf_objective(inst, a, allocate(inst, a))
            assert g >= p - 1e-6 * (1.0 + abs(g))


def _rule(name):
    return PROPOSED if name == "proposed" else baselines.RULES[name]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_PRICING)), _priced_instances(), st.data())
def test_prepared_rules_equal_the_reference_formulas(name, case, data):
    # One rule applied to inst binds associations A, B and A again (a fresh
    # array) before any direction is called; then at each of several prices
    # its pick and every bound direction must equal the per-call reference
    # bit for bit. B moves one user of A when J > 1, so a direction that
    # reads another bind's terms shows.
    # Caught mutations: terms shared by every bind of one rule (the last
    # bind wins), and a gather at another association than the one bound.
    inst, mu, rng = case
    I, J = inst.num_users, inst.num_bs
    a = rng.integers(0, J, size=I)
    b = a.copy()
    k = rng.integers(I)
    b[k] = (a[k] + 1) % J
    seq = [a, b, a.copy()]
    prices = [mu] + [data.draw(_prices(J)) for _ in seq]
    ref = REFERENCE_RULES[name]
    with np.errstate(all="raise"):
        pick, bind = _rule(name)(inst)
        directions = [bind(bs) for bs in seq]
        for m in prices:
            assert pick(m).tobytes() == ref.associate(inst, m).bs_of_user.tobytes()
            for bs, direction in zip(seq, directions):
                assert direction(m).tobytes() == ref.direction(inst, Association(bs), m).tobytes()


@st.composite
def _short_runs(draw):
    """An edge instance, a short pricing config and a start: None (cold) or
    warm-start prices anywhere in [mu_min, mu_max]."""
    I = draw(st.integers(1, 10))
    J = draw(st.integers(1, 5))
    inst = _edge_instance(I, J, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    cfg = PricingConfig(
        total_iters=draw(st.integers(1, 30)),
        eta0=draw(st.floats(1e-3, 2.0)),
        eta_schedule=draw(st.sampled_from(["diminishing", "constant"])),
    )
    return inst, cfg, draw(st.none() | _prices(J))


@settings(max_examples=100, deadline=None)
@given(_short_runs())
def test_certificate_bound_covers_the_empirical_gap(case):
    # The slack scales with both values the gap differences: one user at
    # gamma 1.5e-6 and alpha 2.96 has a primal near -1.4e11 and a dual near
    # -1.1e4, and its bound, equal to the gap in exact arithmetic, rounds
    # 2.4e-4 below it.
    inst, cfg, mu0 = case
    with np.errstate(all="raise"):
        _, _, trace = solve(inst, cfg, mu0=mu0)
    slack = 1e-9 * (1.0 + abs(trace.best_dual) + abs(trace.best_primal))
    assert trace.empirical_gap <= trace.theorem2_bound + slack


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(_PRICING)), _short_runs())
def test_certificate_reuses_the_best_dual_decision_bit_for_bit(name, case):
    # The kept decision is a cold ra.allocate of the best-dual iterate's
    # association, and the bound equals its cold-solve form, for cold and
    # warm starts; the one-iteration run has its best dual at iteration 0.
    # Caught mutation: the kept decision taken from the last iterate's entry
    # (assoc_id[-1]) instead of the best dual's.
    inst, cfg, mu0 = case
    for total_iters in (cfg.total_iters, 1):
        with np.errstate(all="raise"):
            _, _, trace = _run(name, inst, replace(cfg, total_iters=total_iters), mu0)
            mu_star = trace.mu[trace.best_dual_iter]
            assoc = REFERENCE_RULES[name].associate(inst, mu_star)
            cold = allocate(inst, assoc)
        kept_assoc, kept = trace.best_dual_decision
        assert np.array_equal(kept_assoc.bs_of_user, assoc.bs_of_user)
        assert np.array_equal(kept.share, cold.share)
        assert np.array_equal(kept.lam, cold.lam, equal_nan=True)
        if name == "proposed":
            assert trace.theorem2_bound == theorem2_bound(inst, assoc, mu_star, cold.lam)
        else:
            assert trace.theorem2_bound is None


@st.composite
def _tied_instances(draw):
    """An edge instance whose gains are floored to 1e-6 in several columns and
    whose row maxima repeat in several columns, with every price equal at
    mu_min, mu_init or mu_max, so ratios gamma_ij / mu_j tie exactly."""
    I = draw(st.integers(1, 10))
    J = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = _edge_instance(I, J, rng)
    gamma = np.where(rng.random((I, J)) < 0.4, 1e-6, inst.gamma)
    repeat = rng.random((I, J)) < 0.4
    gamma[repeat] = np.broadcast_to(gamma.max(axis=1, keepdims=True), (I, J))[repeat]
    price = draw(st.sampled_from([_MU_MIN, PricingConfig().mu_init, _MU_MAX]))
    return NetworkInstance.from_gamma(gamma, inst.alphas), np.full(J, price)


@settings(max_examples=200, deadline=None)
@given(_tied_instances())
def test_dual_equals_the_plain_formula_on_exact_ties(case):
    inst, mu = case
    with np.errstate(all="raise"):
        assert dual_value(inst, mu) == _plain_dual(inst, mu)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_PRICING)), _tied_instances(), st.data())
def test_prepared_rules_equal_the_reference_formulas_at_pinned_and_tied_prices(name, case, data):
    # Each rule's pick (one argmax or argmin method call on its score table)
    # and direction at prices all equal, where tied gains tie the scores and
    # the lowest index must win, and at each BS's price pinned to mu_min or
    # mu_max; the af_* directions fold the sign of e = (1-a)/a into an add or
    # a subtract, and the ends give their largest and smallest powers.
    # Caught mutation: the af_* fold with the add and the subtract swapped.
    inst, mu = case
    I, J = inst.num_users, inst.num_bs
    ends = data.draw(st.lists(st.sampled_from([_MU_MIN, _MU_MAX]), min_size=J, max_size=J).map(np.array))
    bs = np.array(data.draw(st.lists(st.integers(0, J - 1), min_size=I, max_size=I)), dtype=int)
    ref = REFERENCE_RULES[name]
    with np.errstate(all="raise"):
        pick, bind = _rule(name)(inst)
        direction = bind(bs)
        for m in (mu, ends):
            assert pick(m).tobytes() == ref.associate(inst, m).bs_of_user.tobytes()
            assert direction(m).tobytes() == ref.direction(inst, Association(bs), m).tobytes()


@pytest.mark.parametrize("name", list(_PRICING))
def test_prepared_picks_give_exact_ties_to_the_lowest_index(name):
    # every user's gain is the same at every BS, so at equal prices each
    # rule's score row is constant, and argmax and argmin alike pick BS 0
    inst = make_instance(np.repeat([[0.5], [2.0], [1e-6]], 4, axis=1), [0.5, 0.8, 2.0])
    pick, _ = _rule(name)(inst)
    for price in (_MU_MIN, PricingConfig().mu_init, _MU_MAX):
        assert pick(np.full(4, price)).tolist() == [0, 0, 0]


def test_dual_stays_within_a_few_ulps_of_the_plain_formula_on_near_ties():
    # gamma_i. = c_i mu makes a user's ratios gamma_ij / mu_j tie up to
    # rounding. The dual takes each user's term at the argmax of the rounded
    # ratios, the plain formula at the argmax of the rounded terms, so the two
    # may pick different columns whose terms differ in the last bits. The
    # scale sums the magnitudes of what each term is computed from: sum mu
    # plus, per user, the largest |term| (a product) or, at alpha 1, the
    # largest |ln gamma_ij| + |ln mu_j| + 1 (a difference, which cancels).
    # Over 200,000 such draws the gap never exceeded 4 ulps of the scale.
    rng = np.random.default_rng(53)
    differ = 0
    for _ in range(2000):
        I, J = int(rng.integers(1, 11)), int(rng.integers(1, 6))
        inst = _edge_instance(I, J, rng)
        mu = 10.0 ** rng.uniform(-3.0, 3.0, size=J)
        c = 10.0 ** rng.uniform(-3.0, 3.0, size=I)
        inst = NetworkInstance.from_gamma(c[:, None] * mu[None, :], inst.alphas)
        a = inst.alphas.alpha
        with np.errstate(all="raise"):
            g, plain = dual_value(inst, mu), _plain_dual(inst, mu)
            log_terms = np.abs(np.log(inst.gamma)) + np.abs(np.log(mu))[None, :] + 1.0
            safe = np.where(a == 1.0, 0.5, a)[:, None]
            power_terms = safe / (1.0 - safe) * inst.gamma_hat * mu[None, :] ** ((safe - 1.0) / safe)
        terms = np.where(a[:, None] == 1.0, log_terms, power_terms)
        scale = float(np.sum(mu) + np.sum(np.max(np.abs(terms), axis=1)))
        differ += g != plain
        assert abs(g - plain) <= 8 * np.spacing(scale)
    assert differ > 0  # the draws do reach near-ties


def _row_dual(inst, mu):
    """g at one contiguous price row as the loop evaluated it per iteration:
    each user's term at argmax_j gamma_ij / mu_j, summed as sum mu, then the
    alpha = 1 users, then the rest."""
    a = inst.alphas.alpha
    pf, rest = a == 1.0, a != 1.0
    js = np.argmax(inst.gamma / mu, axis=1)
    total = float(mu.sum())
    if np.any(pf):
        jp = js[pf]
        total += float((np.log(inst.gamma[pf])[np.arange(jp.size), jp] - np.log(mu)[jp] - 1.0).sum())
    ar, jr = a[rest], js[rest]
    coef_gh = (ar / (1.0 - ar))[:, None] * inst.gamma_hat[rest]
    return total + float((coef_gh[np.arange(jr.size), jr] * mu[jr] ** ((ar - 1.0) / ar)).sum())


@st.composite
def _price_tables(draw):
    """An edge instance and a (T, J) price table, T below, at and above the
    block size. Prices p_j are powers of two and gamma_ij = c_i p_j on about
    half the columns, so the rows p * 2^s tie ratios exactly between columns
    whose terms round differently; other rows sit all at mu_min, all at
    mu_max, or anywhere with ends mixed in. The table may be a strided view
    or Fortran-ordered."""
    I = draw(st.integers(1, 10))
    J = draw(st.integers(1, 5))
    T = draw(st.sampled_from([1, 2, _DUAL_BLOCK - 1, _DUAL_BLOCK, _DUAL_BLOCK + 1, 2 * _DUAL_BLOCK + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = _edge_instance(I, J, rng)
    p = 2.0 ** rng.integers(-26, 40, size=J)
    c = (inst.gamma / p).max(axis=1, keepdims=True)
    gamma = np.where(rng.random((I, J)) < 0.5, c * p, inst.gamma)
    inst = NetworkInstance.from_gamma(gamma, inst.alphas)
    anywhere = np.where(
        rng.random((T, J)) < 0.3,
        rng.choice([_MU_MIN, _MU_MAX], size=(T, J)),
        10.0 ** rng.uniform(np.log10(_MU_MIN), np.log10(_MU_MAX), size=(T, J)),
    )
    kind = rng.integers(0, 4, size=(T, 1))
    tied = p * 2.0 ** rng.integers(-3, 4, size=(T, 1))
    table = np.select([kind == 0, kind == 1, kind == 2], [tied, _MU_MIN, _MU_MAX], anywhere)
    layout = draw(st.sampled_from(["c", "strided", "fortran"]))
    if layout == "strided":
        table = np.repeat(table, 2, axis=0)[::2]
    elif layout == "fortran":
        table = np.asfortranarray(table)
    return inst, table


@settings(max_examples=200, deadline=None)
@given(_price_tables())
def test_dual_on_a_price_table_equals_the_row_by_row_dual(case):
    inst, table = case
    with np.errstate(all="raise"):
        got = dual_value(inst, table)
        per_row = np.array([_row_dual(inst, np.ascontiguousarray(row)) for row in table])
        one_row_calls = np.array([dual_value(inst, row) for row in table])
    assert got.shape == (table.shape[0],)
    assert got.tobytes() == per_row.tobytes()
    assert one_row_calls.tobytes() == per_row.tobytes()
