import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hafnet import baselines
from hafnet.core import AlphaProfile, Association, GROUP_INTERVALS, NetworkInstance, haf_objective
from hafnet.experiments import _PRICING
from hafnet.pricing import (
    _DUAL_BLOCK,
    PricingConfig,
    PricingRule,
    associate,
    dual_value,
    price_gradient,
    solve,
    theorem1_check,
    theorem2_bound,
)
from hafnet.ra import allocate
from conftest import make_instance, random_instance


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


def test_dual_value_alpha_one_branch():
    # PF user: per-user term max_j(ln gamma - ln mu) - 1; constructed unvalidated
    gamma = np.array([[np.e]])
    prof = AlphaProfile(alpha=np.array([1.0]), group=np.array([1]))
    inst = NetworkInstance.from_gamma(gamma, prof, 20e6)
    # g = mu + (ln gamma - ln mu - 1); at mu=1, gamma=e: 1 + (1 - 0 - 1) = 1
    assert dual_value(inst, np.array([1.0])) == pytest.approx(1.0, rel=1e-12)
    # at mu=e: e + (1 - 1 - 1) = e - 1
    assert dual_value(inst, np.array([np.e])) == pytest.approx(np.e - 1.0, rel=1e-12)


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
    assert trace.weak_duality_ok()
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
    with pytest.raises(ValueError, match="NaN"):
        _run(name, inst, PricingConfig(total_iters=5), np.array([np.nan, 1.0, 1.0]))


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
    assert trace.weak_duality_ok()


def test_eta_schedules():
    cfg = PricingConfig(eta0=0.4, eta_schedule="diminishing")
    assert cfg.eta_at(1) == pytest.approx(0.4)
    assert cfg.eta_at(4) == pytest.approx(0.2)
    cfg2 = PricingConfig(eta0=0.4, eta_schedule="constant")
    assert cfg2.eta_at(9) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        PricingConfig(eta_schedule="warmup").eta_at(1)


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
    """The pricing loop with nothing reused: a cold allocate, objective and
    dual every iteration. Returns the best primal decision, the per-iteration
    primal, dual and prices, and the final prices."""
    J = inst.num_bs
    mu = np.full(J, float(cfg.mu_init)) if mu0 is None else np.asarray(mu0, dtype=float).copy()
    mu = np.clip(mu, cfg.mu_min, cfg.mu_max)
    assoc = rule.associate(inst, mu)
    primal, dual, mus = [], [], []
    best = None
    for t in range(1, cfg.total_iters + 1):
        alloc = allocate(inst, assoc)
        p = haf_objective(inst, assoc, alloc)
        primal.append(p)
        dual.append(_plain_dual(inst, mu))
        mus.append(mu)
        if best is None or p > best[2]:
            best = (assoc, alloc, p)
        mu = np.clip(mu - cfg.eta_at(t) * rule.direction(inst, assoc, mu), cfg.mu_min, cfg.mu_max)
        assoc = rule.associate(inst, mu)
    return best[0], best[1], np.array(primal), np.array(dual), np.array(mus), mu


def _run(name, inst, cfg, mu0=None):
    if name == "proposed":
        return solve(inst, cfg, mu0=mu0)
    return baselines.run_pricing_baseline(inst, name, cfg, mu0=mu0)


def _rule(name):
    return PricingRule(associate, price_gradient) if name == "proposed" else baselines.RULES[name]


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
    return cases


@pytest.mark.parametrize("name", list(_PRICING))
def test_reuse_matches_the_cold_loop_bit_for_bit(name):
    reused = 0
    for inst, cfg, mu0 in _exactness_cases():
        assoc, alloc, trace = _run(name, inst, cfg, mu0)
        r_assoc, r_alloc, primal, dual, mus, mu_final = _cold_loop(inst, _rule(name), cfg, mu0)
        assert np.array_equal(trace.primal, primal)
        assert np.array_equal(trace.dual, dual)
        assert np.array_equal(trace.mu, mus)
        assert np.array_equal(trace.mu_final, mu_final)
        assert np.array_equal(assoc.bs_of_user, r_assoc.bs_of_user)
        assert np.array_equal(alloc.y, r_alloc.y)
        assert np.array_equal(alloc.lam, r_alloc.lam, equal_nan=True)
        reused += int(np.count_nonzero(~trace.alloc_solved))
        assert trace.empirical_gap == float(np.min(dual)) - float(np.max(primal))
        if name == "proposed":
            mu_star = mus[int(np.argmin(dual))]
            a_star = associate(inst, mu_star)
            lam = allocate(inst, a_star).lam
            assert trace.theorem2_bound == theorem2_bound(inst, a_star, mu_star, lam)
        else:
            assert trace.theorem2_bound is None
    assert reused > 0  # the cases exercise the reuse path


@pytest.mark.parametrize("name", list(_PRICING))
def test_alloc_solved_counts_association_changes(name, monkeypatch):
    # the loop scores each allocation it solves once, with haf_objective;
    # a reused allocation keeps its score
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
        assert trace.alloc_solved.dtype == bool and trace.alloc_solved.shape == (60,)
        assert trace.alloc_solved[0]
        assert trace.alloc_solved.sum() == 1 + np.count_nonzero(trace.assoc_changes[1:])
        assert trace.alloc_solved.sum() == len(calls)


# -------------------------------------------------- dual property tests ---

_ALPHA_RANGES = tuple(GROUP_INTERVALS.values()) + ((1.0, 1.0), (0.999, 0.999), (1.001, 1.001))
_MU_MIN, _MU_MAX = PricingConfig().mu_min, PricingConfig().mu_max


def _edge_instance(I, J, rng):
    """An instance with alphas from every group interval plus 1.0 (built
    without validation), 0.999 and 1.001, and gammas log-uniform down to the
    1e-6 floor."""
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
