import numpy as np
import pytest

from hafnet.core import Association, utility_vector
from hafnet.ra import allocate, bs_optimal_utility
from conftest import make_instance, random_instance
from reference import EmptyBSError, kkt_residual, solve_lambda_brentq, solve_lambda_digit


def test_kkt_residual_zero_at_known_root():
    # single user, gamma=4, alpha=0.5: gamma_hat=4, root of 4*lam^-2 = 1 is lam=2
    inst = make_instance([[4.0]], [0.5])
    assoc = Association(np.array([0]))
    assert kkt_residual(inst, assoc, 0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert kkt_residual(inst, assoc, 0, 1.0) > 0  # load 4 above 1: lam below root
    assert kkt_residual(inst, assoc, 0, 10.0) < 0


def test_single_user_closed_form():
    # lam* = gamma^{1-alpha}
    for gamma, alpha in [(4.0, 0.5), (2.0, 2.0), (9.0, 3.0), (0.3, 0.8)]:
        inst = make_instance([[gamma]], [alpha])
        assoc = Association(np.array([0]))
        lam = solve_lambda_brentq(inst, assoc, 0)
        assert lam == pytest.approx(gamma ** (1.0 - alpha), rel=1e-9)
        alloc = allocate(inst, assoc)
        assert alloc.share[0] == pytest.approx(1.0, rel=1e-9)


def test_equal_alpha_closed_form():
    # all alpha equal: share_i = gamma_hat_i / sum(gamma_hat), lam = (sum gamma_hat)^alpha
    gamma = np.array([[4.0], [1.0], [2.25]])
    inst = make_instance(gamma, [0.5, 0.5, 0.5])
    assoc = Association(np.zeros(3, dtype=int))
    gh = inst.gamma_hat[:, 0]
    lam = solve_lambda_brentq(inst, assoc, 0)
    assert lam == pytest.approx(gh.sum() ** 0.5, rel=1e-9)
    alloc = allocate(inst, assoc)
    assert alloc.share == pytest.approx(gh / gh.sum(), rel=1e-9)


def test_near_pf_equal_gamma_splits_evenly():
    # alpha -> 1 with equal gamma: shares approach 1/n
    n = 5
    inst = make_instance(np.full((n, 1), 3.0), [0.999] * n)
    assoc = Association(np.zeros(n, dtype=int))
    alloc = allocate(inst, assoc)
    assert alloc.share == pytest.approx(np.full(n, 1.0 / n), rel=1e-3)


def test_digit_search_matches_brentq():
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        inst = random_instance(rng, n, 1)
        assoc = Association(np.zeros(n, dtype=int))
        lam_d = solve_lambda_digit(inst, assoc, 0)
        lam_r = solve_lambda_brentq(inst, assoc, 0)
        assert lam_d == pytest.approx(lam_r, rel=1e-5)


def test_allocate_feasibility_sweep():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_users = int(rng.integers(2, 20))
        n_bs = int(rng.integers(1, 5))
        inst = random_instance(rng, n_users, n_bs)
        assoc = Association(rng.integers(0, n_bs, size=n_users))
        alloc = allocate(inst, assoc)
        for j in range(n_bs):
            users = np.flatnonzero(assoc.bs_of_user == j)
            if users.size == 0:
                assert np.isnan(alloc.lam[j])
                continue
            assert alloc.share[users].sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(alloc.share[users] > 0)
            assert abs(kkt_residual(inst, assoc, j, alloc.lam[j])) <= 1e-8


def test_allocate_rejects_empty_bs_solvers():
    inst = make_instance([[1.0, 2.0]], [0.5])
    assoc = Association(np.array([1]))
    with pytest.raises(EmptyBSError):
        solve_lambda_brentq(inst, assoc, 0)
    with pytest.raises(EmptyBSError):
        solve_lambda_digit(inst, assoc, 0)


def test_allocate_validates_association():
    inst = make_instance([[1.0, 2.0]], [0.5])
    for bad in (-1, 2):
        with pytest.raises(ValueError, match="outside the instance"):
            allocate(inst, Association(np.array([bad])))
    with pytest.raises(ValueError):
        allocate(inst, Association(np.array([0, 1])))


def test_allocation_beats_random_splits():
    # exact KKT allocation dominates 1e4 random feasible splits per instance
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        inst = random_instance(rng, n, 1)
        assoc = Association(np.zeros(n, dtype=int))
        alloc = allocate(inst, assoc)
        best = utility_vector(alloc.share * inst.gamma[:, 0], inst.alphas.alpha).sum()
        w = rng.random((10_000, n))
        w /= w.sum(axis=1, keepdims=True)
        rates = w * inst.gamma[:, 0]
        vals = np.array([utility_vector(rates[k], inst.alphas.alpha).sum() for k in range(10_000)])
        assert np.all(vals <= best + 1e-9)


def test_bs_optimal_utility_matches_allocate():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, 6, 2)
    assoc = Association(np.array([0, 0, 0, 1, 1, 1]))
    alloc = allocate(inst, assoc)
    users0 = np.array([0, 1, 2])
    util, lam = bs_optimal_utility(inst, 0, users0)
    rates = alloc.share[users0] * inst.gamma[users0, 0]
    assert util == pytest.approx(utility_vector(rates, inst.alphas.alpha[users0]).sum(), rel=1e-9)
    assert lam == pytest.approx(alloc.lam[0], rel=1e-9)
    # empty set contributes zero utility
    util_e, lam_e = bs_optimal_utility(inst, 1, np.array([], dtype=int))
    assert util_e == 0.0 and np.isnan(lam_e)


def test_digit_search_config_reach():
    # a schedule reaches at most outer * (inner + 1) * initial_step
    inst = make_instance([[10.0]], [0.5])  # lam* = sqrt(10) approx 3.16
    assoc = Association(np.array([0]))
    lam = solve_lambda_digit(inst, assoc, 0, initial_step=1e3, outer_iters=12, inner_iters=10)
    assert lam == pytest.approx(10.0 ** 0.5, rel=1e-5)
    # two probes of 1.0 stay below the root, and nothing shrinks the step
    assert solve_lambda_digit(inst, assoc, 0, initial_step=1.0, outer_iters=1, inner_iters=1) == 2.0


def _same_allocation(a, b):
    return np.array_equal(a.share, b.share) and np.array_equal(a.lam, b.lam, equal_nan=True)


def test_allocate_reuses_prev_only_for_an_equal_association():
    rng = np.random.default_rng(31)
    inst = random_instance(rng, 9, 3)
    assoc = Association(np.array([0, 1, 2, 0, 1, 2, 0, 1, 2]))
    alloc = allocate(inst, assoc)
    # the same association object, or an equal one in a new object, returns
    # prev's allocation itself
    assert allocate(inst, assoc, prev=(assoc, alloc)) is alloc
    same = Association(assoc.bs_of_user.copy())
    assert allocate(inst, same, prev=(assoc, alloc)) is alloc
    # a different association is solved cold, bit for bit
    other = Association(assoc.bs_of_user.copy())
    other.bs_of_user[4] = (other.bs_of_user[4] + 1) % 3
    got = allocate(inst, other, prev=(assoc, alloc))
    assert got is not alloc
    assert _same_allocation(got, allocate(inst, other))
    # an association leaving a BS empty still gives that BS a NaN multiplier
    empty = Association(np.where(assoc.bs_of_user == 2, 0, assoc.bs_of_user))
    got = allocate(inst, empty, prev=(assoc, alloc))
    assert np.isnan(got.lam[2])
    assert _same_allocation(got, allocate(inst, empty))


def test_allocate_leaves_empty_bss_a_nan_multiplier():
    rng = np.random.default_rng(37)
    inst = random_instance(rng, 7, 5)
    assoc = Association(np.array([3, 1, 3, 3, 1, 1, 3]))
    alloc = allocate(inst, assoc)
    for j in (0, 2, 4):
        assert np.isnan(alloc.lam[j])
    for j in (1, 3):
        users = np.flatnonzero(assoc.bs_of_user == j)
        assert alloc.lam[j] == pytest.approx(solve_lambda_brentq(inst, assoc, j), rel=1e-9)
        assert alloc.share[users].sum() == pytest.approx(1.0, rel=1e-12)
