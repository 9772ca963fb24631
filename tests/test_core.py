import math

import numpy as np
import pytest

from hafnet.core import (
    AlphaProfile,
    Allocation,
    Association,
    RATE_FLOOR,
    haf_objective,
    rates_of,
    utility_vector,
)
from conftest import make_instance, make_profile
from reference import alpha_utility


def test_alpha_utility_power_branch():
    # r^{1-a}/(1-a): a=0.5, r=4 -> 4^0.5/0.5 = 4
    assert alpha_utility(4.0, 0.5) == pytest.approx(4.0, rel=1e-12)
    # a=2, r=2 -> 2^{-1}/(-1) = -0.5
    assert alpha_utility(2.0, 2.0) == pytest.approx(-0.5, rel=1e-12)


def test_alpha_utility_log_branch():
    assert alpha_utility(math.e, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert alpha_utility(1.0, 1.0) == 0.0


def test_alpha_utility_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        alpha_utility(0.0, 0.5)
    with pytest.raises(ValueError):
        alpha_utility(-1.0, 2.0)


def test_utility_vector_floors_zero_rates():
    prof = make_profile([0.5, 2.0])
    u = utility_vector(np.array([0.0, 0.0]), prof.alpha)
    assert u[0] == pytest.approx(alpha_utility(RATE_FLOOR, 0.5))
    assert u[1] == pytest.approx(alpha_utility(RATE_FLOOR, 2.0))


def test_utility_monotone_in_rate():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.choice([0.45, 0.8, 1.9, 3.0])
        r1 = rng.uniform(1e-6, 10.0)
        r2 = r1 * (1.0 + rng.uniform(0.01, 1.0))
        assert alpha_utility(r2, a) > alpha_utility(r1, a)


def test_profile_validation():
    with pytest.raises(ValueError):
        AlphaProfile(alpha=np.array([0.5, -1.0]), group=np.array([0, 0])).validate()
    with pytest.raises(ValueError, match="positive"):
        AlphaProfile(alpha=np.array([0.5, np.nan]), group=np.array([0, 0])).validate()
    with pytest.raises(ValueError):
        AlphaProfile(alpha=np.array([1.0]), group=np.array([1])).validate()
    # outside the group's interval
    with pytest.raises(ValueError):
        AlphaProfile(alpha=np.array([0.95]), group=np.array([0])).validate()
    make_profile([0.5, 0.8, 2.0, 3.0]).validate()


@pytest.mark.parametrize("code", [4, -1])
def test_profile_validation_names_an_unknown_group_code(code):
    # the exponent lies inside A1's interval; only the code is wrong
    with pytest.raises(ValueError, match=rf"unknown group code {code}$"):
        AlphaProfile(alpha=np.array([0.5, 0.5]), group=np.array([0, code])).validate()


def test_haf_objective_diagonal():
    # both users alone on their BS: r_i = gamma * 1
    inst = make_instance([[4.0, 1.0], [1.0, 4.0]], [0.5, 0.5])
    assoc = Association(np.array([0, 1]))
    alloc = Allocation(share=np.array([1.0, 1.0]), lam=np.array([1.0, 1.0]))
    # u(4)=4^0.5/0.5=4 each -> 8; with a share of 1 r=gamma
    assert haf_objective(inst, assoc, alloc) == pytest.approx(8.0, rel=1e-12)


def test_haf_objective_negative_alpha_branch():
    inst = make_instance([[4.0]], [2.0])
    assoc = Association(np.array([0]))
    alloc = Allocation(share=np.array([1.0]), lam=np.array([1.0]))
    assert haf_objective(inst, assoc, alloc) == pytest.approx(-0.25, rel=1e-12)


def test_haf_objective_zero_allocation_uses_floor():
    inst = make_instance([[2.0], [2.0]], [0.5, 0.5])
    assoc = Association(np.array([0, 0]))
    alloc = Allocation(share=np.zeros(2), lam=np.array([1.0]))
    expected = 2 * alpha_utility(RATE_FLOOR, 0.5)
    assert haf_objective(inst, assoc, alloc) == pytest.approx(expected, rel=1e-12)


def test_rates_of_gathers_associated_entries():
    inst = make_instance([[4.0, 1.0], [1.0, 3.0]], [0.5, 0.5])
    assoc = Association(np.array([1, 0]))
    r = rates_of(inst, assoc, Allocation(share=np.array([0.5, 0.25]), lam=np.array([1.0, 1.0])))
    assert r == pytest.approx([0.5, 0.25])


def test_gamma_hat_definition():
    inst = make_instance([[4.0, 2.0]], [0.5])
    # (1-a)/a = 1 -> gamma_hat == gamma
    assert inst.gamma_hat == pytest.approx(inst.gamma)
    inst2 = make_instance([[4.0]], [2.0])
    # exponent (1-2)/2 = -0.5 -> 4^-0.5 = 0.5
    assert inst2.gamma_hat[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_from_gamma_rejects_bad_inputs():
    prof = make_profile([0.5])
    with pytest.raises(ValueError):
        make_instance([[0.0]], [0.5])
    with pytest.raises(ValueError):
        make_instance([[np.inf]], [0.5])
    with pytest.raises(ValueError):
        # shape mismatch
        from hafnet.core import NetworkInstance

        NetworkInstance.from_gamma(np.ones((2, 2)), prof, 20e6)
    # no BS: every solve would take a max over an empty set of BSs
    for users in (0, 3):
        with pytest.raises(ValueError, match="at least one BS"):
            make_instance(np.ones((users, 0)), [0.5] * users)
    assert make_instance(np.ones((0, 2)), []).num_bs == 2  # no users is valid
    for alpha in (np.nan, 0.0, -0.5, np.inf, 1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            make_instance([[1.0], [1.0]], [0.5, alpha])
