import numpy as np
import pytest

from hafnet.core import Allocation, Association, RATE_FLOOR, haf_objective, rates_of
from hafnet.metrics import COLUMNS, GROUPS, report, user_rates
from conftest import make_instance, random_instance


def _simple():
    # two users on separate BSs, full bandwidth each
    inst = make_instance([[2.0, 1.0], [1.0, 3.0]], [0.5, 2.0])
    assoc = Association(np.array([0, 1]))
    return inst, assoc, Allocation(share=np.array([1.0, 1.0]), lam=np.array([1.0, 1.0]))


def test_user_rates_normalized_and_absolute():
    inst, assoc, alloc = _simple()
    r = user_rates(inst, assoc, alloc)
    assert r == pytest.approx([2.0, 3.0])
    r_abs = user_rates(inst, assoc, alloc, absolute=True)
    assert r_abs == pytest.approx([4.0e7, 6.0e7])  # 20 MHz


def test_report_on_no_users_is_all_zero():
    # every overall column warned "Mean of empty slice", then min_rate raised
    inst = make_instance(np.ones((0, 2)), [])
    assoc = Association(np.zeros(0, dtype=int))
    alloc = Allocation(share=np.zeros(0), lam=np.full(2, np.nan))
    assert report(inst, assoc, alloc) == dict.fromkeys(COLUMNS, 0.0)


def test_report_totals_match_core():
    rng = np.random.default_rng(14)
    inst = random_instance(rng, 10, 3)
    assoc = Association(rng.integers(0, 3, size=10))
    from hafnet.ra import allocate

    alloc = allocate(inst, assoc)
    rep = report(inst, assoc, alloc)
    assert tuple(rep) == COLUMNS
    assert rep["haf"] == pytest.approx(haf_objective(inst, assoc, alloc), rel=1e-12)
    assert sum(rep[f"haf_{g}"] for g in GROUPS) == pytest.approx(rep["haf"], rel=1e-10)
    assert rep["sum_rate"] == pytest.approx(sum(rep[f"sum_rate_{g}"] for g in GROUPS), rel=1e-10)
    assert rep["min_rate"] == pytest.approx(rates_of(inst, assoc, alloc).min())


def test_report_group_haf_adds_up():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, 12, 3)
    assoc = Association(rng.integers(0, 3, size=12))
    alloc = Allocation(share=rng.uniform(0.01, 0.1, size=12), lam=np.full(3, np.nan))
    rep = report(inst, assoc, alloc)
    assert sum(rep[f"haf_{g}"] for g in GROUPS) == pytest.approx(rep["haf"], rel=1e-10)
    assert rep["haf"] == pytest.approx(haf_objective(inst, assoc, alloc), rel=1e-12)
    assert GROUPS == ("a1", "a2", "a3", "a4")


def test_report_simple_values():
    inst, assoc, alloc = _simple()
    rep = report(inst, assoc, alloc)
    assert rep["sum_rate"] == pytest.approx(5.0 * 20e6, rel=1e-12)
    # groups: user0 in A1 (alpha 0.5), user1 in A3 (alpha 2.0)
    assert rep["sum_rate_a1"] == pytest.approx(2.0 * 20e6, rel=1e-12)
    assert rep["sum_rate_a3"] == pytest.approx(3.0 * 20e6, rel=1e-12)
    assert rep["sum_rate_a2"] == 0.0
    assert rep["min_rate_a2"] == 0.0
    assert rep["pf"] == pytest.approx(np.log(2.0) + np.log(3.0), rel=1e-12)
    assert rep["latency"] == pytest.approx(0.5 * (1 / 2 + 1 / 3), rel=1e-12)
    assert rep["min_rate"] == pytest.approx(2.0)


def test_report_floors_only_ratio_metrics():
    # zero-bandwidth user: pf/latency use the floor, min_rate stays 0
    inst = make_instance([[2.0], [2.0]], [0.5, 0.5])
    assoc = Association(np.array([0, 0]))
    alloc = Allocation(share=np.array([1.0, 0.0]), lam=np.array([1.0]))
    rep = report(inst, assoc, alloc)
    assert rep["min_rate"] == 0.0
    assert rep["pf"] == pytest.approx(np.log(2.0) + np.log(RATE_FLOOR), rel=1e-9)
    assert rep["latency"] == pytest.approx(0.5 * (0.5 + 1.0 / RATE_FLOOR), rel=1e-9)
    assert np.isfinite(rep["latency"])
