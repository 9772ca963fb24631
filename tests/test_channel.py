import numpy as np
import pytest

import hafnet.channel as ch
from hafnet.experiments import ScenarioConfig, sample_alphas


CFG = ScenarioConfig()


def test_topology_deterministic():
    t1 = ch.generate_topology(CFG, 7)
    t2 = ch.generate_topology(CFG, 7)
    assert np.array_equal(t1.bs_positions, t2.bs_positions)
    assert np.array_equal(t1.user_positions, t2.user_positions)
    assert np.array_equal(t1.shadow_db, t2.shadow_db)
    assert np.array_equal(t1.indoor, t2.indoor)


def test_topology_shapes_and_power_tiers():
    topo = ch.generate_topology(CFG, 3)
    assert topo.bs_positions.shape == (6, 2)
    assert topo.user_positions.shape == (40, 2)
    n_macro = int(np.ceil(0.1 * 6))
    assert topo.is_macro.sum() == n_macro
    assert np.all(topo.bs_power_dbm[topo.is_macro] >= 33.0)
    assert np.all(topo.bs_power_dbm[topo.is_macro] <= 36.0)
    assert np.all(topo.bs_power_dbm[~topo.is_macro] >= 23.0)
    assert np.all(topo.bs_power_dbm[~topo.is_macro] <= 30.0)
    assert np.all(topo.user_positions >= 0) and np.all(topo.user_positions <= 250.0)


def test_indoor_prob_zero_and_one():
    from dataclasses import replace

    topo0 = ch.generate_topology(replace(CFG, indoor_prob=0.0, force=True), 5)
    assert not topo0.indoor.any()
    topo1 = ch.generate_topology(replace(CFG, indoor_prob=1.0, force=True), 5)
    assert topo1.indoor.all()


def _bare_topology(n_users=1, n_bs=1, dist=1.0, macro=True):
    """Hand-built topology in which the closed-form gain is easy to state:
    no shadowing, outdoor users, single BS at distance `dist`."""
    return ch.Topology(
        bs_positions=np.array([[0.0, 0.0]] * n_bs),
        user_positions=np.array([[dist, 0.0]] * n_users),
        bs_power_dbm=np.zeros(n_bs),
        cell_size_m=250.0,
        indoor=np.zeros(n_users, dtype=bool),
        is_macro=np.full(n_bs, macro),
        cluster_of=np.full(n_bs, -1 if macro else 0),
        pathloss_exp=np.full(n_bs, 3.76 if macro else 3.19),
        shadow_db=np.zeros((n_users, n_bs)),
        carrier_ghz=2.0,
        indoor_loss_db=20.0,
        noise_dbm_per_hz=-174.0,
        bandwidth_hz=20e6,
        gamma_min=1e-6,
    )


def _unit_fading(n_users=1, n_bs=1):
    return ch.FadingState(h=np.ones((n_users, n_bs), dtype=complex), rho=1.0,
                          rng=np.random.default_rng(0))


def _gain_db(topo):
    """Gain of the (user 0, BS 0) link in dB under unit fading."""
    return ch._gain_db_matrix(topo, _unit_fading().h)[0, 0]


def test_link_gain_reference_point():
    # 1 m, 2 GHz, |h|=1, no shadow/indoor: -(32.4 + 20log10(2)) = -38.42 dB
    topo = _bare_topology(dist=1.0)
    g = _gain_db(topo)
    assert g == pytest.approx(-(32.4 + 20 * np.log10(2.0)), abs=1e-9)


def test_link_gain_indoor_is_20db():
    topo = _bare_topology()
    gain_out = _gain_db(topo)
    indoor = np.array([True])
    topo_in = ch.Topology(**{**topo.__dict__, "indoor": indoor})
    gain_in = _gain_db(topo_in)
    assert gain_out - gain_in == pytest.approx(20.0, abs=1e-9)


def test_link_gain_distance_doubling_macro():
    g1 = _gain_db(_bare_topology(dist=2.0))
    g2 = _gain_db(_bare_topology(dist=4.0))
    assert g1 - g2 == pytest.approx(10 * 3.76 * np.log10(2.0), abs=1e-9)


def test_link_gain_distance_floor():
    gnear = _gain_db(_bare_topology(dist=0.01))
    g1m = _gain_db(_bare_topology(dist=1.0))
    assert gnear == pytest.approx(g1m, abs=1e-9)


def test_spectral_efficiency_single_bs_snr_one():
    # choose power so that rx power equals the noise power: SINR=1, gamma=1
    topo = _bare_topology()
    noise_dbm = -174.0 + 10 * np.log10(20e6)
    pl = 32.4 + 20 * np.log10(2.0)
    topo = ch.Topology(**{**topo.__dict__, "bs_power_dbm": np.array([noise_dbm + pl])})
    gam = ch.spectral_efficiency(topo, _unit_fading())
    assert gam[0, 0] == pytest.approx(1.0, rel=1e-9)


def test_spectral_efficiency_clamped_at_floor():
    topo = _bare_topology()
    topo = ch.Topology(**{**topo.__dict__, "bs_power_dbm": np.array([-200.0])})
    gam = ch.spectral_efficiency(topo, _unit_fading())
    assert gam[0, 0] == CFG.gamma_min


def test_cross_cluster_interference_zeroed():
    # two small cells in different clusters, one user: no mutual interference,
    # so each gamma equals its single-link SNR value.
    topo = _bare_topology(n_users=1, n_bs=2, macro=False)
    topo = ch.Topology(**{**topo.__dict__,
                          "cluster_of": np.array([0, 1]),
                          "pathloss_exp": np.array([3.19, 3.19]),
                          "bs_power_dbm": np.array([0.0, 0.0])})
    fad = _unit_fading(1, 2)
    gam = ch.spectral_efficiency(topo, fad)
    solo0 = ch.spectral_efficiency(
        ch.Topology(**{**_bare_topology(macro=False).__dict__, "bs_power_dbm": np.array([0.0])}),
        _unit_fading())
    assert gam[0, 0] == pytest.approx(solo0[0, 0], rel=1e-9)
    assert gam[0, 1] == pytest.approx(solo0[0, 0], rel=1e-9)

    # same cluster: interference present, gamma strictly lower
    topo_same = ch.Topology(**{**topo.__dict__, "cluster_of": np.array([0, 0])})
    gam_same = ch.spectral_efficiency(topo_same, fad)
    assert gam_same[0, 0] < gam[0, 0]


def test_macro_interferes_with_small_cells():
    topo = _bare_topology(n_users=1, n_bs=2, macro=False)
    topo = ch.Topology(**{**topo.__dict__,
                          "is_macro": np.array([True, False]),
                          "cluster_of": np.array([-1, 0]),
                          "pathloss_exp": np.array([3.76, 3.19]),
                          "bs_power_dbm": np.array([10.0, 0.0])})
    gam = ch.spectral_efficiency(topo, _unit_fading(1, 2))
    solo = ch.spectral_efficiency(
        ch.Topology(**{**_bare_topology(macro=False).__dict__, "bs_power_dbm": np.array([0.0])}),
        _unit_fading())
    assert gam[0, 1] < solo[0, 0]


def test_fading_determinism_and_unit_power():
    f1 = ch.make_fading(2000, 4, 0.9, 11)
    f2 = ch.make_fading(2000, 4, 0.9, 11)
    assert np.array_equal(f1.h, f2.h)
    assert np.mean(np.abs(f1.h) ** 2) == pytest.approx(1.0, rel=0.05)


def test_make_fading_rejects_bad_rho():
    with pytest.raises(ValueError):
        ch.make_fading(2, 2, 0.0, 0)
    with pytest.raises(ValueError):
        ch.make_fading(2, 2, 1.5, 0)


def test_evolve_rho_one_identity():
    f = ch.make_fading(50, 3, 1.0, 2)
    f2 = ch.evolve_fading(f)
    assert np.array_equal(f.h, f2.h)


def test_evolve_rho_zero_decorrelates():
    f = ch.make_fading(100_000, 1, 1e-12, 4)
    h0 = f.h.copy()
    f2 = ch.evolve_fading(f)
    c = np.corrcoef(h0.real.ravel(), f2.h.real.ravel())[0, 1]
    assert abs(c) < 0.02


def test_evolve_lag1_correlation_matches_rho():
    f = ch.make_fading(100_000, 1, 0.9, 9)
    h0 = f.h.real.ravel().copy()
    f = ch.evolve_fading(f)
    c = np.corrcoef(h0, f.h.real.ravel())[0, 1]
    assert 0.88 <= c <= 0.92


def test_evolve_preserves_stationary_power():
    f = ch.make_fading(20_000, 1, 0.9, 13)
    for _ in range(50):
        f = ch.evolve_fading(f)
    assert np.mean(np.abs(f.h) ** 2) == pytest.approx(1.0, rel=0.02)


def test_make_instance_carries_alphas_and_bandwidth():
    topo = ch.generate_topology(CFG, 1)
    fad = ch.make_fading(CFG.num_users, CFG.num_bs, 1.0, 1)
    prof = sample_alphas(CFG, 5)
    inst = ch.make_instance(topo, fad, prof)
    assert inst.gamma.shape == (40, 6)
    assert inst.bandwidth_hz == 20e6
    assert np.all(inst.gamma >= CFG.gamma_min)
    prof.validate()
