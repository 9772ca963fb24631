import csv
import math
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import hafnet.experiments as ex
from hafnet import baselines, channel, metrics, pricing, ra
from hafnet.baselines import GaParams, run_2rs, run_max_sinr, run_pricing_baseline, run_random
from hafnet.core import Allocation, Association, Group, haf_objective, rates_of
from hafnet.pricing import PricingConfig, solve
from hafnet.ra import LambdaSearchConfig, allocate
from conftest import random_instance


SMALL = replace(
    ex.ScenarioConfig(),
    num_users=8,
    num_bs=3,
    num_seeds=2,
    methods=("proposed", "max_sinr", "pf", "random"),
    pricing=PricingConfig(total_iters=30),
    force=True,
)


def test_sample_alphas_respects_ratios():
    cfg = replace(ex.ScenarioConfig(), alpha_ratios=(1.0, 0.0, 0.0, 0.0))
    prof = ex.sample_alphas(cfg, 3)
    assert np.all(prof.group == 0)
    assert np.all((prof.alpha >= 0.4) & (prof.alpha <= 0.6))


def test_sample_alphas_law_of_large_numbers():
    cfg = replace(ex.ScenarioConfig(), num_users=100_000, force=True,
                  alpha_ratios=ex.HIGH_RATIOS)
    prof = ex.sample_alphas(cfg, 11)
    freq = np.bincount(prof.group, minlength=4) / 100_000
    assert freq == pytest.approx([0.125, 0.125, 0.375, 0.375], abs=0.01)
    prof.validate()


def test_sample_alphas_deterministic():
    cfg = ex.ScenarioConfig()
    p1 = ex.sample_alphas(cfg, 5)
    p2 = ex.sample_alphas(cfg, 5)
    assert np.array_equal(p1.alpha, p2.alpha)


def test_child_seed_purpose_separation():
    s_topo = ex.child_seed(0, 0, 0)
    s_alpha = ex.child_seed(0, 0, 1)
    s_fading = ex.child_seed(0, 0, 2)
    assert len({s_topo, s_alpha, s_fading}) == 3
    assert ex.child_seed(0, 0, 0) == s_topo


@pytest.mark.parametrize(
    "master_seed, tags, match",
    [(-1, (0, 0), r"master_seed=-1 must be >= 0"), (0, (0, -2), r"seed tags \(0, -2\) must be >= 0")],
)
def test_child_seed_names_a_negative_seed_or_tag(master_seed, tags, match):
    with pytest.raises(ValueError, match=match):
        ex.child_seed(master_seed, *tags)


def test_build_instance_rejects_a_negative_master_seed():
    with pytest.raises(ValueError, match=r"master_seed=-1 must be >= 0"):
        ex.build_instance(ex.ScenarioConfig(), -1, 0)


def test_build_instance_deterministic():
    i1, t1, f1 = ex.build_instance(SMALL, 4, 0)
    i2, t2, f2 = ex.build_instance(SMALL, 4, 0)
    assert np.array_equal(i1.gamma, i2.gamma)
    assert np.array_equal(f1.h, f2.h)


# Every field, nested ones included, differs from its default.
ALL_CHANGED = ex.ScenarioConfig(
    num_bs=5, num_users=33, bandwidth_mhz=10.0, cell_size_m=300.0, noise_dbm_per_hz=-170.0,
    indoor_prob=0.25, macro_power_dbm=(30.0, 40.0), small_power_dbm=(20.0, 25.5),
    carrier_ghz=3.5, pathloss_exp_macro=3.5, pathloss_exp_small=3.0, shadow_sigma_db=6.0,
    indoor_loss_db=15.0, cluster_centers=((0.1, 0.2), (0.9, 0.8)), cluster_radius_m=25.0,
    gamma_min=1e-05, alpha_ratios=ex.HIGH_RATIOS, num_seeds=17,
    methods=("proposed", "pf", "min_latency_argmin"), force=True,
    pricing=PricingConfig(total_iters=123, eta0=0.31, eta_schedule="constant",
                          mu_init=2.0, mu_min=1e-06, mu_max=1e9),
    ra=LambdaSearchConfig(bisect_tol=1e-08),
    timevary=ex.TimeVaryingConfig(rho=0.9, num_slots=7, iters_per_slot=3, eta0=0.1),
    ga=GaParams(population=30, parents=6, mutation_prob=0.05, max_generations=40),
)

# ALL_CHANGED as save_config wrote it when each key was encoded by hand and
# [ra] still held the digit-search schedule, which loading drops; files in
# this format must keep loading.
ALL_CHANGED_INI = """\
[scenario]
num_bs = 5
num_users = 33
bandwidth_mhz = 10.0
cell_size_m = 300.0
noise_dbm_per_hz = -170.0
indoor_prob = 0.25
carrier_ghz = 3.5
pathloss_exp_macro = 3.5
pathloss_exp_small = 3.0
shadow_sigma_db = 6.0
indoor_loss_db = 15.0
cluster_radius_m = 25.0
gamma_min = 1e-05
num_seeds = 17
force = true
macro_power_dbm = 30.0,40.0
small_power_dbm = 20.0,25.5
alpha_ratios = 0.125,0.125,0.375,0.375
cluster_centers = 0.1:0.2,0.9:0.8
methods = proposed,pf,min_latency_argmin

[pricing]
total_iters = 123
eta0 = 0.31
eta_schedule = constant
mu_init = 2.0
mu_min = 1e-06
mu_max = 1000000000.0

[ra]
initial_step = 100.0
outer_iters = 8
inner_iters = 6
bisect_tol = 1e-08

[timevary]
rho = 0.9
num_slots = 7
iters_per_slot = 3
eta0 = 0.1

[ga]
population = 30
parents = 6
mutation_prob = 0.05
max_generations = 40
"""


def test_config_roundtrip(tmp_path):
    some_changed = replace(
        ex.ScenarioConfig(),
        num_users=44,
        alpha_ratios=ex.HIGH_RATIOS,
        methods=("proposed", "pf"),
        pricing=PricingConfig(total_iters=123, eta0=0.31),
        timevary=ex.TimeVaryingConfig(rho=0.9, num_slots=7),
    )
    defaults = ex.ScenarioConfig()
    for f in fields(ALL_CHANGED):
        value, default = getattr(ALL_CHANGED, f.name), getattr(defaults, f.name)
        if is_dataclass(value):
            assert all(getattr(value, g.name) != getattr(default, g.name) for g in fields(value)), f.name
        else:
            assert value != default, f.name
    path = tmp_path / "scenario.ini"
    for cfg in (some_changed, ALL_CHANGED):
        ex.save_config(cfg, path)
        # the retired digit-search keys are no longer written
        assert not any(key in path.read_text() for key in ("initial_step", "outer_iters", "inner_iters"))
        loaded = ex.load_config(path)
        assert loaded == cfg
        # round-trip of the round-trip is identical too
        ex.save_config(loaded, path)
        assert ex.load_config(path) == cfg
    path.write_text(ALL_CHANGED_INI)
    assert ex.load_config(path) == ALL_CHANGED


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nnum_users = 40\nbogus_knob = 3\n")
    with pytest.raises(ValueError, match="bogus_knob"):
        ex.load_config(path)
    # only the retired digit-search keys, and only in [ra], are dropped
    still_unknown = (("ra", "bogus_knob"), ("ra", "inner_iter"), ("pricing", "outer_iters"), ("scenario", "initial_step"))
    for section, key in still_unknown:
        path.write_text(f"[{section}]\n{key} = 3\n")
        with pytest.raises(ValueError, match=key):
            ex.load_config(path)


def test_load_config_rejects_malformed_value(tmp_path):
    path = tmp_path / "bad2.ini"
    for section, line in (
        ("scenario", "num_users = forty"),
        ("scenario", "alpha_ratios = a,b,c,d"),
        ("scenario", "alpha_ratios = 0.5,0.5"),
        ("scenario", "macro_power_dbm = x,36"),
        ("scenario", "cluster_centers = 0.1:zz"),
        ("scenario", "cluster_centers = 0.1:0.2:0.3"),
        ("scenario", "force = maybe"),
        ("scenario", "methods = "),
        ("pricing", "total_iters = 1.5"),
    ):
        key = line.split(" =")[0]
        path.write_text(f"[{section}]\n{line}\n")
        with pytest.raises(ValueError, match=key):
            ex.load_config(path)
    # malformed files, which configparser rejects with errors of its own
    for text, match in (
        ("[scenario]\nnum_users = 40\nnum_users = 41\n", "num_users"),
        ("[scenario]\nnum_users = 40\n[pricing]\n[scenario]\n", "scenario"),
        ("num_users = 40\n", "section header"),
        ("[scenario]\nnum_users = 4%(x)s\n", "num_users"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            ex.load_config(path)


def test_load_config_missing_file():
    with pytest.raises(FileNotFoundError, match="/nonexistent/scenario.ini"):
        ex.load_config("/nonexistent/scenario.ini")


def test_load_config_rejects_bad_price_bounds_and_iterations(tmp_path):
    # each line parses but would freeze the prices or fail mid-run
    path = tmp_path / "bad_pricing.ini"
    for lines, field_name in (
        ("mu_min = 5\nmu_max = 1", "mu_min"),
        ("mu_min = 0", "mu_min"),
        ("mu_min = -1e-8", "mu_min"),
        ("total_iters = 0", "total_iters"),
    ):
        path.write_text(f"[pricing]\n{lines}\n")
        with pytest.raises(ValueError, match=field_name):
            ex.load_config(path)
    path.write_text("[pricing]\nmu_min = 2\nmu_max = 2\ntotal_iters = 1\n")
    assert ex.load_config(path).pricing.mu_max == 2.0


def test_load_config_rejects_nonpositive_steps_and_bad_ga_parents(tmp_path):
    # each parses, but a non-positive step never descends and run_ga would
    # reject the parents only after the other methods have run
    path = tmp_path / "bad.ini"
    for section, lines, field_name in (
        ("pricing", "eta0 = 0", "eta0"),
        ("pricing", "eta0 = -0.5", "eta0"),
        ("timevary", "eta0 = 0", "eta0"),
        ("timevary", "eta0 = -1e-3", "eta0"),
        ("ga", "parents = 1", "parents"),
        ("ga", "population = 4\nparents = 6", "parents"),
    ):
        path.write_text(f"[{section}]\n{lines}\n")
        with pytest.raises(ValueError, match=field_name):
            ex.load_config(path)
    path.write_text("[ga]\npopulation = 2\nparents = 2\n")
    assert ex.load_config(path).ga.parents == 2


def test_validate_rejects_bad_ratios_and_methods():
    with pytest.raises(ValueError):
        replace(ex.ScenarioConfig(), alpha_ratios=(0.5, 0.5, 0.5, 0.5)).validate()
    with pytest.raises(ValueError):
        replace(ex.ScenarioConfig(), methods=("proposed", "oracle9000")).validate()
    with pytest.raises(ValueError, match="methods"):
        replace(ex.ScenarioConfig(), methods=()).validate()
    with pytest.raises(ValueError):
        replace(ex.ScenarioConfig(), num_users=900).validate()
    # force bypasses the range check but not consistency checks
    replace(ex.ScenarioConfig(), num_users=900, force=True).validate()


@pytest.mark.parametrize(
    "section, line, field_name",
    [
        ("scenario", "cluster_centers = ", "cluster_centers"),  # else ZeroDivisionError in generate_topology
        ("pricing", "eta0 = nan", "eta0"),  # else the whole run, then a refused non-finite CSV value
        ("pricing", "mu_init = nan", "mu_init"),  # else best_dual = nan
        ("pricing", "mu_init = 0", "mu_init"),
        ("ra", "bisect_tol = nan", "bisect_tol"),  # else ArithmeticError at the first allocation
        ("ga", "mutation_prob = nan", "mutation_prob"),  # else mutation silently off
        ("ga", "mutation_prob = -1", "mutation_prob"),
        ("ga", "max_generations = -3", "max_generations"),
    ],
)
def test_load_config_rejects_values_that_would_fail_late(tmp_path, section, line, field_name):
    path = tmp_path / "late.ini"
    path.write_text(f"[{section}]\n{line}\n")
    with pytest.raises(ValueError, match=field_name):
        ex.load_config(path)


@pytest.mark.parametrize(
    "build, field_name",
    [
        (lambda: PricingConfig(mu_min=5, mu_max=1), "mu_min"),
        (lambda: PricingConfig(eta0=-0.5), "eta0"),
        (lambda: PricingConfig(mu_init=float("nan")), "mu_init"),
        (lambda: ex.TimeVaryingConfig(rho=0), "rho"),
        (lambda: GaParams(parents=1), "parents"),
        (lambda: GaParams(mutation_prob=float("nan")), "mutation_prob"),
        (lambda: GaParams(mutation_prob=-1.0), "mutation_prob"),
        (lambda: GaParams(mutation_prob=1.5), "mutation_prob"),
        (lambda: GaParams(max_generations=-3), "max_generations"),
        (lambda: LambdaSearchConfig(bisect_tol=float("nan")), "bisect_tol"),
        (lambda: replace(ex.ScenarioConfig(), num_users=500), "num_users"),
        (lambda: replace(SMALL, num_users=13, num_bs=3, methods=("proposed", "brute_force")), "brute_force"),
    ],
    ids=[
        "mu_min>mu_max", "eta0<0", "mu_init=nan", "rho=0", "parents=1", "mutation_prob=nan",
        "mutation_prob<0", "mutation_prob>1", "max_generations<0", "bisect_tol=nan", "num_users=500",
        "brute_force>cap",
    ],
)
def test_configs_check_their_fields_when_built(build, field_name):
    # the library path: no load_config, no explicit validate()
    with pytest.raises(ValueError, match=field_name):
        build()


_NAN, _INF = float("nan"), float("inf")
_MEANINGLESS = [
    ("noise_dbm_per_hz", _INF),  # else every SINR is 0 and a 40 x 6 run writes HAF near -7e14
    ("noise_dbm_per_hz", _NAN),
    ("indoor_prob", 1.5),
    ("indoor_prob", _NAN),
    ("indoor_prob", -0.1),
    ("cluster_radius_m", -30.0),
    ("cell_size_m", -250.0),  # this and the next three fail late, after the output directory exists
    ("shadow_sigma_db", -8.0),
    ("bandwidth_mhz", -20.0),
    ("carrier_ghz", 0.0),
    ("bandwidth_mhz", _NAN),
    ("gamma_min", 0.0),
    ("gamma_min", _INF),
    ("pathloss_exp_macro", _NAN),
    ("pathloss_exp_small", -3.19),
    ("indoor_loss_db", _INF),
    ("shadow_sigma_db", _NAN),
    ("macro_power_dbm", (36.0, 33.0)),
    ("macro_power_dbm", (_NAN, 36.0)),
    ("small_power_dbm", (23.0, _INF)),
    ("cluster_centers", ((0.25, 0.25), (_NAN, 0.75))),
]


@pytest.mark.parametrize("field_name, value", _MEANINGLESS, ids=[f"{f}={v}" for f, v in _MEANINGLESS])
def test_forced_configs_reject_physically_meaningless_values(field_name, value):
    # force unpins the reference ranges, not the physical domains
    with pytest.raises(ValueError, match=field_name):
        replace(ex.ScenarioConfig(), force=True, **{field_name: value})


def test_user_sweep_checks_each_user_count(tmp_path):
    cfg = ex.ScenarioConfig(num_seeds=1, methods=("max_sinr",))
    with pytest.raises(ValueError, match="num_users"):
        ex.run_user_sweep(cfg, [500], tmp_path)


@pytest.mark.parametrize("counts, match", [([], "at least one count"), ([8, 10, 8], "twice")])
def test_user_sweep_rejects_an_empty_or_repeated_user_list(tmp_path, counts, match):
    # an empty list wrote a header-only sweep.csv, a repeated count its rows twice
    with pytest.raises(ValueError, match=match):
        ex.run_user_sweep(SMALL, counts, tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


def test_duplicate_method_names_are_rejected(tmp_path):
    # a repeated name would get two summary rows over the pooled seeds, or in
    # time-varying mode two entries sharing one warm-start state
    with pytest.raises(ValueError, match="'max_sinr' is named twice"):
        replace(SMALL, methods=("max_sinr", "max_sinr"))
    cfg = replace(SMALL, num_seeds=1, timevary=ex.TimeVaryingConfig(num_slots=2, iters_per_slot=2))
    with pytest.raises(ValueError, match="'proposed' is named twice"):
        ex.run_time_varying(cfg, tmp_path, methods=("proposed", "frozen", "proposed"))


def test_every_decision_holds_one_share_per_user(tmp_path, monkeypatch):
    # An allocation is each user's share at its own BS and one multiplier per
    # BS, whichever method's row the harness solved, and rates_of reads gamma
    # at the user's BS times that share, bit for bit. Brute force runs on
    # SMALL's forced 8 x 3.
    seen = []
    report = metrics.report

    def kept(inst, assoc, alloc):
        seen.append((inst, assoc, alloc))
        return report(inst, assoc, alloc)

    monkeypatch.setattr(metrics, "report", kept)
    cfg = replace(SMALL, num_seeds=1, methods=ex.available_methods())
    ex.run_static_experiment(cfg, tmp_path, master_seed=0)
    assert len(seen) == len(cfg.methods)
    inst = seen[0][0]
    decisions = {name: (assoc, alloc) for name, (_, assoc, alloc) in zip(cfg.methods, seen)}
    for name in ex.available_methods():
        _, trace = ex.run_method(name, inst, cfg, 0, 0)
        if trace is not None:
            decisions[f"{name} best dual"] = trace.best_dual_decision
    adaptive = Association(run_2rs(inst, np.argmax(inst.gamma, axis=1), adaptive=True))
    decisions["adaptive two_rs"] = (adaptive, allocate(inst, adaptive))
    assert [f.name for f in fields(Allocation)] == ["share", "lam"]
    I, J = inst.num_users, inst.num_bs
    for name, (assoc, alloc) in decisions.items():
        assert alloc.share.shape == (I,) and alloc.lam.shape == (J,), name
        want = inst.gamma[np.arange(I), assoc.bs_of_user] * alloc.share
        assert rates_of(inst, assoc, alloc).tobytes() == want.tobytes(), name


#: SMALL with every static method, the search baselines included
SMALL_ALL = replace(SMALL, methods=ex.available_methods())


def test_static_rows_equal_reports_of_cold_allocations(tmp_path):
    # each row, whichever method made it, reports a cold ra.allocate of the
    # association that method returns, bit for bit, in the rows and the CSV
    res = ex.run_static_experiment(SMALL_ALL, tmp_path, master_seed=2)
    with open(tmp_path / "static_per_seed.csv") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(res["rows"]) == len(parsed) == SMALL_ALL.num_seeds * len(SMALL_ALL.methods)
    for row, line in zip(res["rows"], parsed):
        inst, _, _ = ex.build_instance(SMALL_ALL, 2, row["seed"])
        bs, _ = ex.run_method(row["method"], inst, SMALL_ALL, 2, row["seed"])
        assoc = Association(bs)
        want = metrics.report(inst, assoc, allocate(inst, assoc, SMALL_ALL.ra))
        assert {c: row[c] for c in metrics.COLUMNS} == want, row["method"]
        assert [line[c] for c in metrics.COLUMNS] == [ex._fmt(want[c]) for c in metrics.COLUMNS], row["method"]


@pytest.mark.parametrize("method", [*ex.available_methods(), "all"])
def test_static_seed_solves_its_rows_in_one_stacked_call(method, tmp_path, monkeypatch):
    # outside the pricing loops and the search baselines, a seed's rows take
    # one ra.solve_stacked call, whose one Newton call is the only solve; the
    # certificate takes the loop's kept allocation and solves nothing
    cfg = replace(SMALL_ALL, methods=ex.available_methods() if method == "all" else (method,))
    calls, depth = [], []

    def counted(fn):
        def run(*args):
            if not depth:  # outside every wrapped run
                calls.append(fn.__name__)
            return fn(*args)

        return run

    def wrapped(fn):
        def run(*args, **kwargs):
            depth.append(1)
            try:
                return fn(*args, **kwargs)
            finally:
                depth.pop()

        return run

    monkeypatch.setattr(ra, "solve_stacked", counted(ra.solve_stacked))
    monkeypatch.setattr(ra, "_newton", counted(ra._newton))
    for mod, name in ((pricing, "iterate"), (baselines, "run_2rs"), (baselines, "run_ga"), (baselines, "brute_force")):
        monkeypatch.setattr(mod, name, wrapped(getattr(mod, name)))
    ex.run_static_experiment(cfg, tmp_path, master_seed=1)
    assert calls == ["solve_stacked", "_newton"] * cfg.num_seeds


def test_static_experiment_rows_and_files(tmp_path):
    out = tmp_path / "static"
    res = ex.run_static_experiment(SMALL, out, master_seed=0)
    rows = res["rows"]
    assert len(rows) == SMALL.num_seeds * len(SMALL.methods)
    per_seed = out / "static_per_seed.csv"
    assert per_seed.exists()
    with open(per_seed) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    # pricing methods carry dual/gap columns, others leave them blank
    by_method = {r["method"]: r for r in parsed if r["seed"] == "0"}
    assert by_method["max_sinr"]["best_dual"] == ""
    assert by_method["proposed"]["best_dual"] != ""
    assert by_method["proposed"]["theorem2_bound"] != ""
    assert by_method["pf"]["theorem2_bound"] == ""  # certificate only for proposed
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "static_per_seed.csv" in manifest
    assert "static_summary.csv" in manifest


def test_static_headers_are_pinned(tmp_path):
    ex.run_static_experiment(SMALL, tmp_path, master_seed=0)
    expected = {
        "static_per_seed.csv": "seed,method,haf,haf_a1,haf_a2,haf_a3,haf_a4,"
        "sum_rate,sum_rate_a1,sum_rate_a2,sum_rate_a3,sum_rate_a4,pf,pf_a1,pf_a2,pf_a3,pf_a4,"
        "latency,latency_a1,latency_a2,latency_a3,latency_a4,"
        "min_rate,min_rate_a1,min_rate_a2,min_rate_a3,min_rate_a4,best_dual,empirical_gap,theorem2_bound",
        "static_summary.csv": "method,n_seeds,haf_mean,haf_std,haf_a1_mean,haf_a2_mean,haf_a3_mean,"
        "haf_a4_mean,best_dual_mean,empirical_gap_mean,theorem2_bound_mean",
        "static_group_metrics.csv": "method,group,metric,mean,std,n_seeds",
    }
    for name, header in expected.items():
        assert (tmp_path / name).read_text().splitlines()[0] == header


def test_static_experiment_process_pool_matches_serial(tmp_path):
    ex.run_static_experiment(SMALL, tmp_path / "serial", master_seed=4, threads=1)
    ex.run_static_experiment(SMALL, tmp_path / "pool", master_seed=4, threads=2)
    for name in ("static_per_seed.csv", "static_summary.csv", "static_group_metrics.csv", "manifest.txt"):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


@pytest.mark.parametrize("threads", [0, -1])
def test_experiments_reject_threads_below_one(tmp_path, threads):
    # both ran serially without a word
    with pytest.raises(ValueError, match="threads"):
        ex.run_static_experiment(SMALL, tmp_path / "static", threads=threads)
    with pytest.raises(ValueError, match="threads"):
        ex.run_user_sweep(SMALL, [8], tmp_path / "sweep", threads=threads)
    assert not (tmp_path / "static").exists() and not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("run", [
    lambda cfg, out: ex.run_static_experiment(cfg, out, master_seed=-1),
    lambda cfg, out: ex.run_user_sweep(cfg, [8], out, master_seed=-1),
    lambda cfg, out: ex.run_time_varying(cfg, out, master_seed=-1),
], ids=["static", "sweep", "timevary"])
def test_experiments_reject_a_negative_master_seed_before_writing(run, tmp_path):
    # the seed split raised a numpy error only after the output directory
    # (and the static run's empty manifest) had been created
    with pytest.raises(ValueError, match="master_seed=-1"):
        run(SMALL, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_static_experiment_deterministic(tmp_path):
    r1 = ex.run_static_experiment(SMALL, tmp_path / "a", master_seed=9)
    r2 = ex.run_static_experiment(SMALL, tmp_path / "b", master_seed=9)
    f1 = (tmp_path / "a" / "static_per_seed.csv").read_bytes()
    f2 = (tmp_path / "b" / "static_per_seed.csv").read_bytes()
    assert f1 == f2


def test_static_methods_do_not_disturb_channel_draws(tmp_path):
    # dropping a method must not change other methods' rows
    full = ex.run_static_experiment(SMALL, tmp_path / "full", master_seed=3)
    fewer = ex.run_static_experiment(
        replace(SMALL, methods=("proposed", "random")), tmp_path / "fewer", master_seed=3
    )
    f_rows = {(r["seed"], r["method"]): r for r in full["rows"]}
    for r in fewer["rows"]:
        assert r == f_rows[(r["seed"], r["method"])]


def test_convergence_trace_csv(tmp_path):
    rng = np.random.default_rng(3)
    inst = random_instance(rng, 8, 2)
    _, _, trace = solve(inst, PricingConfig(total_iters=25))
    path = ex.emit_convergence_trace(trace, tmp_path / "conv.csv")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    for r in rows:
        assert float(r["dual_value"]) >= float(r["primal_haf"]) - 1e-6
        assert float(r["gap"]) == pytest.approx(
            float(r["dual_value"]) - float(r["primal_haf"]), abs=1e-6
        )


def test_convergence_trace_empty(tmp_path):
    from hafnet.pricing import RunTrace

    empty = RunTrace(
        primal=np.zeros(0), dual=np.zeros(0), mu=np.zeros((0, 2)),
        assoc_changes=np.zeros(0, dtype=int), assoc_id=np.zeros(0, dtype=int), grad_norm=np.zeros(0),
        mu_final=np.ones(2),
    )
    assert empty.alloc_solved.shape == (0,)
    path = ex.emit_convergence_trace(empty, tmp_path / "empty.csv")
    lines = path.read_text().splitlines()
    assert lines == ["iter,primal_haf,dual_value,gap"]


def test_time_varying_slot1_matches_static_instance(tmp_path):
    tv = ex.TimeVaryingConfig(rho=0.9, num_slots=1, iters_per_slot=5)
    cfg = replace(SMALL, num_seeds=1, timevary=tv)
    res = ex.run_time_varying(cfg, tmp_path / "tv", master_seed=5)
    # the slot-1 channel must equal the static instance for the same seed index
    inst_static, _, _ = ex.build_instance(cfg, 5, 0)
    inst_tv, _, fad = ex.build_instance(cfg, 5, 0, rho=tv.rho)
    assert np.array_equal(inst_static.gamma, inst_tv.gamma)


def test_time_varying_rho_one_is_static(tmp_path):
    # frozen channel: the frozen reference repeats the identical slot
    tv = ex.TimeVaryingConfig(rho=1.0, num_slots=8, iters_per_slot=10)
    cfg = replace(SMALL, num_seeds=1, timevary=tv)
    res = ex.run_time_varying(cfg, tmp_path / "tv1", master_seed=2,
                              methods=("proposed", "frozen"))
    froz = [r[3] for r in res["rows"] if r[2] == "frozen"]
    assert np.ptp(froz) == 0.0
    # adaptive pricing keeps iterating on the same channel: near-stable tail
    hafs = [r[3] for r in res["rows"] if r[2] == "proposed"]
    assert np.ptp(hafs[4:]) <= 0.05 * max(1.0, abs(np.mean(hafs[4:])))


def test_time_varying_rows_layout(tmp_path):
    tv = ex.TimeVaryingConfig(rho=0.9, num_slots=3, iters_per_slot=4)
    cfg = replace(SMALL, num_seeds=2, timevary=tv)
    res = ex.run_time_varying(cfg, tmp_path / "tv2", master_seed=0)
    rows = res["rows"]
    assert len(rows) == 2 * 3 * 3  # seeds x slots x methods
    csv_lines = (tmp_path / "tv2" / "timevary.csv").read_text().splitlines()
    assert csv_lines[0] == "seed,slot,method,haf"
    assert len(csv_lines) == 1 + len(rows)


TV_ALL = ("proposed", "frozen", "two_rs", "pf", "af_low", "af_high", "min_latency",
          "min_latency_argmin", "max_sinr", "random")


def test_time_varying_every_method(tmp_path):
    methods = TV_ALL
    tv = ex.TimeVaryingConfig(rho=0.9, num_slots=4, iters_per_slot=3)
    cfg = replace(SMALL, num_seeds=1, timevary=tv)
    res = ex.run_time_varying(cfg, tmp_path / "tv3", master_seed=7, methods=methods)
    rows = res["rows"]
    assert [r[2] for r in rows] == list(methods) * tv.num_slots
    assert all(np.isfinite(r[3]) for r in rows)
    # each max_sinr row is the max-SINR HAF of that slot's rebuilt channel
    inst, topo, fading = ex.build_instance(cfg, 7, 0, rho=tv.rho)
    for slot in range(1, tv.num_slots + 1):
        if slot > 1:
            fading = channel.evolve_fading(fading)
            inst = channel.make_instance(topo, fading, inst.alphas)
        best = Association(np.argmax(inst.gamma, axis=1))
        expected = haf_objective(inst, best, allocate(inst, best, cfg.ra))
        (got,) = [r[3] for r in rows if r[1] == slot and r[2] == "max_sinr"]
        assert got == expected


def test_time_varying_rows_do_not_depend_on_reuse(tmp_path, monkeypatch):
    # every row must be what a cold solve of its association gives
    tv = ex.TimeVaryingConfig(rho=0.9, num_slots=6, iters_per_slot=4)
    cfg = replace(SMALL, num_seeds=2, timevary=tv)

    def bits(out):
        rows = ex.run_time_varying(cfg, tmp_path / out, master_seed=3, methods=TV_ALL)["rows"]
        return [(s, slot, m, float(haf).hex()) for s, slot, m, haf in rows]

    reused = bits("reused")
    allocate = ra.allocate
    monkeypatch.setattr(ra, "allocate", lambda inst, assoc, cfg=None, prev=None: allocate(inst, assoc, cfg))
    assert bits("cold") == reused


def _cold_rows(cfg, master_seed, methods):
    """run_time_varying's rows one slot and one method at a time: each
    association from the per-instance API, each HAF from a cold allocate
    and haf_objective of that slot's association."""
    tv = cfg.timevary
    slot_cfg = replace(cfg.pricing, total_iters=tv.iters_per_slot, eta0=tv.eta0, eta_schedule="constant")
    rows = []
    for s in range(cfg.num_seeds):
        inst, topo, fading = ex.build_instance(cfg, master_seed, s, rho=tv.rho)
        mu, kept = {}, {}
        for slot in range(1, tv.num_slots + 1):
            if slot > 1:
                fading = channel.evolve_fading(fading)
                inst = channel.make_instance(topo, fading, inst.alphas)
            for m in methods:
                if m == "proposed":
                    _, _, trace = solve(inst, slot_cfg, cfg.ra, mu0=mu.get(m))
                    mu[m], assoc = trace.mu_final, trace.assoc_final
                elif m in baselines.RULES:
                    _, _, trace = run_pricing_baseline(inst, m, slot_cfg, cfg.ra, mu0=mu.get(m))
                    mu[m], assoc = trace.mu_final, trace.assoc_final
                elif m == "frozen":
                    if m not in kept:
                        kept[m] = solve(inst, slot_cfg, cfg.ra)[2].assoc_final
                    assoc = kept[m]
                elif m == "two_rs":
                    start = kept[m].bs_of_user if m in kept else np.argmax(inst.gamma, axis=1)
                    assoc = kept[m] = Association(run_2rs(inst, start, adaptive=True, ra_cfg=cfg.ra))
                elif m == "max_sinr":
                    assoc = Association(run_max_sinr(inst))
                else:
                    assoc = Association(run_random(inst, ex.child_seed(master_seed, s, ex._PURPOSE_RANDOM, slot)))
                rows.append((s, slot, m, haf_objective(inst, assoc, allocate(inst, assoc, cfg.ra)).hex()))
    return rows


_TV_STACK = ex.TimeVaryingConfig(rho=0.9, num_slots=27, iters_per_slot=4)
#: SMALL over two blocks of the default size, and a forced 5 x 8 layout in
#: which every slot leaves BSs empty
_TV_STACK_CFGS = {
    "8x3": replace(SMALL, timevary=_TV_STACK),
    "5x8": replace(SMALL, num_users=5, num_bs=8, timevary=_TV_STACK),
}


@pytest.fixture(scope="module")
def cold_rows():
    return {name: _cold_rows(cfg, 6, TV_ALL) for name, cfg in _TV_STACK_CFGS.items()}


@pytest.mark.parametrize("block", [1, 3, ex._SLOT_BLOCK])
@pytest.mark.parametrize("name", list(_TV_STACK_CFGS))
def test_time_varying_stacked_rows_equal_cold_per_slot_solves(name, block, cold_rows, tmp_path, monkeypatch):
    # every method's row is the cold per-slot HAF of its association, bit
    # for bit, whatever the block size
    monkeypatch.setattr(ex, "_SLOT_BLOCK", block)
    rows = ex.run_time_varying(_TV_STACK_CFGS[name], tmp_path, master_seed=6, methods=TV_ALL)["rows"]
    assert [(s, slot, m, float(haf).hex()) for s, slot, m, haf in rows] == cold_rows[name]


@pytest.mark.parametrize("method", [*TV_ALL, "all"])
@pytest.mark.parametrize("num_slots, block", [(1, 25), (25, 25), (26, 25), (60, 25), (7, 3), (6, 3), (4, 1)])
def test_time_varying_solves_a_block_in_one_kernel_call(method, num_slots, block, tmp_path, monkeypatch):
    # every (slot, method) row of a block is solved in one Newton call; only
    # 2RS makes calls of its own, and a pricing run only walks its prices:
    # it solves, scores and takes the dual of nothing, and no run computes
    # a certificate
    methods = TV_ALL if method == "all" else (method,)
    cfg = replace(SMALL, timevary=ex.TimeVaryingConfig(rho=0.9, num_slots=num_slots, iters_per_slot=4))
    calls, inside = [], []
    newton = ra._newton

    def counted_newton(*args):
        calls.append(1)
        return newton(*args)

    def counted(fn):
        def run(*args, **kwargs):
            before = len(calls)
            out = fn(*args, **kwargs)
            inside.append(len(calls) - before)
            return out

        return run

    def never(*args, **kwargs):
        raise AssertionError("a slotted pricing run only walks its prices")

    monkeypatch.setattr(ra, "_newton", counted_newton)
    monkeypatch.setattr(pricing, "walk", counted(pricing.walk))
    monkeypatch.setattr(baselines, "run_2rs", counted(baselines.run_2rs))
    for name in ("solve", "_certificate", "iterate", "dual_value", "haf_objective"):
        monkeypatch.setattr(pricing, name, never)
    monkeypatch.setattr(ra, "allocate", never)
    monkeypatch.setattr(ex, "_SLOT_BLOCK", block)
    ex.run_time_varying(cfg, tmp_path, master_seed=8, methods=methods)
    # a pricing run or a 2RS move every slot, and frozen's one slot-1 run
    adaptive = sum(m in ex._PRICING or m == "two_rs" for m in methods)
    assert len(inside) == cfg.num_seeds * (adaptive * num_slots + ("frozen" in methods))
    assert len(calls) - sum(inside) == cfg.num_seeds * math.ceil(num_slots / block)


_NO_MASKED_ARRAYS = """
import sys, tempfile
from dataclasses import replace
from hafnet import experiments as ex
from hafnet.pricing import PricingConfig

cfg = replace(ex.ScenarioConfig(), num_users=8, num_bs=3, num_seeds=2, force=True,
              methods=("proposed", "max_sinr", "pf", "random"), pricing=PricingConfig(total_iters=30),
              timevary=ex.TimeVaryingConfig(num_slots=3, iters_per_slot=4))
with tempfile.TemporaryDirectory() as out:
    ex.run_time_varying(cfg, out, methods=%r)
print("numpy.ma" in sys.modules)
"""


def test_a_slotted_run_loads_no_masked_arrays(tmp_path):
    # numpy.ma costs about 1.25 MB and 8 ms on its first import (np.unique
    # loads it); a slotted run at SMALL with every method never needs it
    env = dict(os.environ, PYTHONPATH=str(Path(ex.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS % (TV_ALL,)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]


def test_user_sweep_rows(tmp_path):
    res = ex.run_user_sweep(SMALL, [8, 10], tmp_path / "sweep", master_seed=1)
    rows = res["rows"]
    assert len(rows) == 2 * len(SMALL.methods)
    counts = {r[0] for r in rows}
    assert counts == {8, 10}
    for r in rows:
        assert r[2] == SMALL.num_seeds
        assert np.isfinite(r[3])


def test_fmt_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        ex._fmt(float("nan"))
    with pytest.raises(ValueError):
        ex._fmt(float("inf"))
    assert ex._fmt(0.1234567891234) == "0.123456789"
    assert ex._fmt(3) == "3"
    assert ex._fmt("") == ""


def test_group_metric_rows_cover_all_groups():
    res_rows = [
        {"method": "m", **{f"{met}_{g.name.lower()}": float(k) for k, met in
                           enumerate(("sum_rate", "pf", "latency", "min_rate"))
                           for g in Group}}
        for _ in range(3)
    ]
    table = ex.group_metric_rows(res_rows, ["m"])
    assert len(table) == 4 * 4  # groups x metrics
    assert all(row[5] == 3 for row in table)
