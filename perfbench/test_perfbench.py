"""Tests of the benchmark's own code: its checks, its tracer and its runs.

    python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checks
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def oracle_item(tmp_path_factory):
    wl = workloads.setup("oracle")
    cfg, master_seed = wl.item(11, 0)
    rows = wl.run(cfg, master_seed, tmp_path_factory.mktemp("oracle"))
    gamma, alpha = workloads._instance_arrays(cfg, master_seed)
    return rows, gamma, alpha, cfg.methods


def _row(rows, method):
    return next(r for r in rows if r["method"] == method)


def test_checks_pass_on_real_output(oracle_item):
    rows, gamma, alpha, methods = oracle_item
    assert checks.check_oracle(rows, gamma, alpha, methods) == []
    assert checks.check_static(rows, gamma, alpha, methods) == []


def test_checks_reject_a_row_beating_the_exhaustive_optimum(oracle_item):
    rows, gamma, alpha, methods = oracle_item
    rows = copy.deepcopy(rows)
    opt = checks.exhaustive_optimum(gamma, alpha)
    _row(rows, "two_rs")["haf"] = opt + 1e-4 * (1.0 + abs(opt))
    problems = checks.check_oracle(rows, gamma, alpha, methods)
    assert any("two_rs" in p and "beats the exhaustive optimum" in p for p in problems), problems


def test_checks_reject_a_theorem2_violation(oracle_item):
    rows, gamma, alpha, methods = oracle_item
    rows = copy.deepcopy(rows)
    prop = _row(rows, "proposed")
    prop["theorem2_bound"] = prop["empirical_gap"] - 1e-3 * (1.0 + abs(prop["empirical_gap"]))
    problems = checks.check_static(rows, gamma, alpha, methods)
    assert any("> theorem2_bound" in p for p in problems), problems


def test_checks_reject_a_perturbed_max_sinr_haf(oracle_item):
    rows, gamma, alpha, methods = oracle_item
    rows = copy.deepcopy(rows)
    ms = _row(rows, "max_sinr")
    ms["haf"] += 1e-5 * (1.0 + abs(ms["haf"]))
    problems = checks.check_static(rows, gamma, alpha, methods)
    assert any("max_sinr HAF" in p and "recomputed" in p for p in problems), problems


def test_timevary_check_rejects_a_perturbed_max_sinr_slot():
    wl = workloads.setup("timevary")
    cfg, master_seed = wl.item(5, 1)
    gammas, alpha = workloads._slot_gammas(cfg, master_seed)
    rows = [[0, k + 1, "max_sinr", checks.max_sinr_haf(g, alpha)] for k, g in enumerate(gammas)]
    assert checks.check_timevary(rows, gammas, alpha, ["max_sinr"]) == []
    rows[7][3] *= 1.0 + 1e-5
    problems = checks.check_timevary(rows, gammas, alpha, ["max_sinr"])
    assert len(problems) == 1 and "slot 8 max_sinr" in problems[0], problems


def test_own_split_meets_the_kkt_equation():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        alpha = rng.choice([0.5, 0.8, 2.0, 3.0], size=n) + rng.uniform(-0.05, 0.05, size=n)
        gh = rng.uniform(0.1, 10.0, size=n) ** ((1.0 - alpha) / alpha)
        y = checks.bs_split(gh, alpha)
        assert abs(y.sum() - 1.0) < 1e-12


def _hafnet_attributes():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "hafnet" or name.startswith("hafnet.")
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_every_wrapped_attribute(oracle_item):
    hafnet = workloads.load_hafnet()
    from hafnet import baselines, pricing, ra

    before = _hafnet_attributes()
    wl = workloads.setup("oracle")
    cfg, master_seed = wl.item(11, 0)
    inst, _, _ = hafnet.build_instance(cfg, master_seed, 0)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            # by-module and by-name lookups both see the wrapper
            assert ra.allocate is not before[("hafnet.ra", "allocate")]
            assert baselines.dual_value is not before[("hafnet.baselines", "dual_value")]
            assert pricing.haf_objective is not before[("hafnet.pricing", "haf_objective")]
            pricing.solve(inst, cfg.pricing, cfg.ra)
            raise RuntimeError("leave the traced block early")
    after = _hafnet_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert tracer.calls["ra.allocate"] == cfg.pricing.total_iters + 1
    assert tracer.counts["pricing.iterations"] == cfg.pricing.total_iters


def test_speed_factors_use_the_kernel_runs_around_each_timing():
    ref = calibrate.REF_KERNEL_S
    # five kernel runs bracket four timings; the disturbed third run moves no factor far
    factors = run.speed_factors([ref, ref, 10 * ref, ref, 2 * ref])
    assert factors == pytest.approx([1.0, 1.0, 1.0 / 1.5, 0.5])


def test_calibration_kernel_does_not_touch_hafnet():
    code = "import sys, calibrate; calibrate.kernel_seconds(); print(sorted(m for m in sys.modules if 'hafnet' in m))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run(workload):
    proc = _run_bench(HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] == workloads.ROUND
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run():
    proc = _run_bench(HERE.parent, "--workload", "oracle", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "static", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
