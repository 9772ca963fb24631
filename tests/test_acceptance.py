"""Acceptance gate: ten end-to-end checks, one verdict line each.

The heavy Monte Carlo lives here rather than in the unit modules; the full
file takes a few minutes of wall time on one core. Each check prints a
PASS/FAIL line (visible under -s) and asserts the same condition, so the -v
report carries one verdict per check either way.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_instance, random_instance
from hafnet import (
    Association,
    LambdaSearchConfig,
    PricingConfig,
    TimeVaryingConfig,
    allocate,
    bootstrap_mean_lower,
    brute_force,
    build_instance,
    high_fairness_config,
    kkt_residual,
    low_fairness_config,
    run_static_experiment,
    run_time_varying,
    save_config,
    solve_lambda_bisect,
    solve_lambda_digit,
    theorem1_check,
)
from hafnet import pricing

PRICING_BASELINES = ("pf", "af_low", "af_high", "min_latency")
ALL_METHODS = ("proposed", "max_sinr", "random") + PRICING_BASELINES

# step size used by every experiment-scale run below; the library default
# (0.05) is gentler but leaves the dual visibly unconverged at T=500
EXP_ETA0 = 0.5


def _verdict(label: str, ok: bool, detail: str) -> str:
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def subproblems():
    # 10^3 single-BS instances: 1-8 users, gamma in [0.1, 10], group alphas
    rng = np.random.default_rng(90210)
    probs = []
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        probs.append(random_instance(rng, n, 1))
    return probs


@pytest.fixture(scope="module")
def low_static(out_root):
    cfg = low_fairness_config(
        num_seeds=100, methods=ALL_METHODS, pricing=PricingConfig(eta0=EXP_ETA0)
    )
    return run_static_experiment(cfg, out_root / "static_low", master_seed=0)


@pytest.fixture(scope="module")
def high_static(out_root):
    cfg = high_fairness_config(
        num_seeds=100, methods=ALL_METHODS, pricing=PricingConfig(eta0=EXP_ETA0)
    )
    return run_static_experiment(cfg, out_root / "static_high", master_seed=0)


def _by_method(rows, col):
    """{method: np.array of per-seed col values, seed-ordered}."""
    seeds = sorted({r["seed"] for r in rows})
    table = {}
    for m in {r["method"] for r in rows}:
        vals = {r["seed"]: r[col] for r in rows if r["method"] == m}
        table[m] = np.array([vals[s] for s in seeds])
    return table


def test_c01_ra_exactness(subproblems):
    t0 = time.perf_counter()
    worst_share = 0.0
    worst_resid = 0.0
    for inst in subproblems:
        assoc = Association(np.zeros(inst.num_users, dtype=int))
        alloc = allocate(inst, assoc)
        worst_share = max(worst_share, abs(float(alloc.y[:, 0].sum()) - 1.0))
        worst_resid = max(worst_resid, abs(kkt_residual(inst, assoc, 0, float(alloc.lam[0]))))
    elapsed = time.perf_counter() - t0
    ok = worst_share <= 1e-6 and worst_resid <= 1e-8 and elapsed < 1.0
    line = _verdict(
        "C1 RA exactness",
        ok,
        f"|sum y - 1| <= {worst_share:.2e}, |residual| <= {worst_resid:.2e}, {elapsed:.2f}s",
    )
    assert ok, line


def test_c02_solver_agreement(subproblems):
    worst = 0.0
    for inst in subproblems:
        assoc = Association(np.zeros(inst.num_users, dtype=int))
        lam_d = solve_lambda_digit(inst, assoc, 0)
        lam_b = solve_lambda_bisect(inst, assoc, 0)
        worst = max(worst, abs(lam_d - lam_b) / lam_b)
    ok = worst <= 1e-5
    line = _verdict("C2 solver agreement", ok, f"worst relative disagreement {worst:.2e}")
    assert ok, line


def test_c03_closed_forms():
    rng = np.random.default_rng(3)

    # single user: lam = gamma^(1-alpha)
    worst_single = 0.0
    for _ in range(200):
        gamma = float(rng.uniform(0.1, 10.0))
        alpha = float(rng.uniform(0.4, 3.25))
        if abs(alpha - 1.0) < 0.05:
            continue
        inst = make_instance([[gamma]], [alpha])
        lam = solve_lambda_bisect(inst, Association(np.array([0])), 0)
        worst_single = max(worst_single, abs(lam - gamma ** (1.0 - alpha)) / gamma ** (1.0 - alpha))

    # equal alpha: y_i = gamma_hat_i / sum(gamma_hat)
    worst_share = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        alpha = float(rng.uniform(0.4, 3.25))
        if abs(alpha - 1.0) < 0.05:
            continue
        gamma = rng.uniform(0.1, 10.0, size=(n, 1))
        inst = make_instance(gamma, [alpha] * n)
        alloc = allocate(inst, Association(np.zeros(n, dtype=int)))
        gh = inst.gamma_hat[:, 0]
        worst_share = max(worst_share, float(np.max(np.abs(alloc.y[:, 0] - gh / gh.sum()))))

    # alpha -> 1 with equal gamma: even split
    worst_even = 0.0
    for n in (2, 4, 8):
        inst = make_instance([[3.7]] * n, [0.999] * n)
        alloc = allocate(inst, Association(np.zeros(n, dtype=int)))
        worst_even = max(worst_even, float(np.max(np.abs(alloc.y[:, 0] - 1.0 / n))))

    ok = worst_single <= 1e-9 and worst_share <= 1e-9 and worst_even <= 1e-3
    line = _verdict(
        "C3 closed-form reductions",
        ok,
        f"single-user {worst_single:.2e}, equal-alpha {worst_share:.2e}, near-log split {worst_even:.2e}",
    )
    assert ok, line


def test_c04_weak_duality():
    violations = 0
    worst_margin = np.inf
    pcfg = PricingConfig(eta0=EXP_ETA0)
    for k in range(100):
        cfg = low_fairness_config() if k % 2 == 0 else high_fairness_config()
        inst, _, _ = build_instance(cfg, master_seed=4, seed_index=k)
        _, _, trace = pricing.solve(inst, pcfg, cfg.ra)
        slack = trace.dual - trace.primal + 1e-6 * (1.0 + np.abs(trace.dual))
        violations += int(np.sum(slack < 0.0))
        worst_margin = min(worst_margin, float(np.min(trace.dual - trace.primal)))
    ok = violations == 0
    line = _verdict(
        "C4 weak duality",
        ok,
        f"0 violations required over 100 runs x 500 iters, saw {violations}; "
        f"tightest dual-primal margin {worst_margin:.3g}",
    )
    assert ok, line


def test_c05_brute_force_optimality():
    # downsized draws from the experiment channel model keep exhaustive search feasible
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    pcfg = PricingConfig(eta0=EXP_ETA0)
    exact = LambdaSearchConfig(bisect_tol=1e-12)
    n_within = 0
    certificate_ok = True
    worst_excess = -np.inf
    for k in range(200):
        base = low_fairness_config() if k % 2 == 0 else high_fairness_config()
        cfg = replace(
            base,
            num_users=int(rng.integers(3, 7)),
            num_bs=int(rng.integers(2, 4)),
            force=True,
        )
        inst, _, _ = build_instance(cfg, master_seed=5, seed_index=k)
        _, _, trace = pricing.solve(inst, pcfg, cfg.ra)
        _, _, best = brute_force(inst, ra_cfg=exact)
        excess = best - trace.theorem2_bound - 1e-6 - trace.best_primal
        worst_excess = max(worst_excess, excess)
        if excess > 0:
            certificate_ok = False
        if trace.best_primal >= best - 0.01 * abs(best):
            n_within += 1
    elapsed = time.perf_counter() - t0
    ok = certificate_ok and n_within >= 190 and elapsed < 60.0
    line = _verdict(
        "C5 brute-force optimality",
        ok,
        f"certified on all 200 (worst slack violation {worst_excess:.3g}), "
        f"{n_within}/200 within 1% of exhaustive optimum, {elapsed:.1f}s",
    )
    assert ok, line


def test_c06_convergence_envelope():
    pcfg = PricingConfig(eta0=EXP_ETA0)
    n_ok = 0
    for k in range(50):
        cfg = low_fairness_config() if k % 2 == 0 else high_fairness_config()
        inst, _, _ = build_instance(cfg, master_seed=6, seed_index=k)
        _, _, trace = pricing.solve(inst, pcfg, cfg.ra)
        if theorem1_check(inst, trace, cfg=pcfg, ra_cfg=cfg.ra):
            n_ok += 1
    ok = n_ok == 50
    line = _verdict("C6 convergence envelope", ok, f"{n_ok}/50 calibrated reruns inside the bound")
    assert ok, line


def _ordering_check(rows, label):
    table = _by_method(rows, "haf")
    lowers = {}
    for b in ("max_sinr", "random") + PRICING_BASELINES:
        lowers[b] = bootstrap_mean_lower(table["proposed"] - table[b])
    ok = all(v > 0.0 for v in lowers.values())
    detail = ", ".join(f"vs {b} {v:+.3g}" for b, v in lowers.items())
    return ok, f"{label}: 95% lower confidence bounds on mean HAF gap: {detail}"


def test_c07_method_ordering(low_static, high_static):
    t0 = time.perf_counter()
    ok_low, detail_low = _ordering_check(low_static["rows"], "low")
    ok_high, detail_high = _ordering_check(high_static["rows"], "high")
    elapsed = time.perf_counter() - t0
    ok = ok_low and ok_high
    line = _verdict("C7 method ordering", ok, f"{detail_low}; {detail_high}")
    assert ok, line
    assert elapsed < 600.0


def test_c08_group_dominance(low_static):
    # HAF promises a trade-off between groups, not a win on every group metric:
    # the A4 rate floor must rise over pf with 95% confidence, and no pricing
    # baseline may be at least as good on both A1 sum-rate and A4 min-rate.
    rows = low_static["rows"]
    a4 = _by_method(rows, "min_rate_a4")
    a1 = _by_method(rows, "sum_rate_a1")

    floor_lower = bootstrap_mean_lower(a4["proposed"] - a4["pf"])
    floor_ok = floor_lower > 0.0
    ratio = a4["proposed"].mean() / a4["pf"].mean()

    prop_a1, prop_a4 = a1["proposed"].mean(), a4["proposed"].mean()
    dominating = [
        b for b in PRICING_BASELINES if a1[b].mean() >= prop_a1 and a4[b].mean() >= prop_a4
    ]
    tradeoff_ok = not dominating

    ok = floor_ok and tradeoff_ok
    line = _verdict(
        "C8 group dominance",
        ok,
        f"a4 floor vs pf {'PASS' if floor_ok else 'FAIL'}: 95% lower bound on mean "
        f"min-rate gain {floor_lower:+.3g} (need > 0), ratio proposed/pf = {ratio:.3f}; "
        f"a1/a4 trade-off {'PASS' if tradeoff_ok else 'FAIL'}: a1 sum-rate proposed "
        f"{prop_a1:.4g} vs "
        + ", ".join(f"{b}={a1[b].mean():.4g}" for b in PRICING_BASELINES)
        + "; baselines at least as good on both a1 sum-rate and a4 min-rate: "
        + (", ".join(dominating) or "none"),
    )
    assert ok, line


def test_c09_time_varying_adaptivity(out_root):
    cfg = low_fairness_config(
        num_seeds=30,
        pricing=PricingConfig(eta0=EXP_ETA0),
        timevary=TimeVaryingConfig(rho=0.9, num_slots=200, iters_per_slot=10, eta0=EXP_ETA0),
    )
    res = run_time_varying(cfg, out_root / "timevary", master_seed=0)
    per_seed = {}  # method -> seed -> mean haf over slots
    for seed, _, method, haf in res["rows"]:
        per_seed.setdefault(method, {}).setdefault(seed, []).append(haf)
    means = {
        m: np.array([np.mean(per_seed[m][s]) for s in sorted(per_seed[m])]) for m in per_seed
    }
    lower_frozen = bootstrap_mean_lower(means["proposed"] - means["frozen"])
    lower_2rs = bootstrap_mean_lower(means["proposed"] - means["two_rs"])
    ok = lower_frozen >= 0.0 and lower_2rs >= 0.0
    line = _verdict(
        "C9 time-varying adaptivity",
        ok,
        f"95% lower bounds on mean HAF gap: vs frozen {lower_frozen:+.4g}, vs one-move local search {lower_2rs:+.4g}",
    )
    assert ok, line


def test_c10_determinism_hygiene(out_root):
    cfg = low_fairness_config(
        num_seeds=4,
        methods=("proposed", "max_sinr", "random"),
        pricing=PricingConfig(total_iters=60, eta0=EXP_ETA0),
    )
    ini = out_root / "determinism.ini"
    save_config(cfg, ini)
    dirs = [out_root / "det_a", out_root / "det_b"]
    for d in dirs:
        proc = subprocess.run(
            [sys.executable, "-m", "hafnet", "static", "--seed", "42",
             "--config", str(ini), "--out", str(d)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    mismatched = [
        n for n in names if (dirs[0] / n).read_bytes() != (dirs[1] / n).read_bytes()
    ]

    # every CSV emitted by this module, plus the two CLI runs above
    dirty = []
    for path in sorted(out_root.rglob("*.csv")):
        text = path.read_text().lower()
        if "nan" in text or "inf" in text:
            dirty.append(str(path.relative_to(out_root)))

    ok = not mismatched and not dirty
    line = _verdict(
        "C10 determinism and hygiene",
        ok,
        f"repeat CLI run byte-identical across {len(names)} files"
        + (f" EXCEPT {mismatched}" if mismatched else "")
        + f"; non-finite tokens in {dirty or 'no emitted CSV'}",
    )
    assert ok, line
