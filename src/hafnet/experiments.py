"""Monte Carlo experiment harness and structured result files.

A ScenarioConfig pins the deployment, the fairness mix and the solver knobs.
One master seed fans out to per-(realization, purpose) child seeds through a
counter-based split, so adding or removing methods never perturbs the channel
draws and reruns are byte-identical. All results are written as CSV (9
significant digits) next to a manifest naming the emitted files.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, get_args, get_origin, get_type_hints

import numpy as np

from . import baselines, channel, metrics, pricing, ra
from .baselines import GaParams
from .core import Allocation, AlphaProfile, Association, GROUP_INTERVALS, Group, NetworkInstance, utility_vector
from .pricing import PricingConfig
from .ra import LambdaSearchConfig

#: Group mix of the low-fairness-demand scenario (uniform).
LOW_RATIOS = (0.25, 0.25, 0.25, 0.25)
#: Group mix of the high-fairness-demand scenario (skewed to A3/A4).
HIGH_RATIOS = (0.125, 0.125, 0.375, 0.375)

_PURPOSE_TOPOLOGY = 0
_PURPOSE_ALPHAS = 1
_PURPOSE_FADING = 2
_PURPOSE_RANDOM = 3
_PURPOSE_GA = 4


@dataclass(frozen=True)
class TimeVaryingConfig:
    rho: float = 0.97
    num_slots: int = 100
    iters_per_slot: int = 10
    eta0: float = 0.05  # constant step while tracking

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"timevary rho={self.rho} must lie in (0, 1]")
        if self.num_slots < 1 or self.iters_per_slot < 1:
            raise ValueError("timevary num_slots and iters_per_slot must be >= 1")
        if not 0.0 < self.eta0 < math.inf:
            raise ValueError(f"timevary eta0={self.eta0} must be positive and finite")


#: ScenarioConfig's physical domains, which force does not lift; every test fails on NaN.
_DOMAINS = (
    ("bandwidth_mhz cell_size_m carrier_ghz gamma_min pathloss_exp_macro pathloss_exp_small",
     lambda v: 0.0 < v < math.inf, "positive and finite"),
    ("cluster_radius_m shadow_sigma_db indoor_loss_db", lambda v: 0.0 <= v < math.inf, "non-negative and finite"),
    ("indoor_prob", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("noise_dbm_per_hz", math.isfinite, "finite"),
    ("macro_power_dbm small_power_dbm", lambda v: -math.inf < v[0] <= v[1] < math.inf, "finite with lo <= hi"),
    ("cluster_centers", lambda v: all(map(math.isfinite, itertools.chain(*v))), "finite"),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Deployment, fairness mix and solver settings for one experiment."""

    num_bs: int = 6
    num_users: int = 40
    bandwidth_mhz: float = 20.0
    cell_size_m: float = 250.0
    noise_dbm_per_hz: float = -174.0
    indoor_prob: float = 0.5
    macro_power_dbm: Tuple[float, float] = (33.0, 36.0)
    small_power_dbm: Tuple[float, float] = (23.0, 30.0)
    carrier_ghz: float = 2.0
    pathloss_exp_macro: float = 3.76
    pathloss_exp_small: float = 3.19
    shadow_sigma_db: float = 8.0
    indoor_loss_db: float = 20.0
    cluster_centers: Tuple[Tuple[float, float], ...] = ((0.25, 0.25), (0.75, 0.25), (0.25, 0.75))
    cluster_radius_m: float = 30.0
    gamma_min: float = 1e-6
    alpha_ratios: Tuple[float, float, float, float] = LOW_RATIOS
    num_seeds: int = 1000
    methods: Tuple[str, ...] = ("proposed", "max_sinr", "pf", "af_low", "af_high", "min_latency", "random")
    force: bool = False
    pricing: PricingConfig = field(default_factory=PricingConfig)
    ra: LambdaSearchConfig = field(default_factory=LambdaSearchConfig)
    timevary: TimeVaryingConfig = field(default_factory=TimeVaryingConfig)
    ga: GaParams = field(default_factory=GaParams)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject inconsistent mixes and meaningless values; range-check deployment fields unless forced."""
        if len(self.alpha_ratios) != 4:
            raise ValueError("alpha_ratios needs one entry per group")
        if not all(r >= 0.0 for r in self.alpha_ratios):
            raise ValueError("alpha_ratios must be non-negative")
        if not abs(sum(self.alpha_ratios) - 1.0) <= 1e-9:
            raise ValueError("alpha_ratios must sum to 1")
        if min(self.num_seeds, self.num_bs, self.num_users) < 1:
            raise ValueError("num_seeds, num_bs and num_users must each be >= 1")
        _check_methods(self.methods, available_methods())
        if "brute_force" in self.methods:
            baselines.check_brute_force_size(self.num_users, self.num_bs)
        if self.num_bs > 1 and not self.cluster_centers:  # ceil(J/10) < J macros once J > 1: small cells exist
            raise ValueError("cluster_centers must name a center for the small cells")
        for names, ok, rule in _DOMAINS:
            for name in names.split():
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name}={getattr(self, name)} must be {rule}")
        if self.force:
            return
        # deployment fields are pinned to the reference ranges unless forced
        pinned = [
            ("num_bs", self.num_bs, 6, 6),
            ("num_users", self.num_users, 40, 60),
            ("bandwidth_mhz", self.bandwidth_mhz, 20.0, 20.0),
            ("cell_size_m", self.cell_size_m, 250.0, 250.0),
            ("noise_dbm_per_hz", self.noise_dbm_per_hz, -174.0, -174.0),
            ("indoor_prob", self.indoor_prob, 0.5, 0.5),
        ]
        for name, val, lo, hi in pinned:
            if not (lo <= val <= hi):
                raise ValueError(f"{name}={val} outside [{lo}, {hi}] (set force=true to override)")
        if tuple(self.macro_power_dbm) != (33.0, 36.0) or tuple(self.small_power_dbm) != (23.0, 30.0):
            raise ValueError("power tiers differ from the reference ranges (set force=true to override)")


def low_fairness_config(**overrides) -> ScenarioConfig:
    return replace(ScenarioConfig(alpha_ratios=LOW_RATIOS), **overrides)


def high_fairness_config(**overrides) -> ScenarioConfig:
    return replace(ScenarioConfig(alpha_ratios=HIGH_RATIOS), **overrides)


# ---------------------------------------------------------------- seeding ---


def child_seed(master_seed: int, *tags: int) -> int:
    """Counter-based seed split: stable per (master, tags), order-free.
    A negative master seed or tag raises ValueError naming it."""
    entropy = (int(master_seed),) + tuple(int(t) for t in tags)
    if entropy[0] < 0:
        raise ValueError(f"master_seed={master_seed} must be >= 0")
    if min(entropy) < 0:
        raise ValueError(f"seed tags {entropy[1:]} must be >= 0")
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


def sample_alphas(cfg: ScenarioConfig, seed: int) -> AlphaProfile:
    """Draw each user's group by the configured ratios, then its exponent
    uniformly inside the group interval. Deterministic given (cfg, seed)."""
    rng = np.random.default_rng(seed)
    p = np.asarray(cfg.alpha_ratios, dtype=float)
    groups = rng.choice(4, size=cfg.num_users, p=p)
    lo = np.array([GROUP_INTERVALS[Group(k)][0] for k in range(4)])
    hi = np.array([GROUP_INTERVALS[Group(k)][1] for k in range(4)])
    u = rng.random(cfg.num_users)
    alpha = lo[groups] + u * (hi[groups] - lo[groups])
    prof = AlphaProfile(alpha=alpha, group=groups)
    prof.validate()
    return prof


def build_instance(
    cfg: ScenarioConfig,
    master_seed: int,
    seed_index: int,
    rho: float = 1.0,
) -> Tuple[NetworkInstance, channel.Topology, channel.FadingState]:
    """One full realization: topology, fairness profile, initial fading."""
    topo = channel.generate_topology(cfg, child_seed(master_seed, seed_index, _PURPOSE_TOPOLOGY))
    prof = sample_alphas(cfg, child_seed(master_seed, seed_index, _PURPOSE_ALPHAS))
    fading = channel.make_fading(
        cfg.num_users, cfg.num_bs, rho, child_seed(master_seed, seed_index, _PURPOSE_FADING)
    )
    inst = channel.make_instance(topo, fading, prof)
    return inst, topo, fading


# ---------------------------------------------------------------- methods ---

#: The pricing methods' rules by name: the proposed rule and the baselines'.
_RULES = {"proposed": pricing.PROPOSED, **baselines.RULES}
_PRICING = tuple(_RULES)


def available_methods() -> Tuple[str, ...]:
    return _PRICING + ("max_sinr", "random", "two_rs", "ga", "brute_force")


def _check_methods(methods: Sequence[str], allowed: Sequence[str]) -> None:
    """Reject an empty method list, a name outside allowed and a repeated name."""
    if not methods:
        raise ValueError("methods must name at least one method")
    for k, m in enumerate(methods):
        if m not in allowed:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(allowed)}")
        if m in methods[:k]:
            raise ValueError(f"method {m!r} is named twice")


def run_method(
    name: str,
    inst: NetworkInstance,
    cfg: ScenarioConfig,
    master_seed: int,
    seed_index: int,
) -> Tuple[np.ndarray, Optional[pricing.RunTrace]]:
    """Dispatch one method on one instance: its association as an (I,) BS
    array (a pricing method's best-primal one) and, for a pricing method
    only, its trace."""
    if name == "proposed":
        assoc, _, trace = pricing.solve(inst, cfg.pricing, cfg.ra)
        return assoc.bs_of_user, trace
    if name in _PRICING:
        assoc, _, trace = baselines.run_pricing_baseline(inst, name, cfg.pricing, cfg.ra)
        return assoc.bs_of_user, trace
    if name == "max_sinr":
        return baselines.run_max_sinr(inst), None
    if name == "random":
        return baselines.run_random(inst, child_seed(master_seed, seed_index, _PURPOSE_RANDOM)), None
    if name == "two_rs":
        return baselines.run_2rs(inst, baselines.run_max_sinr(inst), ra_cfg=cfg.ra), None
    if name == "ga":
        return baselines.run_ga(inst, cfg.ga, child_seed(master_seed, seed_index, _PURPOSE_GA), cfg.ra), None
    if name == "brute_force":
        return baselines.brute_force(inst, cfg.ra)[0], None
    raise ValueError(f"unknown method {name!r}")


# ------------------------------------------------------------------- CSVs ---
# Every metric column comes from metrics.COLUMNS; these tables only add keys,
# certificate columns and the statistics taken over seeds.

#: The headline metric, whose spread the summary and the sweep also report.
_HAF = metrics.METRICS[0]
#: The pricing methods' certificate columns; blank for the other methods.
_CERT_COLUMNS = ["best_dual", "empirical_gap", "theorem2_bound"]
#: Per-seed columns the summary reports by their mean only.
_MEAN_ONLY = [f"{_HAF}_{g}" for g in metrics.GROUPS] + _CERT_COLUMNS

PER_SEED_COLUMNS = ["seed", "method", *metrics.COLUMNS, *_CERT_COLUMNS]
SUMMARY_COLUMNS = ["method", "n_seeds", f"{_HAF}_mean", f"{_HAF}_std"] + [f"{c}_mean" for c in _MEAN_ONLY]
GROUP_METRIC_COLUMNS = ["method", "group", "metric", "mean", "std", "n_seeds"]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("refusing to emit a non-finite value")
    return f"{x:.9g}"


def write_tables(out, tables: Dict[str, Tuple[Sequence[str], Iterable]]) -> List[Path]:
    """Write each named CSV under out, then a manifest.txt naming exactly the
    files written; returns the CSV paths. A row is a sequence in header order
    or a dict keyed by the header."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(out / name, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                values = [row[c] for c in header] if isinstance(row, dict) else row
                fh.write(",".join(_fmt(v) for v in values) + "\n")
    (out / "manifest.txt").write_text("".join(n + "\n" for n in sorted([*tables, "manifest.txt"])))
    return [out / name for name in tables]


def _run_one_seed(cfg: ScenarioConfig, master_seed: int, seed_index: int) -> List[dict]:
    """One realization's rows. Every method gives its association, and all
    of them are solved in one `ra.solve_stacked` call, whose row p equals
    `ra.allocate` of association p bit for bit; each row reports that."""
    inst, _, _ = build_instance(cfg, master_seed, seed_index)
    runs = [run_method(name, inst, cfg, master_seed, seed_index) for name in cfg.methods]
    bs = np.array([b for b, _ in runs])
    gains = inst.gamma_hat[np.arange(inst.num_users), bs]
    share, s = ra.solve_stacked(gains, inst.alphas.alpha, bs, inst.num_bs, cfg.ra)
    rows = []
    for name, (b, trace), y, s_row in zip(cfg.methods, runs, share, s):
        cert = (None,) * 3 if trace is None else (trace.best_dual, trace.empirical_gap, trace.theorem2_bound)
        rows.append({
            "seed": seed_index,
            "method": name,
            **metrics.report(inst, Association(b), Allocation(share=y, lam=np.exp(s_row))),
            **{col: "" if v is None else v for col, v in zip(_CERT_COLUMNS, cert)},
        })
    return rows


def _seed_worker(args) -> List[dict]:
    return _run_one_seed(*args)


def _collect_rows(cfg: ScenarioConfig, master_seed: int, threads: int) -> List[dict]:
    tasks = [(cfg, master_seed, s) for s in range(cfg.num_seeds)]
    if threads > 1:
        # imported here: it loads multiprocessing, which one process never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_seed_worker, tasks))
    else:
        chunks = [_run_one_seed(*t) for t in tasks]
    return [row for chunk in chunks for row in chunk]


def _stats(rows: List[dict], method: str, col: str) -> Tuple[int, object, float]:
    """Over method's rows that define col: their count, the mean ("" if none)
    and the sample std (0 below two rows)."""
    vals = [r[col] for r in rows if r["method"] == method and r[col] != ""]
    mean = float(np.mean(vals)) if vals else ""
    return len(vals), mean, float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0


def summarize(rows: List[dict], methods: Sequence[str]) -> List[dict]:
    """Per-method summary: seed count, HAF mean/sample std, group means,
    certificate column means where defined."""
    out = []
    for name in methods:
        n, mean, std = _stats(rows, name, _HAF)
        summary = {"method": name, "n_seeds": n, f"{_HAF}_mean": mean, f"{_HAF}_std": std}
        summary.update((f"{c}_mean", _stats(rows, name, c)[1]) for c in _MEAN_ONLY)
        out.append(summary)
    return out


def group_metric_rows(rows: List[dict], methods: Sequence[str]) -> List[list]:
    """Long-form per-group table over every metric after HAF, whose group
    means the summary holds."""
    out = []
    for name in methods:
        for g in metrics.GROUPS:
            for metric_name in metrics.METRICS[1:]:
                n, mean, std = _stats(rows, name, f"{metric_name}_{g}")
                out.append([name, g.upper(), metric_name, mean, std, n])
    return out


def _check_run(master_seed: int, threads: int = 1) -> None:
    """Reject a negative master seed or fewer than one thread, before any output."""
    if master_seed < 0:
        raise ValueError(f"master_seed={master_seed} must be >= 0")
    if threads < 1:
        raise ValueError(f"threads={threads} must be >= 1")


def run_static_experiment(
    cfg: ScenarioConfig,
    out_dir,
    master_seed: int = 0,
    threads: int = 1,
) -> dict:
    """Monte Carlo over cfg.num_seeds realizations; one row per (seed, method).

    Writes static_per_seed.csv, static_summary.csv, static_group_metrics.csv
    and manifest.txt under out_dir. Fails before any computation if the
    output directory cannot be created or written.
    """
    _check_run(master_seed, threads)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.txt").touch()  # surface I/O errors before the compute starts

    rows = _collect_rows(cfg, master_seed, threads)
    summary = summarize(rows, cfg.methods)
    files = write_tables(out, {
        "static_per_seed.csv": (PER_SEED_COLUMNS, rows),
        "static_summary.csv": (SUMMARY_COLUMNS, summary),
        "static_group_metrics.csv": (GROUP_METRIC_COLUMNS, group_metric_rows(rows, cfg.methods)),
    })
    return {"rows": rows, "summary": summary, "files": files}


def sweep_configs(cfg: ScenarioConfig, user_counts: Sequence[int]) -> List[ScenarioConfig]:
    """cfg at each user count. Raises ValueError for an empty or repeated
    count, or for a count that cfg's checks reject."""
    counts = [int(c) for c in user_counts]
    if not counts:
        raise ValueError("user_counts must name at least one count")
    if len(set(counts)) < len(counts):
        raise ValueError(f"user_counts {counts} name a count twice")
    return [replace(cfg, num_users=count) for count in counts]


def run_user_sweep(
    cfg: ScenarioConfig,
    user_counts: Sequence[int],
    out_dir,
    master_seed: int = 0,
    threads: int = 1,
) -> dict:
    """Re-run the static experiment at each user count; mean HAF with a
    normal-approximation 95% interval per method. Every count's config is
    built (see sweep_configs) before anything runs or is written."""
    configs = sweep_configs(cfg, user_counts)
    _check_run(master_seed, threads)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sweep_rows = []
    for sweep_cfg in configs:
        rows = _collect_rows(sweep_cfg, master_seed, threads)
        for name in cfg.methods:
            n, mean, std = _stats(rows, name, _HAF)
            sweep_rows.append([sweep_cfg.num_users, name, n, mean, 1.96 * std / math.sqrt(n) if n else 0.0])
    header = ["users", "method", "n_seeds", f"{_HAF}_mean", f"{_HAF}_ci95"]
    return {"rows": sweep_rows, "files": write_tables(out, {"sweep.csv": (header, sweep_rows)})}


_TV_METHODS = ("proposed", "frozen", "two_rs")


def timevary_methods(methods: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """The slotted run's methods: the default list, or methods once checked."""
    methods = tuple(methods) if methods is not None else _TV_METHODS
    _check_methods(methods, _PRICING + ("frozen", "two_rs", "max_sinr", "random"))
    return methods


#: Slots per block of a slotted run: a block's instances are built together,
#: and its solves and its HAF scores each take one numpy pass.
_SLOT_BLOCK = 25


def run_time_varying(
    cfg: ScenarioConfig,
    out_dir,
    master_seed: int = 0,
    methods: Optional[Sequence[str]] = None,
) -> dict:
    """Slotted operation over a Gauss-Markov fading process.

    The pricing methods warm-start each slot from their prices alone, so a
    slot starts at the association those prices induce on the new channels,
    and walk iters_per_slot iterations of `pricing.walk` with a constant
    step; 2RS applies one improving move per slot. The frozen reference
    keeps the association adaptive pricing reached at the end of slot 1.
    A row is the tuple (seed, slot, method, HAF) of a method's end-of-slot
    association. A slotted run reads only where each walk ends, so no
    walk's iterates are solved, scored or given a dual, and no certificate
    is computed.

    Slots go in blocks of _SLOT_BLOCK, whose instances are built first.
    Every method gives one BS array per slot, and the block's (slot, method)
    rows are solved in one `ra.solve_stacked` call and scored in one stacked
    utility pass with a row sum, each rounded as its own `ra.allocate` and
    `haf_objective` would, so the rows do not depend on the block size.
    """
    tv = cfg.timevary
    methods = timevary_methods(methods)
    _check_run(master_seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    slot_cfg = replace(cfg.pricing, total_iters=tv.iters_per_slot, eta0=tv.eta0, eta_schedule="constant")
    I, J = cfg.num_users, cfg.num_bs
    rows = []
    for s in range(cfg.num_seeds):
        inst, topo, fading = build_instance(cfg, master_seed, s, rho=tv.rho)
        alpha = inst.alphas.alpha
        # a pricing method's prices, or the association frozen and 2RS keep
        state: Dict[str, Optional[np.ndarray]] = dict.fromkeys(methods)
        for first in range(1, tv.num_slots + 1, _SLOT_BLOCK):
            slots = range(first, min(first + _SLOT_BLOCK, tv.num_slots + 1))
            insts = []
            for slot in slots:
                if slot > 1:
                    fading = channel.evolve_fading(fading)
                    inst = channel.make_instance(topo, fading, inst.alphas)
                insts.append(inst)
            # bs[k, n]: method n's association at the end of slot k
            bs = np.empty((len(slots), len(methods), I), dtype=int)
            for k, (slot, inst) in enumerate(zip(slots, insts)):
                for n, m in enumerate(methods):
                    st = state[m]
                    if m in _RULES:
                        w = pricing.walk(inst, _RULES[m], slot_cfg, mu0=st)
                        state[m], bs[k, n] = w.mu_final, w.bs_final
                    elif m == "frozen":
                        if st is None:
                            state[m] = pricing.walk(inst, pricing.PROPOSED, slot_cfg).bs_final
                        bs[k, n] = state[m]
                    elif m == "two_rs":
                        start = baselines.run_max_sinr(inst) if st is None else st
                        state[m] = bs[k, n] = baselines.run_2rs(inst, start, adaptive=True, ra_cfg=cfg.ra)
                    elif m == "max_sinr":
                        bs[k, n] = baselines.run_max_sinr(inst)
                    else:  # random, fresh draw each slot
                        bs[k, n] = baselines.run_random(inst, child_seed(master_seed, s, _PURPOSE_RANDOM, slot))
            at = (np.arange(len(slots))[:, None, None], np.arange(I), bs)  # each row's (slot, user, BS) links
            gains = np.stack([i.gamma_hat for i in insts])[at].reshape(-1, I)
            share, _ = ra.solve_stacked(gains, alpha, bs.reshape(-1, I), J, cfg.ra)
            rates = np.stack([i.gamma for i in insts])[at].reshape(-1, I) * share
            haf = utility_vector(rates, alpha).sum(axis=1).tolist()
            rows.extend((s, slot, m, h) for (slot, m), h in zip(itertools.product(slots, methods), haf))

    files = write_tables(out, {"timevary.csv": (["seed", "slot", "method", _HAF], rows)})
    return {"rows": rows, "files": files}


def emit_convergence_trace(trace: pricing.RunTrace, path) -> Path:
    """Write one run's (iteration, primal, dual, gap) rows, header-only when
    the trace is empty, and a manifest.txt beside them."""
    path = Path(path)
    rows = (
        [t + 1, trace.primal[t], trace.dual[t], trace.dual[t] - trace.primal[t]]
        for t in range(len(trace))
    )
    return write_tables(path.parent, {path.name: (["iter", "primal_haf", "dual_value", "gap"], rows)})[0]


# ------------------------------------------------------------ config file ---
# Keys are the dataclass field names. Each nested dataclass of ScenarioConfig
# gets the section named after its field; the other fields go in [scenario].
# Tuples are comma lists, with the pairs inside a tuple written x:y.

#: Keys that older versions saved and no field reads any more: the digit-search
#: schedule, now a constant of the tests' reference. load_config drops them.
_RETIRED_KEYS = {"ra": ("initial_step", "outer_iters", "inner_iters")}


def _sections(cfg: ScenarioConfig) -> Dict[str, object]:
    nested = {f.name: getattr(cfg, f.name) for f in fields(cfg) if is_dataclass(getattr(cfg, f.name))}
    return {"scenario": cfg, **nested}


def _encode(value, seps: str = ",:") -> str:
    if isinstance(value, tuple):
        return seps[0].join(_encode(v, seps[1:]) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else repr(value)


def _decode(raw: str, tp, seps: str = ",:"):
    if get_origin(tp) is tuple:
        parts = [p for p in raw.split(seps[0]) if p.strip()]
        types = get_args(tp)
        if types[-1] is Ellipsis:
            types = types[:1] * len(parts)
        elif len(parts) != len(types):
            raise ValueError(f"expected {len(types)} entries")
        return tuple(_decode(p, t, seps[1:]) for p, t in zip(parts, types))
    if tp is bool:
        if raw.lower() not in ("true", "false", "1", "0", "yes", "no"):
            raise ValueError(raw)
        return raw.lower() in ("true", "1", "yes")
    return tp(raw.strip())  # int, float or str


def save_config(cfg: ScenarioConfig, path) -> Path:
    """Serialize to a flat INI file; load_config(save_config(cfg)) == cfg."""
    parser = configparser.ConfigParser()
    for section, obj in _sections(cfg).items():
        parser[section] = {
            f.name: _encode(getattr(obj, f.name)) for f in fields(obj) if not is_dataclass(getattr(obj, f.name))
        }
    path = Path(path)
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def load_config(path) -> ScenarioConfig:
    """Parse an INI scenario file, reading values literally (no % interpolation).
    The retired keys in _RETIRED_KEYS are read and dropped, so files that
    older versions saved still load. Other unknown sections or keys and
    malformed values raise ValueError naming the offending key; a malformed
    file raises ValueError too, and a missing or unreadable one
    FileNotFoundError naming the path."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as err:  # a duplicate key or section, a line outside any section
        raise ValueError(f"malformed config file: {err}") from None
    if not read:
        raise FileNotFoundError(f"cannot read config file {path}")
    defaults = _sections(ScenarioConfig())
    for section in parser.sections():
        if section not in defaults:
            raise ValueError(f"unknown config section [{section}]")

    values = {}
    for section, template in defaults.items():
        types = get_type_hints(type(template))
        vals = {}
        for key, raw in parser[section].items() if parser.has_section(section) else ():
            if key in _RETIRED_KEYS.get(section, ()):
                continue
            if key not in types or is_dataclass(types[key]):
                raise ValueError(f"unknown config key [{section}] {key}")
            try:
                vals[key] = _decode(raw, types[key])
            except ValueError:
                raise ValueError(f"malformed config value [{section}] {key} = {raw!r}") from None
        values[section] = replace(template, **vals)
    return replace(values.pop("scenario"), **values)
