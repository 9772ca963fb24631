"""The benchmark's three workloads: what one item is, and how it is checked.

An item is one call of a hafnet entry point on inputs drawn from its own
master seed. Items alternate the low and high fairness mixes, so a run is
made of whole rounds of two items. hafnet is imported from the checkout's
`src/` by `setup`, never from anywhere else.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NAMES = ("static", "timevary", "oracle")
ROUND = 2  # one low-mix and one high-mix item

# The experiment step size of the acceptance gate (C7): the library default
# leaves the dual visibly unconverged at 500 iterations.
EXP_ETA0 = 0.5
TIMEVARY_METHODS = ("proposed", "frozen", "two_rs", "max_sinr")
ORACLE_METHODS = ("proposed", "max_sinr", "two_rs", "ga", "brute_force")


def load_hafnet():
    """Import hafnet from the checkout's sources; refuse any other copy."""
    pkg = SRC / "hafnet"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"hafnet sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import hafnet

    if Path(hafnet.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"imported hafnet from {hafnet.__file__}, not from {pkg}")
    return hafnet


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Tuple[object, object]  # (low mix, high mix) ScenarioConfig
    run: Callable  # (cfg, master_seed, out_dir) -> rows
    check: Callable  # (cfg, master_seed, rows) -> list of problems

    def item(self, seed: int, k: int) -> Tuple[object, int]:
        """Config and master seed of item k of a run seeded with `seed`."""
        return self.configs[k % ROUND], seed * 100_000 + k


def _instance_arrays(cfg, master_seed: int):
    from hafnet import experiments

    inst, _, _ = experiments.build_instance(cfg, master_seed, 0)
    return inst.gamma, inst.alphas.alpha


def _slot_gammas(cfg, master_seed: int) -> Tuple[List, object]:
    """Every slot's gamma, rebuilt through the public channel API exactly as
    the slotted trajectory draws them."""
    from hafnet import channel, experiments

    inst, topo, fading = experiments.build_instance(cfg, master_seed, 0, rho=cfg.timevary.rho)
    gammas = [inst.gamma]
    for _ in range(cfg.timevary.num_slots - 1):
        fading = channel.evolve_fading(fading)
        gammas.append(channel.make_instance(topo, fading, inst.alphas).gamma)
    return gammas, inst.alphas.alpha


def _run_static(cfg, master_seed: int, out_dir) -> List[dict]:
    from hafnet import experiments

    return experiments.run_static_experiment(cfg, out_dir, master_seed=master_seed, threads=1)["rows"]


def _run_timevary(cfg, master_seed: int, out_dir) -> List[list]:
    from hafnet import experiments

    return experiments.run_time_varying(cfg, out_dir, master_seed=master_seed, methods=TIMEVARY_METHODS)["rows"]


def _check_static(cfg, master_seed: int, rows: Sequence[dict]) -> List[str]:
    import checks

    return checks.check_static(rows, *_instance_arrays(cfg, master_seed), cfg.methods)


def _check_oracle(cfg, master_seed: int, rows: Sequence[dict]) -> List[str]:
    import checks

    return checks.check_oracle(rows, *_instance_arrays(cfg, master_seed), cfg.methods)


def _check_timevary(cfg, master_seed: int, rows: Sequence[list]) -> List[str]:
    import checks

    return checks.check_timevary(rows, *_slot_gammas(cfg, master_seed), TIMEVARY_METHODS)


def setup(name: str) -> Workload:
    """Import hafnet and build the workload's two scenario configs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    load_hafnet()
    from hafnet.experiments import high_fairness_config, low_fairness_config
    from hafnet.pricing import PricingConfig

    if name == "static":
        # 40 users x 6 BSs, the 7 default methods, 500 iterations
        over = dict(num_seeds=1, pricing=PricingConfig(eta0=EXP_ETA0))
        run, check = _run_static, _check_static
    elif name == "timevary":
        # 100 slots, rho 0.97, 10 warm-started iterations per slot
        over = dict(num_seeds=1)
        run, check = _run_timevary, _check_timevary
    else:
        over = dict(
            num_seeds=1,
            num_users=8,
            num_bs=3,
            force=True,
            methods=ORACLE_METHODS,
            pricing=PricingConfig(eta0=EXP_ETA0),
        )
        run, check = _run_static, _check_oracle
    configs = (low_fairness_config(**over), high_fairness_config(**over))
    for cfg in configs:
        cfg.validate()
    return Workload(name, configs, run, check)

