#!/usr/bin/env python3
"""Are the runtime optimality certificates honest? Check them against brute force.

On instances small enough to enumerate every association (5 users, 3 BSs),
compare the pricing run's certified bound with the true optimality gap. The
analytic bound must always contain the gap; it is often loose, which is the
price of computing it at runtime without knowing the optimum.
"""

import numpy as np
from dataclasses import replace

from hafnet import (
    LambdaSearchConfig,
    PricingConfig,
    brute_force,
    build_instance,
    low_fairness_config,
    pricing,
)


def main():
    base = low_fairness_config()
    cfg = replace(base, num_users=5, num_bs=3, force=True)
    pcfg = PricingConfig(eta0=0.5)
    exact = LambdaSearchConfig(bisect_tol=1e-12)

    print("seed   pricing HAF   optimal HAF   true gap   certified bound")
    loose = 0.0
    for k in range(12):
        inst, _, _ = build_instance(cfg, master_seed=11, seed_index=k)
        _, _, trace = pricing.solve(inst, pcfg, cfg.ra)
        _, best = brute_force(inst, ra_cfg=exact)
        true_gap = best - trace.best_primal
        ok = "" if true_gap <= trace.theorem2_bound + 1e-6 else "  <-- VIOLATION"
        loose = max(loose, trace.theorem2_bound - true_gap)
        print(
            f"{k:4d}   {trace.best_primal:11.4f}   {best:11.4f}"
            f"   {true_gap:8.4f}   {trace.theorem2_bound:11.4f}{ok}"
        )
    print()
    print(f"largest slack between bound and true gap: {loose:.4f}")
    print("a zero true gap with a positive bound just means the run found the")
    print("optimum before its dual prices fully settled.")


if __name__ == "__main__":
    main()
