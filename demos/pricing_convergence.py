#!/usr/bin/env python3
"""Watch the pricing loop converge on one network realization.

Builds a 40-user, 6-BS instance from the low-fairness scenario, runs the
distributed price iteration, and prints the primal objective, the dual upper
bound, and the association churn at a few checkpoints. Ends with the duality
gap certificate computed from the best iterates.

    python3 demos/pricing_convergence.py [--seed N] [--eta0 X]
"""

import argparse

from hafnet import PricingConfig, build_instance, low_fairness_config, pricing


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--eta0", type=float, default=0.5)
    ap.add_argument("--iters", type=int, default=500)
    args = ap.parse_args()

    cfg = low_fairness_config()
    inst, _, _ = build_instance(cfg, master_seed=args.seed, seed_index=0)
    pcfg = PricingConfig(total_iters=args.iters, eta0=args.eta0)
    assoc, alloc, trace = pricing.solve(inst, pcfg, cfg.ra)

    print(f"instance: {inst.num_users} users, {inst.num_bs} BSs, seed {args.seed}")
    print(f"price step eta0={args.eta0}, diminishing schedule, T={args.iters}")
    print()
    print(" iter   primal HAF   dual bound      gap   assoc moves")
    checkpoints = sorted({1, 2, 5, 10, 20, 50, 100, 200, args.iters})
    for t in checkpoints:
        if t > len(trace):
            continue
        k = t - 1
        print(
            f"{t:5d}   {trace.primal[k]:10.4f}   {trace.dual[k]:10.4f}"
            f"   {trace.dual[k] - trace.primal[k]:6.3f}   {int(trace.assoc_changes[k]):4d}"
        )
    print()
    print(f"best primal {trace.best_primal:.4f} (iter {trace.best_primal_iter + 1}), "
          f"best dual {trace.best_dual:.4f}")
    print(f"certificate: empirical gap {trace.empirical_gap:.4f} <= "
          f"analytic bound {trace.theorem2_bound:.4f}")
    load = alloc.y.sum(axis=0)
    counts = [int((assoc.bs_of_user == j).sum()) for j in range(inst.num_bs)]
    print(f"final association sizes per BS: {counts}, bandwidth loads: "
          + " ".join(f"{v:.3f}" for v in load))


if __name__ == "__main__":
    main()
