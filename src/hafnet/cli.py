"""Command line front end.

Verbs:
  static    Monte Carlo comparison on fixed channels.
  sweep     static comparison repeated over a range of user counts.
  timevary  slotted tracking over Gauss-Markov fading.
  converge  single-run primal/dual trace of the pricing method.
  oracle    small-instance certificate check against exhaustive search,
            run as a static comparison of proposed and brute_force.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments, pricing
from .experiments import ScenarioConfig, load_config


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _flag_parsers():
    """Parent parsers: the flags every verb takes, --threads and --methods."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="INI scenario file")
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--out", type=str, default="hafnet_out", help="output directory")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=_positive_int, default=1, help="worker processes over seeds")
    methods = argparse.ArgumentParser(add_help=False)
    methods.add_argument("--methods", type=str, default=None, help="comma list overriding the configured methods")
    return common, threads, methods


def _methods(args):
    return tuple(m.strip() for m in args.methods.split(",") if m.strip())


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    # timevary has its own method list, which run_time_varying validates
    if args.verb in ("static", "sweep") and args.methods:
        cfg = replace(cfg, methods=_methods(args))
    return cfg


def main(argv=None) -> int:
    common, threads, methods = _flag_parsers()
    parser = argparse.ArgumentParser(prog="hafnet", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("static", parents=[common, threads, methods])
    p_sweep = sub.add_parser("sweep", parents=[common, threads, methods])
    p_sweep.add_argument("--users", type=str, default="40,45,50,55,60",
                         help="comma list of user counts")
    sub.add_parser("timevary", parents=[common, methods])
    sub.add_parser("converge", parents=[common])
    p_oracle = sub.add_parser("oracle", parents=[common, threads])
    p_oracle.add_argument("--instances", type=_positive_int, default=50)
    p_oracle.add_argument("--max-users", type=_positive_int, default=5)
    p_oracle.add_argument("--max-bs", type=_positive_int, default=3)

    args = parser.parse_args(argv)
    cfg = _load(args)
    out = Path(args.out)

    if args.verb == "static":
        res = experiments.run_static_experiment(cfg, out, master_seed=args.seed, threads=args.threads)
        for s in res["summary"]:
            print(f"{s['method']:>20s}  mean HAF {s['haf_mean']:.6g}  (n={s['n_seeds']})")
        print(f"wrote {len(res['files'])} files to {out}")
        return 0

    if args.verb == "sweep":
        counts = [int(u) for u in args.users.split(",") if u.strip()]
        res = experiments.run_user_sweep(cfg, counts, out, master_seed=args.seed, threads=args.threads)
        print(f"wrote sweep over users {counts} to {out}")
        return 0

    if args.verb == "timevary":
        methods = _methods(args) if args.methods else None
        res = experiments.run_time_varying(cfg, out, master_seed=args.seed, methods=methods)
        print(f"wrote {len(res['rows'])} slot rows to {out}")
        return 0

    if args.verb == "converge":
        inst, _, _ = experiments.build_instance(cfg, args.seed, 0)
        _, _, trace = pricing.solve(inst, cfg.pricing, cfg.ra)
        path = experiments.emit_convergence_trace(trace, out / "convergence.csv")
        print(f"best primal {trace.best_primal:.6g}  best dual {trace.best_dual:.6g}  gap {trace.empirical_gap:.3g}")
        print(f"wrote {path}")
        return 0

    if args.verb == "oracle":
        small = replace(cfg, num_users=min(cfg.num_users, args.max_users),
                        num_bs=min(cfg.num_bs, args.max_bs), num_seeds=args.instances,
                        methods=("proposed", "brute_force"), force=True)
        res = experiments.run_static_experiment(small, out, master_seed=args.seed, threads=args.threads)
        optimum = {r["seed"]: r["haf"] for r in res["rows"] if r["method"] == "brute_force"}
        # sound: the gap bound covers the gap and the dual bounds the true optimum
        sound = sum(
            r["empirical_gap"] <= r["theorem2_bound"] + 1e-6 and r["best_dual"] >= optimum[r["seed"]] - 1e-6
            for r in res["rows"] if r["method"] == "proposed"
        )
        print(f"{sound}/{args.instances} certificates sound; wrote {len(res['files'])} files to {out}")
        return 0 if sound == args.instances else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
