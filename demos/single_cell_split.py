#!/usr/bin/env python3
"""How one BS splits its bandwidth across users with different fairness exponents.

Six users share a single cell. The first three have good links, the last three
poor ones. We sweep a common alpha from throughput-greedy (0.4) to strongly
fair (3.0) and print the optimal shares: higher alpha pushes bandwidth toward
the weak links.
"""

import numpy as np

from hafnet import Association, allocate
from hafnet.metrics import user_rates
from hafnet.core import AlphaProfile, NetworkInstance

GAMMA = np.array([6.0, 5.0, 4.0, 0.8, 0.5, 0.3])  # bit/s/Hz


def split_for(alpha):
    prof = AlphaProfile(alpha=np.full(6, alpha), group=np.zeros(6, dtype=int))
    inst = NetworkInstance.from_gamma(GAMMA[:, None], prof, bandwidth_hz=20e6)
    assoc = Association(np.zeros(6, dtype=int))
    return inst, assoc, allocate(inst, assoc)


def main():
    print("gamma:", " ".join(f"{g:5.2f}" for g in GAMMA))
    print()
    print("alpha   shares y_i                                min rate (Mbit/s)")
    for alpha in (0.4, 0.7, 1.0 + 1e-9, 1.5, 2.0, 3.0):
        inst, assoc, alloc = split_for(alpha)
        rates = user_rates(inst, assoc, alloc, absolute=True)
        shares = " ".join(f"{y:5.3f}" for y in alloc.share)
        print(f"{alpha:5.2f}   {shares}   {rates.min() / 1e6:8.3f}")
    print()
    print("alpha=0.4 rides the strong links; alpha=3 nearly equalizes rates.")


if __name__ == "__main__":
    main()
