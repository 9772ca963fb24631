"""Rate-level quality metrics, reported overall and per priority group.

This module is the one place that names the reported metrics and their
columns; the experiment tables derive their headers from it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .core import RATE_FLOOR, Allocation, Association, Group, NetworkInstance, rates_of, utility_vector

#: The reported metrics, in column order.
METRICS = ("haf", "sum_rate", "pf", "latency", "min_rate")
#: Priority-group suffixes of the per-group columns.
GROUPS = tuple(g.name.lower() for g in Group)
#: Every metric's overall column followed by its per-group columns.
COLUMNS = tuple(col for m in METRICS for col in (m, *(f"{m}_{g}" for g in GROUPS)))


def user_rates(
    inst: NetworkInstance, assoc: Association, alloc: Allocation, absolute: bool = False
) -> np.ndarray:
    """Per-user rates; normalized by default, bit/s when absolute=True."""
    r = rates_of(inst, assoc, alloc)
    return r * inst.bandwidth_hz if absolute else r


def report(inst: NetworkInstance, assoc: Association, alloc: Allocation) -> Dict[str, float]:
    """One decision's quality keyed by COLUMNS; identical inputs give
    identical bytes.

    Rates are normalized (bit/s/Hz share) except sum_rate*, which are in
    bit/s using the instance bandwidth. PF and latency use the rate floor;
    min rate does not. An instance or a group with no users reports 0.
    """
    r = rates_of(inst, assoc, alloc)
    floored = np.maximum(r, RATE_FLOOR)
    w = inst.bandwidth_hz
    # per metric: the per-user values and how a set of users reduces them
    per_user = {
        "haf": (utility_vector(r, inst.alphas.alpha), np.sum),
        "sum_rate": (r, lambda v: np.sum(v) * w),
        "pf": (np.log(floored), np.sum),
        "latency": (1.0 / floored, np.mean),
        "min_rate": (r, np.min),
    }
    g = np.asarray(inst.alphas.group, dtype=int)
    out = {}
    for name in METRICS:
        values, reduce = per_user[name]
        sets = {name: values, **{f"{name}_{s}": values[g == int(grp)] for grp, s in zip(Group, GROUPS)}}
        out.update((col, float(reduce(sel)) if sel.size else 0.0) for col, sel in sets.items())
    return out
