"""Domain types and the heterogeneous alpha-fair (HAF) objective.

A downlink network has I users and J base stations. An association assigns
every user to exactly one BS; an allocation gives each user a fraction of its
serving BS's bandwidth. User i's normalized rate is

    r_i = sum_j gamma_ij * x_ij * y_ij        [bit/s/Hz, times bandwidth for bit/s]

and the network objective is sum_i u_{alpha_i}(r_i), where u_alpha is the
alpha-fair utility and each user carries its own fairness exponent alpha_i
drawn from one of four priority groups (A1 lowest .. A4 highest).

All types here are plain value containers; functions are pure, so instances
can be shared freely across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict

import numpy as np

# Utility floor for (near-)zero rates. Only degenerate allocations reach it;
# it keeps alpha>1 utilities finite and comparable across methods.
RATE_FLOOR = 1e-9


class Group(IntEnum):
    """User priority groups, ordered by fairness exponent."""

    A1 = 0
    A2 = 1
    A3 = 2
    A4 = 3


#: Closed intervals the per-group fairness exponents are drawn from.
GROUP_INTERVALS: Dict[Group, tuple] = {
    Group.A1: (0.4, 0.6),
    Group.A2: (0.7, 0.9),
    Group.A3: (1.8, 2.2),
    Group.A4: (2.75, 3.25),
}


@dataclass(frozen=True)
class AlphaProfile:
    """Per-user fairness exponents and their group labels.

    alpha: shape (I,), positive. Exactly 1.0 is reserved for the log branch
        of proportional-fair scoring and is rejected by validate().
    group: shape (I,), integer Group codes.
    """

    alpha: np.ndarray
    group: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.alpha.shape[0])

    def validate(self) -> None:
        """Raise ValueError if the profile violates its invariants."""
        a = np.asarray(self.alpha, dtype=float)
        g = np.asarray(self.group, dtype=int)
        if a.ndim != 1 or g.shape != a.shape:
            raise ValueError("alpha and group must be 1-D arrays of equal length")
        if not np.all(a > 0):  # NaN fails too
            raise ValueError("fairness exponents must be positive")
        if np.any(a == 1.0):
            raise ValueError("alpha == 1 exactly is not a valid profile value")
        for gi in np.unique(g):
            lo, hi = GROUP_INTERVALS[Group(int(gi))]
            sel = a[g == gi]
            if np.any(sel < lo) or np.any(sel > hi):
                raise ValueError(f"alpha outside {Group(int(gi)).name} interval [{lo}, {hi}]")


@dataclass(frozen=True)
class NetworkInstance:
    """One channel realization plus the user fairness profile.

    gamma: (I, J) spectral efficiencies in bit/s/Hz, strictly positive.
    gamma_hat: (I, J) fairness-adjusted gains gamma ** ((1 - alpha_i) / alpha_i),
        precomputed because every solver touches them in its inner loop.
    """

    gamma: np.ndarray
    gamma_hat: np.ndarray
    alphas: AlphaProfile
    bandwidth_hz: float

    @property
    def num_users(self) -> int:
        return int(self.gamma.shape[0])

    @property
    def num_bs(self) -> int:
        return int(self.gamma.shape[1])

    @classmethod
    def from_gamma(
        cls,
        gamma: np.ndarray,
        alphas: AlphaProfile,
        bandwidth_hz: float = 20e6,
    ) -> "NetworkInstance":
        """Build an instance, computing gamma_hat from gamma and alphas."""
        gamma = np.asarray(gamma, dtype=float)
        if gamma.ndim != 2:
            raise ValueError("gamma must be an I x J matrix")
        if np.any(gamma <= 0) or not np.all(np.isfinite(gamma)):
            raise ValueError("gamma entries must be finite and positive")
        a = np.asarray(alphas.alpha, dtype=float)
        if a.shape[0] != gamma.shape[0]:
            raise ValueError("alpha profile length must match gamma rows")
        if not np.all((a > 0) & (a < np.inf)):
            raise ValueError("fairness exponents must be finite and positive")
        expo = (1.0 - a) / a
        gamma_hat = gamma ** expo[:, None]
        return cls(
            gamma=gamma,
            gamma_hat=gamma_hat,
            alphas=alphas,
            bandwidth_hz=float(bandwidth_hz),
        )


@dataclass(frozen=True)
class Association:
    """bs_of_user: shape (I,), BS index serving each user (exactly one)."""

    bs_of_user: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.bs_of_user.shape[0])

    def users_of(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.bs_of_user == j)


@dataclass(frozen=True)
class Allocation:
    """Bandwidth fractions and the per-BS multipliers that produced them.

    y: (I, J), zero off-association; each BS column sums to at most 1.
    lam: (J,), KKT multiplier per BS; NaN marks a BS with no users.
    """

    y: np.ndarray
    lam: np.ndarray


def alpha_utility(rate: float, alpha: float) -> float:
    """Alpha-fair utility of a single positive rate.

    u_alpha(r) = r**(1-alpha) / (1-alpha) for alpha != 1, ln(r) at alpha = 1
    (the proportional-fair limit). Raises ValueError on non-positive rate.
    """
    rate = float(rate)
    alpha = float(alpha)
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    if alpha == 1.0:
        return float(np.log(rate))
    return float(rate ** (1.0 - alpha) / (1.0 - alpha))


def utility_vector(rates: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Vector alpha-fair utilities with the rate floor applied.

    Rates below RATE_FLOOR contribute u(RATE_FLOOR), so all-zero allocations
    score finitely instead of raising.
    """
    r = np.maximum(np.asarray(rates, dtype=float), RATE_FLOOR)
    a = np.asarray(alphas, dtype=float)
    pf = a == 1.0
    e = np.where(pf, 1.0, 1.0 - a)
    out = r ** e / e
    if pf.any():
        out[pf] = np.log(r[pf])
    return out


def rates_of(inst: NetworkInstance, assoc: Association, alloc: Allocation) -> np.ndarray:
    """Normalized per-user rates r_i = gamma[i, j_i] * y[i, j_i]."""
    idx = np.arange(inst.num_users)
    js = np.asarray(assoc.bs_of_user, dtype=int)
    return inst.gamma[idx, js] * alloc.y[idx, js]


def haf_objective(inst: NetworkInstance, assoc: Association, alloc: Allocation) -> float:
    """Heterogeneous alpha-fair objective of a joint decision."""
    rates = rates_of(inst, assoc, alloc)
    return float(np.sum(utility_vector(rates, inst.alphas.alpha)))

