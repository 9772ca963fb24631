"""Domain types and the heterogeneous alpha-fair (HAF) objective.

A downlink network has I users and J base stations. An association assigns
every user to exactly one BS; an allocation gives each user a fraction of its
serving BS's bandwidth. User i, served by BS j_i with share y_i, has the
normalized rate

    r_i = gamma_{i, j_i} * y_i        [bit/s/Hz, times bandwidth for bit/s]

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

    alpha: shape (I,), each inside its group's interval; no interval holds 1,
        which the objective, the dual and the certificate exclude.
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
        """Build an instance, computing gamma_hat from gamma and alphas.
        Raises ValueError unless gamma has at least one BS column and every
        alpha is finite, positive and not 1; zero users are allowed."""
        gamma = np.asarray(gamma, dtype=float)
        if gamma.ndim != 2:
            raise ValueError("gamma must be an I x J matrix")
        if gamma.shape[1] == 0:
            raise ValueError("gamma must have at least one BS column")
        if np.any(gamma <= 0) or not np.all(np.isfinite(gamma)):
            raise ValueError("gamma entries must be finite and positive")
        a = np.asarray(alphas.alpha, dtype=float)
        if a.shape[0] != gamma.shape[0]:
            raise ValueError("alpha profile length must match gamma rows")
        if not np.all((a > 0) & (a < np.inf) & (a != 1.0)):
            raise ValueError("fairness exponents must be finite and positive, and not 1")
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


@dataclass(frozen=True)
class Allocation:
    """Bandwidth fractions and the per-BS multipliers that produced them.

    share: (I,), each user's fraction of its own BS's bandwidth (the BS its
        association gives it); each BS's users' shares sum to at most 1.
    lam: (J,), KKT multiplier per BS; NaN marks a BS with no users.
    """

    share: np.ndarray
    lam: np.ndarray


def utility_vector(rates: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Vector alpha-fair utilities r ** (1 - alpha) / (1 - alpha) with the
    rate floor applied.

    Rates below RATE_FLOOR contribute u(RATE_FLOOR), so all-zero allocations
    score finitely instead of raising.
    """
    r = np.maximum(np.asarray(rates, dtype=float), RATE_FLOOR)
    e = 1.0 - np.asarray(alphas, dtype=float)
    return r ** e / e


def rates_of(inst: NetworkInstance, assoc: Association, alloc: Allocation) -> np.ndarray:
    """Normalized per-user rates r_i = gamma[i, j_i] * share_i."""
    js = np.asarray(assoc.bs_of_user, dtype=int)
    return inst.gamma[np.arange(inst.num_users), js] * alloc.share


def haf_objective(inst: NetworkInstance, assoc: Association, alloc: Allocation) -> float:
    """Heterogeneous alpha-fair objective of a joint decision."""
    rates = rates_of(inst, assoc, alloc)
    return float(np.sum(utility_vector(rates, inst.alphas.alpha)))

