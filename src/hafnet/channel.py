"""Synthetic two-tier downlink channel.

Topology: one macro pattern plus small cells grouped into clusters inside a
square deployment area. Link gains follow a log-distance path loss
(32.4 + 20 log10(f_GHz) dB at 1 m) with tier-specific exponents, lognormal
shadowing frozen per realization, a flat indoor penetration loss, and Rayleigh
fast fading that evolves as a Gauss-Markov process across time slots.

Interference between small cells of different clusters is ignored (treated as
negligible); macro interference is always counted. A Topology derives the
terms that hold for every fading slot when it is built, so each slot's
spectral_efficiency adds only its fading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import AlphaProfile, NetworkInstance

if TYPE_CHECKING:  # only for annotations; avoids a circular import
    from .experiments import ScenarioConfig

# Reference path loss at d0 = 1 m: 32.4 + 20 log10(f_GHz) dB.
_PL0_CONST = 32.4


@dataclass(frozen=True, eq=False)
class Topology:
    """A frozen large-scale realization: geometry, powers, shadowing.

    Everything spectral_efficiency needs is copied in at generation time,
    so the channel functions take no config argument. `dataclasses.replace`
    derives the init=False fields anew; writing into an array does not.
    """

    bs_positions: np.ndarray  # (J, 2) meters
    user_positions: np.ndarray  # (I, 2) meters
    bs_power_dbm: np.ndarray  # (J,)
    cell_size_m: float
    indoor: np.ndarray  # (I,) bool
    is_macro: np.ndarray  # (J,) bool
    cluster_of: np.ndarray  # (J,) int, -1 for macro tier
    pathloss_exp: np.ndarray  # (J,)
    shadow_db: np.ndarray  # (I, J), frozen per realization
    carrier_ghz: float
    indoor_loss_db: float
    noise_dbm_per_hz: float
    bandwidth_hz: float
    gamma_min: float
    # (I, J) link gain in dB without fading: path loss + shadowing + indoor
    large_scale_db: np.ndarray = field(init=False, repr=False)
    # (J, J) mask of the BSs k that interfere with a user served by BS j:
    # all but j itself and small cells of another cluster than j's
    interferers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = np.linalg.norm(self.user_positions[:, None, :] - self.bs_positions[None, :, :], axis=2)
        d = np.maximum(d, 1.0)  # model not valid below the 1 m reference
        pl0 = _PL0_CONST + 20.0 * np.log10(self.carrier_ghz)
        path_db = pl0 + 10.0 * self.pathloss_exp[None, :] * np.log10(d)
        large_scale_db = -path_db - self.shadow_db - self.indoor_loss_db * self.indoor[:, None]
        small = ~self.is_macro
        mask = np.ones((self.num_bs, self.num_bs))
        mask[small[:, None] & small[None, :] & (self.cluster_of[:, None] != self.cluster_of[None, :])] = 0.0
        np.fill_diagonal(mask, 0.0)
        object.__setattr__(self, "large_scale_db", large_scale_db)  # the dataclass is frozen
        object.__setattr__(self, "interferers", mask)

    @property
    def num_bs(self) -> int:
        return int(self.bs_positions.shape[0])

    @property
    def num_users(self) -> int:
        return int(self.user_positions.shape[0])


@dataclass
class FadingState:
    """Small-scale fading snapshot h (I x J complex) plus its memory factor."""

    h: np.ndarray
    rho: float
    rng: np.random.Generator


def generate_topology(cfg: "ScenarioConfig", seed: int) -> Topology:
    """Draw one large-scale realization. Deterministic given (cfg, seed).

    The top ceil(0.1 * J) BSs by index are macro (power in the macro range,
    placed centrally); the rest are small cells assigned round-robin to the
    configured cluster centers with a random offset inside the cluster radius.
    """
    rng = np.random.default_rng(seed)
    J, I = cfg.num_bs, cfg.num_users
    size = float(cfg.cell_size_m)

    n_macro = math.ceil(0.1 * J)
    centers = np.asarray(cfg.cluster_centers, dtype=float) * size
    n_clusters = centers.shape[0]

    bs_pos = np.zeros((J, 2))
    is_macro = np.zeros(J, dtype=bool)
    cluster_of = np.full(J, -1, dtype=int)
    for m in range(n_macro):
        # single macro sits at the center; several spread on a small ring
        if n_macro == 1:
            bs_pos[m] = (0.5 * size, 0.5 * size)
        else:
            ang = 2.0 * math.pi * m / n_macro
            bs_pos[m] = (
                0.5 * size + 0.125 * size * math.cos(ang),
                0.5 * size + 0.125 * size * math.sin(ang),
            )
        is_macro[m] = True
    for k, j in enumerate(range(n_macro, J)):
        c = centers[k % n_clusters]
        r = cfg.cluster_radius_m * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        bs_pos[j] = (c[0] + r * math.cos(ang), c[1] + r * math.sin(ang))
        cluster_of[j] = k % n_clusters

    power = np.empty(J)
    lo_m, hi_m = cfg.macro_power_dbm
    lo_s, hi_s = cfg.small_power_dbm
    power[:n_macro] = rng.uniform(lo_m, hi_m, size=n_macro)
    power[n_macro:] = rng.uniform(lo_s, hi_s, size=J - n_macro)

    user_pos = rng.uniform(0.0, size, size=(I, 2))
    indoor = rng.random(I) < cfg.indoor_prob
    shadow = rng.normal(0.0, cfg.shadow_sigma_db, size=(I, J))

    ple = np.where(is_macro, cfg.pathloss_exp_macro, cfg.pathloss_exp_small)

    return Topology(
        bs_positions=bs_pos,
        user_positions=user_pos,
        bs_power_dbm=power,
        cell_size_m=size,
        indoor=indoor,
        is_macro=is_macro,
        cluster_of=cluster_of,
        pathloss_exp=ple,
        shadow_db=shadow,
        carrier_ghz=float(cfg.carrier_ghz),
        indoor_loss_db=float(cfg.indoor_loss_db),
        noise_dbm_per_hz=float(cfg.noise_dbm_per_hz),
        bandwidth_hz=float(cfg.bandwidth_mhz) * 1e6,
        gamma_min=float(cfg.gamma_min),
    )


def make_fading(num_users: int, num_bs: int, rho: float, seed: int) -> FadingState:
    """Initial Rayleigh fading, unit average power: h ~ CN(0, 1) i.i.d."""
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((num_users, num_bs)) + 1j * rng.standard_normal((num_users, num_bs))) / math.sqrt(2.0)
    return FadingState(h=h, rho=float(rho), rng=rng)


def evolve_fading(state: FadingState) -> FadingState:
    """One Gauss-Markov step: h' = rho h + sqrt(1 - rho^2) eps, eps ~ CN(0,1).

    Preserves the unit-power stationary distribution. rho = 1 returns the
    same coefficients exactly.
    """
    shape = state.h.shape
    eps = (state.rng.standard_normal(shape) + 1j * state.rng.standard_normal(shape)) / math.sqrt(2.0)
    h = state.rho * state.h + math.sqrt(max(0.0, 1.0 - state.rho**2)) * eps
    return FadingState(h=h, rho=state.rho, rng=state.rng)


def _gain_db_matrix(topo: Topology, h: np.ndarray) -> np.ndarray:
    """Total link gain in dB: path loss + shadowing + indoor + fast fading."""
    mag = np.maximum(np.abs(h), 1e-15)
    return topo.large_scale_db + 20.0 * np.log10(mag)


def spectral_efficiency(topo: Topology, h: FadingState) -> np.ndarray:
    """Per-link spectral efficiencies gamma_ij = log2(1 + SINR_ij), clamped.

    SINR treats every other BS's signal as interference, except small cells
    of a different cluster than the serving small cell. Noise power is
    noise_dbm_per_hz over the full bandwidth.
    """
    gain_db = _gain_db_matrix(topo, h.h)
    rx_mw = 10.0 ** ((gain_db + topo.bs_power_dbm[None, :]) / 10.0)
    noise_mw = 10.0 ** ((topo.noise_dbm_per_hz + 10.0 * math.log10(topo.bandwidth_hz)) / 10.0)
    interference = rx_mw @ topo.interferers.T  # from k while served by j
    sinr = rx_mw / (interference + noise_mw)
    gamma = np.log2(1.0 + sinr)
    return np.maximum(gamma, topo.gamma_min)


def make_instance(
    topo: Topology,
    fading: FadingState,
    alphas: AlphaProfile,
) -> NetworkInstance:
    """Bundle a channel snapshot and a fairness profile into one instance."""
    gamma = spectral_efficiency(topo, fading)
    return NetworkInstance.from_gamma(gamma, alphas, bandwidth_hz=topo.bandwidth_hz)
