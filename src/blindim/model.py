# blindim/model.py
"""Configuration, derived transmission-plan parameters, and channel sampling.

Conventions used throughout the package:
  - Cells and users are 0-indexed internally.
  - cir_len[k][i] is the tap count L_{k,i} of the link from any user in cell i
    to base station k (desired link when i == k, interfering link otherwise).
  - All CIR taps h[0..L-1] are complex baseband coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration violates its invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters for a K-cell uplink with frequency-selective links."""

    K: int                          # number of cells / base stations
    users_per_cell: tuple           # U_k, one entry per cell
    cir_len: tuple                  # K x K tap counts L_{k,i}
    snr_db: float = 10.0            # rho = P / sigma^2 in dB
    subblocks: int = 1              # B, subblock transmissions per block
    seed: int = 0                   # base seed for reproducible sampling
    symbol_model: str = "gaussian"  # "gaussian" or "qpsk"

    def __post_init__(self):
        # normalize to tuples so configs are hashable/immutable
        object.__setattr__(self, "users_per_cell", tuple(int(u) for u in self.users_per_cell))
        object.__setattr__(
            self, "cir_len", tuple(tuple(int(x) for x in row) for row in self.cir_len)
        )

    @classmethod
    def symmetric(cls, K, L_D, L_I, U, **kwargs):
        """Symmetric network: every desired link has L_D taps, every cross link L_I."""
        cir = [[L_D if k == i else L_I for i in range(K)] for k in range(K)]
        return cls(K=K, users_per_cell=[U] * K, cir_len=cir, **kwargs)

    @property
    def snr_linear(self) -> float:
        return float(10.0 ** (self.snr_db / 10.0))


def validate_config(cfg: SystemConfig):
    """Return the list of invariant violations (empty when cfg is valid)."""
    violations = []
    if cfg.K < 1:
        violations.append("K >= 1 violated (K=%d)" % cfg.K)
    if len(cfg.users_per_cell) != cfg.K:
        violations.append(
            "users_per_cell must have K entries (got %d, K=%d)"
            % (len(cfg.users_per_cell), cfg.K)
        )
    for k, u in enumerate(cfg.users_per_cell):
        if u < 1:
            violations.append("U_k >= 1 violated at cell %d (U=%d)" % (k, u))
    if len(cfg.cir_len) != cfg.K or any(len(row) != cfg.K for row in cfg.cir_len):
        violations.append("cir_len must be a K x K matrix")
    else:
        for k in range(cfg.K):
            for i in range(cfg.K):
                if cfg.cir_len[k][i] < 1:
                    violations.append(
                        "L >= 1 violated at (k=%d, i=%d): L=%d" % (k, i, cfg.cir_len[k][i])
                    )
    if cfg.subblocks < 1:
        violations.append("B >= 1 violated (B=%d)" % cfg.subblocks)
    if cfg.symbol_model not in ("gaussian", "qpsk"):
        violations.append("symbol_model must be 'gaussian' or 'qpsk'")
    return violations


def require_valid(cfg: SystemConfig) -> SystemConfig:
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


@dataclass(frozen=True)
class TransmissionPlan:
    """Derived scheme parameters, a pure function of SystemConfig."""

    K: int
    B: int
    U_active: tuple   # U'_k: active users per cell
    M: tuple          # M_k: symbols per active user per subblock
    M_D: int          # max_k M_k
    L_D: int          # max_k L_{k,k}
    L_I: int          # max_k max_{i != k} L_{k,i}
    N: int            # subblock core length
    N_bar: int        # N + L_I - 1 (core + cyclic prefix)
    cp_len: int       # L_I - 1
    T: int            # total block length B*N_bar + max(L_D, L_I) - 1
    L_I_d: int = 0    # leading frame samples the combiner folds onto the core


def link_lengths(cfg: SystemConfig) -> tuple:
    """(L_D, L_I): longest desired and interfering link; one cell has L_I = 1 (no CP)."""
    L_D = max(cfg.cir_len[k][k] for k in range(cfg.K))
    L_I = max((cfg.cir_len[k][i] for k in range(cfg.K) for i in range(cfg.K) if i != k),
              default=1)
    return L_D, L_I


def make_plan(cfg: SystemConfig) -> TransmissionPlan:
    """Compute active-user counts, per-user symbol loads, and frame geometry."""
    require_valid(cfg)
    L_D, L_I = link_lengths(cfg)

    U_active = []
    M = []
    for k in range(cfg.K):
        U_k = cfg.users_per_cell[k]
        spare = cfg.cir_len[k][k] - L_I   # (L_kk - L_I): symbol budget of cell k
        if spare <= 0:
            U_active.append(0)
            M.append(0)
        elif U_k <= spare:
            U_active.append(U_k)
            M.append(spare // U_k)
        else:
            U_active.append(spare)
            M.append(1)

    M_D = max(M)
    N = max(L_D - L_I + M_D, L_I)
    N_bar = N + L_I - 1
    T = cfg.subblocks * N_bar + max(L_D, L_I) - 1
    return TransmissionPlan(
        K=cfg.K, B=cfg.subblocks, U_active=tuple(U_active), M=tuple(M), M_D=M_D,
        L_D=L_D, L_I=L_I, N=N, N_bar=N_bar, cp_len=L_I - 1, T=T,
    )


@dataclass
class ChannelRealization:
    """All CIR taps for one fading block, or for a stack of them.

    taps[(k, i)] is a complex array of shape (..., U_i, L_{k,i}); row u holds
    the impulse response from user (i, u) to base station k.  Any leading axes
    index independent realizations (the Monte Carlo loops stack their trials
    as (T, U_i, L)), and every consumer of a realization carries them through;
    a single draw has none.
    """

    taps: dict

    def h(self, k, i, u) -> np.ndarray:
        return self.taps[(k, i)][..., u, :]

    def scaled(self, gain) -> "ChannelRealization":
        """Every link's taps times gain[(k, i)], broadcast against them."""
        return ChannelRealization({key: gain[key] * taps for key, taps in self.taps.items()})


def trial_rng(seed, trial) -> np.random.Generator:
    """Independent, reproducible stream for (seed, trial)."""
    return np.random.default_rng([int(seed), int(trial)])


def sample_channel_iid(cfg: SystemConfig, rng) -> ChannelRealization:
    """Draw every tap IID circularly-symmetric complex Gaussian CN(0, 1).

    One standard_normal call feeds every link in (k, i) order: U_i * L_{k,i}
    real parts, then as many imaginary parts.  The Generator fills values in
    sequence, so taps and generator state equal those of a real and an
    imaginary draw per link.  Each link's parts are written into a complex
    array and scaled in place, which gives the same bits as
    (re + 1j * im) / sqrt(2) without its temporaries.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    sizes = {(k, i): (cfg.users_per_cell[i], cfg.cir_len[k][i])
             for k in range(cfg.K) for i in range(cfg.K)}
    normals = rng.standard_normal(sum(2 * U * L for U, L in sizes.values()))
    taps = {}
    start = 0
    for key, (U, L) in sizes.items():
        x = normals[start : start + 2 * U * L].reshape(2, U, L)
        h = np.empty((U, L), dtype=complex)
        h.real = x[0]
        h.imag = x[1]
        h /= np.sqrt(2.0)
        taps[key] = h
        start += 2 * U * L
    return ChannelRealization(taps=taps)


# Trials stacked at once by iid_trial_blocks and the fig5 sweep: bounds their
# memory whatever the trial count
TRIAL_BLOCK = 256


def iid_trial_blocks(cfg: SystemConfig, seed, trials):
    """Trials 0 .. trials - 1 of sample_channel_iid(cfg, trial_rng(seed, t)),
    yielded in order as realizations stacked (T_b, U_i, L_{k,i}) per link, with
    T_b <= TRIAL_BLOCK."""
    for start in range(0, trials, TRIAL_BLOCK):
        draws = [sample_channel_iid(cfg, trial_rng(seed, t))
                 for t in range(start, min(start + TRIAL_BLOCK, trials))]
        yield ChannelRealization({key: np.stack([ch.taps[key] for ch in draws])
                                  for key in draws[0].taps})


# ---------------------------------------------------------------------------
# Geometric channel model (path loss + exponentially-decaying power-delay profile)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Deployment:
    """Large-scale propagation parameters for the geometric channel model."""

    site_spacing_m: float = 300.0       # D_site, BS-to-BS spacing
    user_distance_m: float = 100.0      # D_user, user-to-own-BS distance
    pathloss_exponent: float = 3.5      # alpha
    ref_loss_db: float = -80.0          # P_0, reference path loss at 1 m (dB)
    pdp_decay: object = 0.5             # beta: scalar, or K x K per-link matrix
    ici_delay_taps: int = 0             # L_{I,d}: leading ICI taps nulled by delay
    tx_power_dbm: float = 23.0
    noise_density_dbm_hz: float = -174.0
    bandwidth_hz: float = 10e6

    @property
    def tx_power_w(self) -> float:
        return float(10.0 ** ((self.tx_power_dbm - 30.0) / 10.0))

    @property
    def noise_power_w(self) -> float:
        """sigma^2 = N_0 * bandwidth (Watts)."""
        return float(10.0 ** ((self.noise_density_dbm_hz - 30.0) / 10.0) * self.bandwidth_hz)


def pdp_profile(dep: Deployment, k, i, L, L_D, L_I) -> np.ndarray:
    """Normalized per-tap variances gamma_{k,i,ell}, ell < L, of the exponential
    delay profile of link (k, i).

    Desired links (k == i) spread unit power over taps [0, L_D-1]; interfering
    links over taps [L_{I,d}, L_I-1]; every other tap is zero.
    """
    beta = dep.pdp_decay
    if not np.isscalar(beta):
        beta = beta[k][i]
    lo, hi = (0, L_D) if k == i else (dep.ici_delay_taps, L_I)
    gamma = np.zeros(L)
    ell = np.arange(lo, min(hi, L))
    gamma[ell] = np.exp(-beta * ell) / np.sum(np.exp(-beta * np.arange(lo, hi)))
    return gamma


@dataclass(frozen=True)
class Positions:
    """Node geometry: BS coordinates plus user-to-BS distances.

    dist[..., k, i, u] is the distance (m) from user (i, u) to base station k;
    leading axes of user_xy and dist stack layouts (such as a grid of D_user).
    """

    bs_xy: np.ndarray     # (K, 2)
    user_xy: np.ndarray   # (..., K, U_max, 2)
    dist: np.ndarray      # (..., K, K, U_max)


def hex_deployment(D_site, D_user, users_per_cell) -> Positions:
    """7-cell hexagonal layout: center cell plus 6 neighbors at spacing D_site.

    Users sit at distance D_user from their own BS, at evenly-spread angles
    starting from 0 degrees.  An array of D_user gives one layout per entry,
    stacked along the leading axes.
    """
    D_user = np.asarray(D_user, dtype=float)
    if not np.all((0 <= D_user) & (D_user < D_site)):
        raise ValueError("require 0 <= D_user < D_site")
    users_per_cell = list(users_per_cell)
    K = 7
    if len(users_per_cell) == 1:
        users_per_cell = users_per_cell * K
    if len(users_per_cell) != K:
        raise ValueError("users_per_cell must have 1 or 7 entries")
    ring = np.pi / 3.0 * np.arange(6)
    bs = np.zeros((K, 2))
    bs[1:] = D_site * np.stack([np.cos(ring), np.sin(ring)], axis=-1)
    U = np.array(users_per_cell)[:, None]
    u = np.arange(U.max())
    ang = 2.0 * np.pi * u / U
    user = bs[:, None] + D_user[..., None, None, None] * np.stack([np.cos(ang), np.sin(ang)], -1)
    user[..., u >= U, :] = np.nan
    offset = user[..., None, :, :, :] - bs[:, None, None]
    dist = np.hypot(offset[..., 0], offset[..., 1])
    return Positions(bs_xy=bs, user_xy=user, dist=dist)


def fading_normals(cfg: SystemConfig) -> int:
    """Standard normals one small-scale draw consumes: two per tap of every link."""
    return 2 * sum(cfg.users_per_cell[i] * cfg.cir_len[k][i]
                   for k in range(cfg.K) for i in range(cfg.K))


def small_scale_fading(cfg: SystemConfig, normals, links=None) -> ChannelRealization:
    """CN(0, 1) taps from (..., fading_normals(cfg)) standard normals.

    The normals are consumed link by link in (k, i) order, then user by user:
    L_{k,i} real parts, then L_{k,i} imaginary parts.  Leading axes stack
    independent draws.  links (default: every link) picks the links to
    build; each keeps its place in that order, so the normals need only reach
    the last link picked.
    """
    normals = np.asarray(normals)
    batch = normals.shape[:-1]
    taps = {}
    start = 0
    for k in range(cfg.K):
        for i in range(cfg.K):
            U, L = cfg.users_per_cell[i], cfg.cir_len[k][i]
            if links is None or (k, i) in links:
                block = normals[..., start : start + 2 * U * L].reshape(batch + (U, 2, L))
                taps[(k, i)] = (block[..., 0, :] + 1j * block[..., 1, :]) / np.sqrt(2.0)
            start += 2 * U * L
    return ChannelRealization(taps=taps)


def large_scale_gain(cfg: SystemConfig, dep: Deployment, positions: Positions) -> dict:
    """(k, i) -> (..., U_i, L_{k,i}) tap amplitudes sqrt(P_0) * d^(-alpha/2) * sqrt(gamma),
    over the leading axes of positions.dist.

    The path-loss amplitude is one float_power over the whole (..., K, K, U)
    distance array, and each distinct delay profile (desired or not, L_{k,i},
    beta_{k,i}) is computed once and shared by every link that has it.
    """
    p0 = 10.0 ** (dep.ref_loss_db / 10.0)
    L_D, L_I = link_lengths(cfg)
    dist = positions.dist
    # slots past a cell's last user hold NaN distances and are never read
    users = np.arange(dist.shape[-1]) < np.array(cfg.users_per_cell)[:, None]
    bad = (users & ~(dist > 0)).reshape((-1,) + dist.shape[-3:]).any(axis=0)
    if bad.any():
        raise ValueError("nonpositive distance for link (k=%d, i=%d, u=%d)"
                         % tuple(np.argwhere(bad)[0]))
    # float_power matches scalar d ** x bit for bit, so existing seeds keep
    # their draws; numpy's SIMD power loop may differ in the last bit
    amp = np.sqrt(p0) * np.float_power(dist, -dep.pathloss_exponent / 2.0)
    beta = np.broadcast_to(dep.pdp_decay, (cfg.K, cfg.K))
    profiles = {}
    gain = {}
    for k in range(cfg.K):
        for i in range(cfg.K):
            L = cfg.cir_len[k][i]
            key = (k == i, L, float(beta[k, i]))
            if key not in profiles:
                profiles[key] = np.sqrt(pdp_profile(dep, k, i, L, L_D, L_I))
            gain[(k, i)] = amp[..., k, i, : cfg.users_per_cell[i], None] * profiles[key]
    return gain


def sample_channel_geometric(cfg: SystemConfig, dep: Deployment, positions: Positions,
                             rng) -> ChannelRealization:
    """Draw taps h = sqrt(P_0) * d^(-alpha/2) * h_small with h_small ~ CN(0, gamma):
    large_scale_gain times small_scale_fading."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    gain = large_scale_gain(cfg, dep, positions)
    return small_scale_fading(cfg, rng.standard_normal(fading_normals(cfg))).scaled(gain)
