# blindim/model.py
"""Configuration, derived transmission-plan parameters, and channel sampling.

Conventions used throughout the package:
  - Cells and users are 0-indexed internally.
  - cir_len[k][i] is the tap count L_{k,i} of the link from any user in cell i
    to base station k (desired link when i == k, interfering link otherwise).
  - All CIR taps h[0..L-1] are complex baseband coefficients.

Small-scale taps have one builder, _taps, for both channel models: a single
IID draw (sample_channel_iid) and a block of trials (trial_blocks) share it,
so a block equals its stacked single draws bit for bit.  The two models keep
the normal layouts their seeds fix: the IID model is link-major, fig5's
geometric model user-major (user_major=True), and the geometric taps are
large_scale_gain times those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    L_D: int          # max_k L_{k,k}
    L_I: int          # max_k max_{i != k} L_{k,i}
    N: int            # subblock core length, at least L_I
    T: int            # total block length B*N_bar + max(L_D, L_I) - 1
    L_I_d: int = 0    # leading frame samples the combiner folds onto the core

    @property
    def M_D(self) -> int:      # max_k M_k
        return max(self.M)

    @property
    def cp_len(self) -> int:   # L_I - 1 cyclic-prefix samples
        return self.L_I - 1

    @property
    def N_bar(self) -> int:    # N + L_I - 1 samples per subblock frame
        return self.N + self.cp_len


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

    N = max(L_D - L_I + max(M), L_I)
    T = cfg.subblocks * (N + L_I - 1) + max(L_D, L_I) - 1
    return TransmissionPlan(
        K=cfg.K, B=cfg.subblocks, U_active=tuple(U_active), M=tuple(M),
        L_D=L_D, L_I=L_I, N=N, T=T,
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


def trial_rng(seed, trial) -> np.random.Generator:
    """Independent, reproducible stream for (seed, trial)."""
    return np.random.default_rng([int(seed), int(trial)])


def _normal_count(cfg: SystemConfig, links=None) -> int:
    """Standard normals one draw consumes, two per tap of each link in (k, i)
    order, through the last of links (default: every link)."""
    last = max(links) if links is not None else (cfg.K - 1, cfg.K - 1)
    return 2 * sum(cfg.users_per_cell[i] * cfg.cir_len[k][i]
                   for k in range(cfg.K) for i in range(cfg.K) if (k, i) <= last)


def _taps(cfg: SystemConfig, normals, links=None, user_major=False) -> ChannelRealization:
    """CN(0, 1) taps from (..., _normal_count(cfg, links)) standard normals.

    Link (k, i) takes the next 2 U_i L_{k,i} normals, in (k, i) order: its
    U_i x L_{k,i} real parts, then as many imaginary parts; with user_major,
    L_{k,i} real then L_{k,i} imaginary parts per user instead.  Leading axes
    stack draws.  links (default: every link) picks the links to build; the
    others' normals are stepped over, so each picked link keeps its place in
    the draw.  Every link built is a contiguous (..., U_i, L_{k,i}) view into
    one complex buffer: one real and one imaginary write per link serve the
    whole stack, and one in-place division scales the buffer, which gives the
    same bits as (re + 1j * im) / sqrt(2) without its temporaries.
    """
    batch = normals.shape[:-1]
    draws = math.prod(batch)
    sizes = {(k, i): cfg.users_per_cell[i] * cfg.cir_len[k][i]
             for k in range(cfg.K) for i in range(cfg.K)}
    picked = sizes.keys() if links is None else set(links)
    # the real/imaginary axis: per user (U, 2, L) or per link (2, U, L)
    re = (Ellipsis, 0) + (slice(None),) * (1 if user_major else 2)
    im = re[:1] + (1,) + re[2:]
    out = np.empty(draws * sum(sizes[key] for key in picked), dtype=complex)
    taps = {}
    start = filled = 0
    for (k, i), n in sizes.items():
        if (k, i) in picked:
            U, L = cfg.users_per_cell[i], cfg.cir_len[k][i]
            x = normals[..., 2 * start : 2 * (start + n)]
            x = x.reshape(batch + ((U, 2, L) if user_major else (2, U, L)))
            h = out[draws * filled : draws * (filled + n)].reshape(batch + (U, L))
            h.real = x[re]
            h.imag = x[im]
            taps[(k, i)] = h
            filled += n
        start += n
    out /= np.sqrt(2.0)
    return ChannelRealization(taps=taps)


def sample_channel_iid(cfg: SystemConfig, rng) -> ChannelRealization:
    """Draw every tap IID circularly-symmetric complex Gaussian CN(0, 1).

    One standard_normal call feeds every link, in _taps' link-major layout.
    The Generator fills values in sequence, so taps and generator state equal
    those of a real and an imaginary draw per link.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return _taps(cfg, rng.standard_normal(_normal_count(cfg)))


# Trials stacked at once by trial_blocks: bounds its memory whatever the
# trial count
TRIAL_BLOCK = 256


def trial_blocks(cfg: SystemConfig, seed, trials, links=None, user_major=False):
    """Trials 0 .. trials - 1 of _taps(cfg, normals, links, user_major) with
    trial_rng(seed, t)'s normals, yielded in order as realizations stacked
    (T_b, U_i, L_{k,i}) per link, with T_b <= TRIAL_BLOCK.

    Row t of a block's normals is filled in place by trial_rng(seed, t), only
    through the last link picked: those are the first normals of the full
    draw (the Generator fills values in sequence).  Link-major blocks of every
    link equal the stacked sample_channel_iid(cfg, trial_rng(seed, t)).
    """
    n = _normal_count(cfg, links)
    for start in range(0, trials, TRIAL_BLOCK):
        normals = np.empty((min(TRIAL_BLOCK, trials - start), n))
        for t, row in enumerate(normals, start):
            trial_rng(seed, t).standard_normal(out=row)
        yield _taps(cfg, normals, links, user_major)


# ---------------------------------------------------------------------------
# Geometric channel model (path loss + exponentially-decaying power-delay profile)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Deployment:
    """Large-scale propagation parameters for the geometric channel model."""

    site_spacing_m: float = 300.0       # D_site, BS-to-BS spacing
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

