# blindim/model.py
"""Configuration, derived transmission-plan parameters, and channel sampling.

Conventions used throughout the package:
  - Cells and users are 0-indexed internally.
  - cir_len[k][i] is the tap count L_{k,i} of the link from any user in cell i
    to base station k (desired link when i == k, interfering link otherwise).
  - All CIR taps h[0..L-1] are complex baseband coefficients.
  - A channel draw is a dict (k, i) -> taps of shape (..., U_i, L_{k,i}),
    row u from user (i, u) to base station k, holding the links its reader
    needs.  Leading axes stack draws (the Monte Carlo loops' trials, as
    (T, U_i, L)), and the rate and channel builders carry them through.  The
    link simulator (transceiver.simulate_link and its parts) takes one draw.

Small-scale taps have one builder, _taps, for both channel models: a single
IID draw (sample_channel_iid) and a block of trials (trial_blocks) share it,
so a block equals its stacked single draws bit for bit.  Blocks of trials
read their normals from trial_normals, the one per-trial draw loop.  The two
models keep the normal layouts their seeds fix: the IID model is link-major,
fig5's geometric model user-major (user_major=True), and the geometric taps
are large_scale_gain times those.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

MAX_SNR_DB = 5.0 * math.log10(np.finfo(float).max)   # 10^(+-snr_db / 5) finite and > 0


class ConfigError(ValueError):
    """Raised when a configuration violates its invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters for a K-cell uplink with frequency-selective links.

    Valid by construction: building one by any route (the constructor,
    symmetric, dataclasses.replace, configfile.load_system_config) raises
    ConfigError listing every violated invariant.
    """

    K: int                          # number of cells / base stations
    users_per_cell: tuple           # U_k, one entry per cell
    cir_len: tuple                  # K x K tap counts L_{k,i}
    snr_db: float = 10.0            # rho = P / sigma^2 in dB
    subblocks: int = 1              # B, subblock transmissions per block
    seed: int = 0                   # base seed for reproducible sampling
    symbol_model: str = "gaussian"  # "gaussian" or "qpsk"

    def __post_init__(self):
        # normalize to tuples so configs are hashable/immutable, and integral
        # counts to int; _violations reports the entries left unconverted
        for name in ("K", "subblocks", "seed"):
            object.__setattr__(self, name, _integral(getattr(self, name)))
        object.__setattr__(self, "users_per_cell", _entries(self.users_per_cell))
        object.__setattr__(self, "cir_len", _entries(self.cir_len, _entries))
        violations = _violations(self)
        if violations:
            raise ConfigError(violations)

    @classmethod
    def symmetric(cls, K, L_D, L_I, U, **kwargs):
        """Symmetric network: every desired link has L_D taps, every cross link L_I."""
        cir = [[L_D if k == i else L_I for i in range(K)] for k in range(K)]
        return cls(K=K, users_per_cell=[U] * K, cir_len=cir, **kwargs)

    @property
    def snr_linear(self) -> float:
        return float(10.0 ** (self.snr_db / 10.0))


def _integral(x):
    """x as an int when it is an integer (numpy's too) or an integral real,
    else x unchanged."""
    try:
        return operator.index(x)
    except TypeError:
        integral = isinstance(x, numbers.Real) and float(x).is_integer()
        return int(x) if integral else x


def _entries(seq, convert=_integral):
    """tuple(map(convert, seq)), or seq unchanged when it is not iterable."""
    return tuple(map(convert, seq)) if np.iterable(seq) else seq


def _violations(cfg: SystemConfig):
    """The invariants cfg's fields violate, as messages (empty when valid).
    A field of the wrong type, as left by _integral or _entries, is reported
    as such and not range-checked; a K that is not an int checks no lengths."""
    violations = []
    sized = isinstance(cfg.K, int)
    if not sized:
        violations.append("K must be an integer (K=%r)" % (cfg.K,))
    elif cfg.K < 1:
        violations.append("K >= 1 violated (K=%d)" % cfg.K)
    users = cfg.users_per_cell
    if not isinstance(users, tuple):
        violations.append("users_per_cell must be a sequence (users_per_cell=%r)" % (users,))
        users = ()
    elif sized and len(users) != cfg.K:
        violations.append("users_per_cell must have K entries (got %d, K=%d)" % (len(users), cfg.K))
    for k, u in enumerate(users):
        if not isinstance(u, int):
            violations.append("U_k must be an integer at cell %d (U=%r)" % (k, u))
        elif u < 1:
            violations.append("U_k >= 1 violated at cell %d (U=%d)" % (k, u))
    matrix = isinstance(cfg.cir_len, tuple) and all(isinstance(row, tuple) for row in cfg.cir_len)
    if not matrix or sized and (len(cfg.cir_len) != cfg.K
                                or any(len(row) != cfg.K for row in cfg.cir_len)):
        violations.append("cir_len must be a K x K matrix")
    else:
        for k, row in enumerate(cfg.cir_len):
            for i, L in enumerate(row):
                if not isinstance(L, int):
                    violations.append("L must be an integer at (k=%d, i=%d): L=%r" % (k, i, L))
                elif L < 1:
                    violations.append("L >= 1 violated at (k=%d, i=%d): L=%d" % (k, i, L))
    if not isinstance(cfg.subblocks, int):
        violations.append("B must be an integer (B=%r)" % (cfg.subblocks,))
    elif cfg.subblocks < 1:
        violations.append("B >= 1 violated (B=%d)" % cfg.subblocks)
    if not isinstance(cfg.seed, int):
        violations.append("seed must be an integer (seed=%r)" % (cfg.seed,))
    elif cfg.seed < 0:
        violations.append("seed >= 0 violated (seed=%d)" % cfg.seed)
    if not isinstance(cfg.snr_db, numbers.Real):
        violations.append("snr_db must be a real number (snr_db=%r)" % (cfg.snr_db,))
    elif not math.isfinite(cfg.snr_db):
        violations.append("snr_db must be finite (snr_db=%r)" % cfg.snr_db)
    elif cfg.snr_db > MAX_SNR_DB:
        violations.append("snr_db <= %.6g violated (snr_db=%r)" % (MAX_SNR_DB, cfg.snr_db))
    elif cfg.snr_db < -MAX_SNR_DB:
        violations.append("snr_db >= %.6g violated (snr_db=%r)" % (-MAX_SNR_DB, cfg.snr_db))
    if cfg.symbol_model not in ("gaussian", "qpsk"):
        violations.append("symbol_model must be 'gaussian' or 'qpsk'")
    return violations


@dataclass(frozen=True)
class TransmissionPlan:
    """Derived scheme parameters, a pure function of SystemConfig."""

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
    """Theorem 1's plan: cell k keeps n_k = (L_kk - L_I)^+ dimensions past the
    cyclic prefix, and U'_k = min(U_k, n_k) users each send floor(n_k / U'_k) streams."""
    L_D, L_I = link_lengths(cfg)
    spare = [max(cfg.cir_len[k][k] - L_I, 0) for k in range(cfg.K)]
    U_active = tuple(min(U, n) for U, n in zip(cfg.users_per_cell, spare))
    M = tuple(n // U if U else 0 for U, n in zip(U_active, spare))
    N = max(L_D - L_I + max(M), L_I)
    T = cfg.subblocks * (N + L_I - 1) + max(L_D, L_I) - 1
    return TransmissionPlan(B=cfg.subblocks, U_active=U_active, M=M, L_D=L_D, L_I=L_I, N=N, T=T)


def make_delayed_plan(cfg, L_I_d, L_I_prime) -> TransmissionPlan:
    """Transmission plan for the two-stage receiver: ICI-free samples that
    propagation delay creates are harvested, and late ICI taps are noise.

    The L_I_d leading taps of every cross link are zero (propagation delay),
    the combiner cancels taps up to L_I_prime, the plan's L_I, and the taps
    in [L_I_prime, L_I) of the config's longest cross link are residual
    noise.  Every active user sends one symbol on f_1 behind a prefix of
    L_I_prime - 1 samples, which holds the L_I_d harvested samples that the
    combiner folds: (L_kk - L_I_prime)^+ + L_I_d users per cell are active,
    but never more than the N - M_D = N - 1 rows the combiner observes.
    The fold restores the cyclic structure of every cancelled link, so the
    base scheme's receiver serves this plan, but its decoder takes L_I_d > 0
    only at B = 1 (transceiver.decode_block).
    Raises ConfigError unless L_I_d and L_I_prime are integers (numpy's too)
    or integral reals, and 0 <= L_I_d < L_I_prime <= L_I.
    """
    L_D, L_I = link_lengths(cfg)
    L_I_d, L_I_prime = _integral(L_I_d), _integral(L_I_prime)
    integers = isinstance(L_I_d, int) and isinstance(L_I_prime, int)
    if not (integers and 0 <= L_I_d < L_I_prime <= L_I):
        raise ConfigError(["require integers 0 <= L_I_d < L_I_prime <= L_I (got %r, %r, %d)"
                           % (L_I_d, L_I_prime, L_I)])
    N = max(L_D - L_I_prime + 1, L_I_prime)
    U_active = tuple(min(U, max(cfg.cir_len[k][k] - L_I_prime, 0) + L_I_d, N - 1)
                     for k, U in enumerate(cfg.users_per_cell))
    T = cfg.subblocks * (N + L_I_prime - 1) + max(L_D, L_I) - 1
    return TransmissionPlan(
        B=cfg.subblocks, U_active=U_active, M=tuple(int(U > 0) for U in U_active),
        L_D=L_D, L_I=L_I_prime, N=N, T=T, L_I_d=L_I_d,
    )


def cell_groups(cfg: SystemConfig, plan: TransmissionPlan) -> list:
    """The cells as groups of equal shape (U'_k, M_k, L_kk), each a tuple of
    cells in increasing order, the groups in order of their first cell.  The
    cells of one group have effective channels of one shape, so the receiver
    builds, checks and decodes each group as one stack: a symmetric network
    is one group."""
    groups = {}
    for k in range(cfg.K):
        groups.setdefault((plan.U_active[k], plan.M[k], cfg.cir_len[k][k]), []).append(k)
    return [tuple(cells) for cells in groups.values()]


def require_active_cell(plan: TransmissionPlan, command) -> None:
    """Raise ConfigError, naming command, when no cell of plan sends: a cell
    with L_kk <= L_I has no dimension past the cyclic prefix."""
    if not any(plan.U_active):
        raise ConfigError(["%s needs a cell with L_kk > L_I; every L_kk <= L_I = %d"
                           % (command, plan.L_I)])


def trial_rng(seed, trial) -> np.random.Generator:
    """Independent, reproducible stream for (seed, trial)."""
    return np.random.default_rng([int(seed), int(trial)])


def _normal_count(cfg: SystemConfig, links=None) -> int:
    """Standard normals one draw consumes, two per tap of each link in (k, i)
    order, through the last of links (default: every link)."""
    last = max(links) if links is not None else (cfg.K - 1, cfg.K - 1)
    return 2 * sum(cfg.users_per_cell[i] * cfg.cir_len[k][i]
                   for k in range(cfg.K) for i in range(cfg.K) if (k, i) <= last)


def _taps(cfg: SystemConfig, normals, links=None, user_major=False) -> dict:
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
    return taps


class _Draw(dict):
    """A draw's dict whose attribute taps is itself: perfbench's self-test
    still reads that attribute, and the benchmark's files change only with
    the benchmark."""

    taps = property(lambda self: self)


def sample_channel_iid(cfg: SystemConfig, rng: np.random.Generator) -> dict:
    """Draw every tap IID circularly-symmetric complex Gaussian CN(0, 1).

    One standard_normal call feeds every link, in _taps' link-major layout.
    The Generator fills values in sequence, so taps and generator state equal
    those of a real and an imaginary draw per link.
    """
    return _Draw(_taps(cfg, rng.standard_normal(_normal_count(cfg))))


# Trials stacked at once by trial_blocks: bounds its memory whatever the
# trial count
TRIAL_BLOCK = 256


def trial_count(trials) -> int:
    """trials as the int count of a Monte Carlo loop: an integral real runs
    as its int.  Raises ValueError unless trials is an integer >= 1."""
    count = _integral(trials)
    if not isinstance(count, int):
        raise ValueError("trials must be an integer, got %r" % (trials,))
    if count < 1:
        raise ValueError("trials must be >= 1, got %d" % count)
    return count


def trial_normals(seed, trials, n):
    """Standard normals of trials 0 .. trials - 1, yielded in order as
    (T_b, n) blocks with T_b <= TRIAL_BLOCK: row t holds trial_rng(seed, t)'s
    first n normals.

    The Generator fills values in sequence, so the first m columns of a block
    for n >= m are the block for m, bit for bit: draws of different lengths
    from one stream share their first normals.  Raises ValueError, from
    trial_count and on the first next(), unless trials is an integer >= 1.
    """
    count = trial_count(trials)
    for start in range(0, count, TRIAL_BLOCK):
        normals = np.empty((min(TRIAL_BLOCK, count - start), n))
        for t, row in enumerate(normals, start):
            trial_rng(seed, t).standard_normal(out=row)
        yield normals


def trial_blocks(cfg: SystemConfig, trials, links=None, user_major=False):
    """Trials 0 .. trials - 1 of _taps(cfg, normals, links, user_major) over
    trial_normals(cfg.seed, trials, _normal_count(cfg, links)), yielded in
    order as draws stacked (T_b, U_i, L_{k,i}) per link, with
    T_b <= TRIAL_BLOCK.

    Each trial draws only through the last link picked: those are the first
    normals of the full draw.  Link-major blocks of every link equal the
    stacked sample_channel_iid(cfg, trial_rng(cfg.seed, t)).  Raises
    ValueError, on the first next(), unless trials is an integer >= 1.
    """
    for normals in trial_normals(cfg.seed, trials, _normal_count(cfg, links)):
        yield _taps(cfg, normals, links, user_major)


# ---------------------------------------------------------------------------
# Geometric channel model (path loss + exponentially-decaying power-delay profile)
# ---------------------------------------------------------------------------

# fig5's deployment: BS-to-BS spacing D_site, path-loss exponent alpha,
# reference path loss P_0 at 1 m, and power-delay-profile decay beta
SITE_SPACING_M = 300.0
PATHLOSS_EXPONENT = 3.5
REF_LOSS_DB = -80.0
PDP_DECAY = 0.5


def pdp_profile(L, lo, hi) -> np.ndarray:
    """Normalized per-tap variances gamma_ell, ell < L, of the exponential
    delay profile that spreads unit power over taps [lo, hi); every other tap
    is zero.  Desired links take [0, L_D), cross links [L_{I,d}, L_I).
    """
    gamma = np.zeros(L)
    ell = np.arange(lo, min(hi, L))
    gamma[ell] = np.exp(-PDP_DECAY * ell) / np.sum(np.exp(-PDP_DECAY * np.arange(lo, hi)))
    return gamma


def large_scale_gain(cfg: SystemConfig, L_I_d, D_user, k) -> dict:
    """(k, i) -> (..., U_i, L_{k,i}) tap amplitudes sqrt(P_0) * d^(-alpha/2) * sqrt(gamma)
    of every link into base station k of fig5's 7-cell hexagonal layout: the
    center cell and 6 neighbors at spacing SITE_SPACING_M.

    Cell i's users sit D_user from their own site, at evenly-spread angles
    from 0 degrees; d is the length of the site's offset from k plus the
    user's displacement, so cell k's users are exactly D_user away.  An array
    of D_user stacks one layout per entry along the leading axes.  Desired
    links spread their power over [0, L_D), cross links over [L_I_d, L_I),
    with (L_D, L_I) = link_lengths(cfg).  Raises ValueError unless cfg.K == 7,
    0 <= k < 7, 0 <= L_I_d < L_I (integral reals as their int for both) and
    0 < D_user < SITE_SPACING_M, which keeps every d > 0; a bad D_user is
    named by its index in the grid.
    """
    D_user = np.asarray(D_user, dtype=float)
    k = _integral(k)
    if cfg.K != 7 or k not in range(7):
        raise ValueError("need K == 7 and 0 <= k < 7 (K=%d, k=%r)" % (cfg.K, k))
    L_D, L_I = link_lengths(cfg)
    L_I_d = _integral(L_I_d)
    if L_I_d not in range(L_I):
        raise ValueError("need 0 <= L_I_d < L_I = %d (L_I_d=%r)" % (L_I, L_I_d))
    bad = np.argwhere(~((0 < D_user) & (D_user < SITE_SPACING_M)))
    if len(bad):
        at = tuple(int(j) for j in bad[0])
        where = "[%s]" % ", ".join(map(str, at)) if at else ""
        raise ValueError("links into k=%d need 0 < D_user < D_site; D_user%s = %r"
                         % (k, where, float(D_user[at])))
    ring = np.pi / 3.0 * np.arange(6)
    site = np.zeros((7, 2))
    site[1:] = SITE_SPACING_M * np.stack([np.cos(ring), np.sin(ring)], axis=-1)
    U = np.array(cfg.users_per_cell)
    cell = np.repeat(np.arange(7), U)
    ang = 2.0 * np.pi * np.concatenate([np.arange(n) for n in U]) / U[cell]
    step = D_user[..., None, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    offset = (site[cell] - site[k]) + step
    # float_power matches scalar d ** x bit for bit, so existing seeds keep
    # their draws; numpy's SIMD power loop may differ in the last bit
    amp = np.sqrt(10.0 ** (REF_LOSS_DB / 10.0)) * np.float_power(
        np.hypot(offset[..., 0], offset[..., 1]), -PATHLOSS_EXPONENT / 2.0)
    profiles = {}
    gain = {}
    for i, amp_i in enumerate(np.split(amp, np.cumsum(U)[:-1], axis=-1)):
        L = cfg.cir_len[k][i]
        if (i == k, L) not in profiles:
            lo, hi = (0, L_D) if i == k else (L_I_d, L_I)
            profiles[i == k, L] = np.sqrt(pdp_profile(L, lo, hi))
        gain[(k, i)] = amp_i[..., None] * profiles[i == k, L]
    return gain
