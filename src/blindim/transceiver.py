# blindim/transceiver.py
"""End-to-end chain: receive the symbols frame by frame, combine every frame
with spectral.combiner's W (which drops or folds the cyclic prefix and
projects out inter-cell interference), and decode with successive
inter-subblock interference cancellation.  No transmitted sample stream is
formed: each link's spectral.frame_response meets the symbols.

Power convention: sigma^2 = 1 and P = rho (the linear SNR), so every
transmitted sample satisfies E|x[n]|^2 = P when symbols carry variance
N*P/M_k.  The effective per-stream SNR after combining is then N*rho/M_k.
cfg.snr_db is the one SNR knob: a noise generator adds sigma^2 = 1 noise.
fig5's two rates take the same convention.  The chain takes one channel draw;
run_link_trials, simulate's Monte Carlo loop, runs it on independent trials.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import model
from .spectral import build_structured, combiner, frame_response, framed_precoders, leakage_phase

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def draw_symbols(cfg, plan, rng) -> dict:
    """Random unit-variance payload symbols, scaled by sqrt(N rho / M_k) so
    each transmitted sample has power P = rho, the config's linear SNR.

    Returns a dict k -> array of shape (B, U'_k, M_k).  Gaussian cells come
    from one standard_normal draw, laid out as model._taps lays out links:
    cell k's real parts, then its imaginary parts, then cell k + 1's.  Each
    cell is a view into one complex buffer: the same bits and generator
    state as (re + 1j * im) / sqrt(2) from two draws per cell, without their
    temporaries.  A QPSK cell is one rng.choice.  Both scalings are real, so
    they scale the real and imaginary parts as real numbers: numpy's complex
    product and quotient by a real give those bits, at a few times the cost.
    """
    shapes = [(plan.B, plan.U_active[k], plan.M[k]) for k in range(cfg.K)]
    if cfg.symbol_model == "qpsk":
        out = {k: rng.choice(QPSK, size=shape) for k, shape in enumerate(shapes)}
    else:
        sizes = [math.prod(shape) for shape in shapes]
        x = rng.standard_normal(2 * sum(sizes))
        x *= 1.0 / np.sqrt(2.0)
        buf = np.empty(sum(sizes), dtype=complex)
        out, start = {}, 0
        for k, (shape, n) in enumerate(zip(shapes, sizes)):
            s = out[k] = buf[start : start + n].reshape(shape)
            s.real = x[2 * start : 2 * start + n].reshape(shape)
            s.imag = x[2 * start + n : 2 * (start + n)].reshape(shape)
            start += n
    for k, s in out.items():
        if plan.M[k] > 0:
            parts = s.view(float)   # (B, U'_k, 2 M_k): each symbol's two parts
            parts *= np.sqrt(plan.N * cfg.snr_linear / plan.M[k])
    return out


# simulate_reception cuts the links at the longest cross link S only when the
# cross links would be padded to the longest link by more than this many taps
# times users times tones.  Below it, the cut's few numpy calls and its tails'
# leak products cost about as much as the padding.  Interleaved timings
# against the padded route on a 2-vCPU Xeon (one BLAS thread): 2016 padded
# taps (K = 7, L_D = 12, L_I = 4, U = 6) lose 1-17% at B = 10 to 400.  From
# 3000 to 4500 taps the cut ran from 6% slower to 10% faster, by B and by run
# (K = 5, L_D = 16, L_I = 3, U = 3; K = 6, L_D = 16, L_I = 4, U = 3).  From
# 4704 (K = 3, L_D = 32, L_I = 4, U = 4) on, it won at every B tried.  The
# default simulate config pads 8 taps; link_large pads 28224, and there the
# cut saves 35-37%.
SPLIT_PADDED_TAPS = 4500


def simulate_reception(cfg, plan, ch, symbols, rng=None) -> np.ndarray:
    """(K, T) per-BS streams y_k[n] = sum_i sum_u (h * x_{i,u})[n] + z_k[n] of
    one draw (links (U_i, L_{k,i})) and draw_symbols' dict i -> (B, U'_i, M_i)
    of every cell, idle ones (B, 0, 0), with CN(0, 1) noise z from rng (none
    without rng), built frame by frame from spectral.frame_response.  The
    noise is one rng.standard_normal draw of (K, 2, T) real then imaginary
    parts, scaled by sqrt(1/2) in place: the bits of rng.normal with that
    scale, without a second array.  Raises ValueError unless every cell's
    symbols and all K^2 links have exactly those shapes: a missing link would
    be heard as zero, and a one-user desired link broadcast onto all users.

    Every link's first S taps go through one frame_response and one leak
    product, zero-padded to common users, tones and S taps.  frame_response
    is linear in the taps, so a desired link longer than S adds its taps from
    S on as a tail, one cell at a time, whose gains join its link's.  S is
    the longest cross link when the K (K - 1) cross links would otherwise be
    padded by more than SPLIT_PADDED_TAPS taps times users times tones, else
    the longest link, and then no link has a tail.  The links cost
    O((B + 1) K^2 U M S), plus O((B + 1) K U M L_D) for the tails.

    Each stream-sized array is held only while it is read: the padded
    symbols, their lagged copy and the frames meet once, in the leak
    products, so link_large's reception peaks at 3.1 (K, T) streams."""
    K, B, N, cp, N_bar = cfg.K, plan.B, plan.N, plan.cp_len, plan.N_bar
    if any(i not in symbols or np.shape(symbols[i]) != (B, plan.U_active[i], plan.M[i])
           for i in range(K)):
        raise ValueError("each cell's symbols must have shape (B, U'_k, M_k)")
    if any(np.shape(ch.get((k, i))) != (cfg.users_per_cell[i], cfg.cir_len[k][i])
           for k in range(K) for i in range(K)):
        raise ValueError("each link's taps must have shape (U_i, L_{k,i}): one draw")
    U, M = max(plan.U_active), max(plan.M)
    longest = max(h.shape[-1] for h in ch.values())
    S = max((h.shape[-1] for (k, i), h in ch.items() if k != i), default=longest)
    if K * (K - 1) * U * M * (longest - S) <= SPLIT_PADDED_TAPS:
        S = longest
    s = np.zeros((B + 1, K, U, M), dtype=complex)   # frame B sends nothing
    taps = np.zeros((K, K, U, S), dtype=complex)
    for i in range(K):
        s[:B, i, : plan.U_active[i], : plan.M[i]] = symbols[i]
    for (k, i), h in ch.items():
        taps[k, i, : plan.U_active[i], : h.shape[-1]] = h[: plan.U_active[i], :S]
    lagged = np.empty_like(s)   # frame b - 1's leak, rotated, less frame b's own
    np.negative(s[0], out=lagged[0])
    np.multiply(s[:B], leakage_phase(N, cp, M), out=lagged[1:])
    lagged[1:] -= s[1:]
    frames = np.zeros((K, -(-plan.T // N_bar), N_bar), dtype=complex)   # links end by T

    def add_leak(rows, resp):   # (rows, B + 1, L - 1) leaks, frame b's from frame b on
        for span, start in enumerate(range(0, resp.shape[-1], N_bar)):
            part = resp[..., start : start + N_bar]
            frames[rows, span : span + B + 1, : part.shape[-1]] += part

    gains, leak = frame_response(taps.reshape(K, K * U, S), N, cp, M)
    add_leak(slice(None), lagged.reshape(B + 1, -1) @ leak)
    for k in range(K):
        h, u = ch[(k, k)], plan.U_active[k]
        if h.shape[-1] > S:   # the desired link's taps from S on
            tail = np.zeros((U, h.shape[-1]), dtype=complex)
            tail[:u, S:] = h[:u, S:]
            tail_gains, leak = frame_response(tail, N, cp, M)
            gains[k, k * U : (k + 1) * U] += tail_gains
            add_leak(k, lagged[:, k].reshape(B + 1, -1) @ leak)
    del lagged, taps, leak   # freed before the products: lagged is a stream's worth
    tones = (s[:B].reshape(B, K * U, M).transpose(2, 0, 1) @ gains.T).T
    del s, gains
    frames[:, :B] += tones @ framed_precoders(N, cp, M).T
    y = frames.reshape(cfg.K, -1)[:, : plan.T]
    if rng is not None:
        z = rng.standard_normal((cfg.K, 2, plan.T))
        z *= np.sqrt(0.5)
        y.real += z[:, 0]
        y.imag += z[:, 1]
    return y


def combine(plan, y_stream) -> np.ndarray:
    """(..., B, N - M_D) combined observations of a (..., T) stream: each
    subblock's frame of N_bar samples times spectral.combiner's W."""
    y_stream = np.asarray(y_stream)
    frames = y_stream[..., : plan.B * plan.N_bar]
    frames = frames.reshape(y_stream.shape[:-1] + (plan.B, plan.N_bar))
    return frames @ combiner(plan).T


class RankDeficientError(np.linalg.LinAlgError):
    """A channel failed the rank criterion, so its symbols cannot be separated."""


# A matrix counts as full column rank when its numerical_rank, the number of
# its singular values above RANK_TOL times its largest, equals its column count.
RANK_TOL = 1e-8


def numerical_rank(A, s=None):
    """Rank of each matrix of a (..., n, c) stack A: how many of its singular
    values exceed RANK_TOL times its largest.  One batched SVD takes them,
    unless a caller that already has them passes them as s.  An empty
    (..., n, 0) matrix has rank 0, and a wide one (n < c) at most n.
    """
    if s is None:
        s = np.linalg.svd(np.atleast_2d(A), compute_uv=False)
    return (s > RANK_TOL * s[..., :1]).sum(axis=-1)


def zf_projection(H):
    """Verdicts and zero-forcing projections of a (..., n, c) stack of
    channels from one thin SVD: (full, project).  full[...] tells whether
    each matrix's numerical_rank equals c, so an empty matrix passes and a
    wide one fails; project() forms H^+ = V diag(1/s) U^H, (..., c, n), from
    the same factors.  Call it only when every matrix passes: a failing one
    may divide by zero.
    """
    U, s, Vh = np.linalg.svd(H, full_matrices=False)

    def project():
        return (Vh.conj().swapaxes(-1, -2) / s[..., None, :]) @ U.conj().swapaxes(-1, -2)

    return numerical_rank(H, s) == H.shape[-1], project


@dataclass
class DecodeResult:
    """Decoded symbols of every cell."""

    s_hat: dict   # k -> (B, U'_k * M_k) detected symbols


def decode_block(cfg, plan, H, y_tilde) -> DecodeResult:
    """Detect all B subblocks with successive inter-subblock cancellation.

    H is build_structured's dict k -> effective channel and y_tilde[k] the
    (B, N - M_D) combined observations of cell k.  Every later subblock first
    cancels the previous subblock's leakage, which is -H_k times its
    estimated symbols rotated by leakage_phase phi.  Since H_k^+ H_k = I, the
    cancelled ZF estimate is s_b = z_b + phi * s_{b-1} with z_b = H_k^+ y_b,
    so each H_k is checked and inverted once by one thin SVD (zf_projection),
    and all z_b come from one matmul with its projection H_k^+.
    The recursion closes as
    s_b = phi^b * cumsum_{j<=b}(phi^-j * z_j), with phi^b = leakage_phase of a
    prefix b cp long, so that |phi^b| = 1 to round-off for any B.

    Each group of model.cell_groups is decoded as one stack: one
    zf_projection, one projection product and one cumsum, with the bits of
    a decode of each cell alone.  Every group's verdicts come first, so a
    rank failure names the lowest failing cell, whichever group holds it,
    from the one SVD each group takes, and no projection is formed.

    A delayed plan (L_I_d > 0) must have B = 1: the cancellation does not
    model the fold, so every later subblock would decode wrongly.
    """
    if plan.L_I_d and plan.B != 1:
        raise ValueError("delayed-ICI decoding is implemented for single-subblock frames")
    groups = model.cell_groups(cfg, plan)
    verdicts = [zf_projection(np.array([H[k] for k in cells])) for cells in groups]
    failing = [k for cells, (full, _) in zip(groups, verdicts) for k in np.compress(~full, cells)]
    if failing:
        raise RankDeficientError("cell %d: effective channel is numerically rank deficient"
                                 % min(failing))
    # the SVD factors go before the products: kept alive, they slow them by 6%
    projections = [project() for _, project in verdicts]
    del verdicts
    s_hat = {}
    phases = leakage_phase(plan.N, np.arange(plan.B) * plan.cp_len, plan.M_D)
    for cells, projection in zip(groups, projections):
        z = np.array([y_tilde[k] for k in cells]) @ projection.swapaxes(-1, -2)
        powers = np.tile(phases[:, : plan.M[cells[0]]], plan.U_active[cells[0]])
        np.multiply(powers.conj(), z, out=z)   # powers first: z * powers may round differently
        z.cumsum(axis=1, out=z)
        np.multiply(powers, z, out=z)
        s_hat.update(zip(cells, z))
    return DecodeResult(s_hat=s_hat)


def simulate_link(cfg, plan, ch, symbols, noise_rng=None) -> DecodeResult:
    """Full transmit/receive/decode round trip for one channel draw.

    symbols is draw_symbols' dict k -> (B, U'_k, M_k) of (already
    power-scaled) payload symbols; the returned estimates are on the same
    scale.  Without noise_rng the link is noiseless.  decode_block raises
    ValueError for a delayed plan (L_I_d > 0) with B > 1.  The received
    streams go straight into combine, so they are freed before decoding,
    and the effective channels are built after the reception, whose peak
    memory they would raise.
    """
    y_tilde = combine(plan, simulate_reception(cfg, plan, ch, symbols, rng=noise_rng))
    return decode_block(cfg, plan, build_structured(cfg, plan, ch), y_tilde)


# run_link_trials spreads its trials over threads only when one trial's decode
# work, sum_k (N - M_D) (U'_k M_k)^2, reaches this.  numpy's LAPACK, BLAS and
# generator loops release the interpreter lock, but a small trial spends most
# of its time in Python.  Timed in-process on a 2-vCPU Xeon with BLAS pinned
# to one thread, two threads against one over 20 trials: 1.60x on
# link_large's config (work 112896); 0.79-0.94x at works 648, 2016 and 8232,
# and on the default config (16, 200 trials).  At work 448 with B = 100
# (K = 7, L_D = 8, L_I = 4, U = 2), where reception outweighs the decode,
# they ran 1.03-1.07x, but 0.91-0.93x over 2 trials.
THREAD_DECODE_WORK = 10**4

# The variables numpy's BLAS reads its thread count from, by the library
# numpy.show_config names; the first positive one is the count
BLAS_THREAD_VARS = {
    "scipy-openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}


def _blas_threads(cpus):
    """Threads each BLAS call of numpy may use: what its library reads from
    BLAS_THREAD_VARS, or cpus for an unknown library or when none is set."""
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    for var in BLAS_THREAD_VARS.get(name, ()):
        value = os.environ.get(var, "")
        if value.isdecimal() and int(value) > 0:
            return int(value)
    return cpus


def _trial_workers(plan, trials):
    """Threads run_link_trials uses: one unless a trial's decode work reaches
    THREAD_DECODE_WORK and a single-threaded BLAS leaves cores idle, else
    min(trials, cpus // BLAS threads).  A BLAS free to use every core would
    contend with the extra threads, and lose."""
    work = sum((plan.N - plan.M_D) * (u * m) ** 2 for u, m in zip(plan.U_active, plan.M))
    if trials < 2 or work < THREAD_DECODE_WORK:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))   # the CPUs this process may run on
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(trials, cpus // _blas_threads(cpus)))


def _link_trial(cfg, plan, t):
    """Rows (t, k, normalized MSE) of trial t's simulate_link, one per active
    cell; raises RankDeficientError, naming the trial, for a draw that fails
    the rank criterion."""
    rng = model.trial_rng(cfg.seed, t)
    ch = model.sample_channel_iid(cfg, rng)
    symbols = draw_symbols(cfg, plan, rng)
    try:
        result = simulate_link(cfg, plan, ch, symbols, noise_rng=rng)
    except RankDeficientError as exc:
        raise RankDeficientError("trial %d, %s" % (t, exc)) from None
    rows = []
    for k in range(cfg.K):
        if plan.U_active[k] * plan.M[k] == 0:
            continue   # an idle cell sends nothing, so it has no error to report
        truth = symbols[k].reshape(plan.B, -1)
        err = result.s_hat[k] - truth
        rows.append((t, k, float(np.mean(np.abs(err) ** 2) / np.mean(np.abs(truth) ** 2))))
    return rows


def run_link_trials(cfg, plan, trials):
    """Rows (trial, cell, normalized_mse) of simulate_link on trials 0 ..
    trials - 1 of cfg, trial t drawn from trial_rng(cfg.seed, t), in trial
    order; idle cells have no row.

    The trials are independent, so with _trial_workers' W > 1 threads they
    run as W contiguous chunks, the first on the calling thread and the rest
    mapped in order on a pool made for this call.  A draw that fails the
    rank criterion raises the RankDeficientError of the first failing trial,
    as one thread in trial order would: chunks before it run on, chunks
    after it stop at their next trial, and every thread has ended when this
    returns or raises.  Raises, before any thread starts, model.trial_count's
    ValueError unless trials is an integer >= 1 (an integral real runs as
    its int), and model.require_active_cell's ConfigError if no cell sends.
    """
    trials = model.trial_count(trials)
    model.require_active_cell(plan, "simulate")
    workers = _trial_workers(plan, trials)
    failed, lock = [trials], threading.Lock()   # failed[0]: first trial seen to raise

    def chunk_rows(chunk):
        rows = []
        for t in chunk:
            if t >= failed[0]:
                break
            try:
                rows += _link_trial(cfg, plan, t)
            except BaseException:
                with lock:
                    failed[0] = min(failed[0], t)
                raise
        return rows

    chunks = [range(trials * j // workers, trials * (j + 1) // workers) for j in range(workers)]
    if workers == 1:
        return chunk_rows(chunks[0])
    from concurrent.futures import ThreadPoolExecutor

    # the caller keeps a chunk: with it idle and a pool of W, link_large's
    # 2-trial passes ran 15% slower on a fresh thread's cold malloc arena
    with ThreadPoolExecutor(workers - 1) as pool:
        later = pool.map(chunk_rows, chunks[1:])
        return chunk_rows(chunks[0]) + [row for rows in later for row in rows]
