"""The benchmark's workloads: the CLI invocations each one runs, the inputs
they are generated from, and the amount of work one pass represents.

Input size is a fixed trial count T per workload, so every commit is timed on
the same work.  The benchmark seed never reaches the program directly: it
seeds a generator that produces the program's ``--seed``, from which the
program draws every channel and symbol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0       # the seed whose outputs are pinned under reference/

# K=7, L_D=32, L_I=4, U=6, B=100 at 20 dB: the ROADMAP's "one large link"
LARGE_LINK_CONFIG = """\
K = 7
users_per_cell = 6
cir_len = {cir}
snr_db = 20
subblocks = 100
seed = {seed}
"""

FIG3_ROWS = 9 * 3      # default SNR grid x K in {1, 2, 3}
VERIFY_ROWS = 4        # decomposition, effective_rank, rank_inequality, dft_submatrix
FIG5_DISTANCES = 13    # default distance grid 20, 30, ..., 140 m


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trials: int          # T, the fixed input size of one pass
    realizations: int    # channel realizations one pass calls for
    rows: dict           # CSV stem -> rows the command must write

    def commands(self, program_seed: int, out_dir: Path, trials=None) -> list:
        """(CSV stem, argv) for each CLI invocation of one pass, in order;
        `trials` overrides T (set-up runs one warm-up trial)."""
        seed = ["--seed", str(program_seed)]
        trials = ["--trials", str(self.trials if trials is None else trials)]
        if self.name == "ergodic_iid":
            return [("fig3", ["fig3"] + trials + seed), ("verify", ["verify"] + trials + seed)]
        if self.name == "link_large":
            cfg = out_dir / "large_link.cfg"
            return [("simulate", ["simulate", "--config", str(cfg)] + trials + seed)]
        return [("fig5", ["fig5"] + trials + seed)]

    def write_inputs(self, program_seed: int, out_dir: Path) -> None:
        """Write the input files the commands read."""
        if self.name == "link_large":
            cir = "; ".join(
                ",".join("32" if k == i else "4" for i in range(7)) for k in range(7)
            )
            text = LARGE_LINK_CONFIG.format(cir=cir, seed=program_seed)
            (out_dir / "large_link.cfg").write_text(text)


def _workloads():
    # passes of ~0.3-0.6 s: this host has bursts of a few seconds in which
    # the same work runs ~35% faster, so many short passes let the median
    # settle on the usual speed instead of averaging bursts into every pass
    T_ERGODIC, T_LINK, T_FIG5 = 25, 2, 2
    return {
        w.name: w
        for w in (
            Workload(
                "ergodic_iid",
                "fig3 then verify on K=3, L_D=8, L_I=2, U=3: per-trial effective-channel "
                "build, QR rates and TDMA-OFDMA baseline",
                T_ERGODIC,
                3 * 2 * T_ERGODIC + 2 * T_ERGODIC,
                {"fig3": FIG3_ROWS, "verify": VERIFY_ROWS},
            ),
            Workload(
                "link_large",
                "simulate one K=7, L_D=32, L_I=4, U=6, B=100 link: one channel build "
                "reused by 100 subblock ZF-SIC decodes",
                T_LINK,
                T_LINK,
                {"simulate": 7 * T_LINK},
            ),
            Workload(
                "geometric_fig5",
                "fig5 on the 13-point distance grid: geometric sampler and delayed-ICI "
                "channels, bypassing spectral and the transceiver",
                T_FIG5,
                FIG5_DISTANCES * T_FIG5,
                {"fig5": FIG5_DISTANCES},
            ),
        )
    }


WORKLOADS = _workloads()


def program_seed(seed: int) -> int:
    """The program's --seed for a benchmark seed; the same seed gives the same inputs."""
    return random.Random(seed).randrange(2**31)
