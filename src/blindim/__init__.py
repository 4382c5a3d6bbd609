"""Blind interference management for K-cell uplinks with inter-symbol
interference: DFT precoding with cyclic prefixes sized to the interfering
links, channel-independent ICI-nulling projection, successive inter-subblock
cancellation, closed-form DoF/rate analysis, and executable rank checks."""

from .model import (
    ChannelRealization,
    ConfigError,
    SystemConfig,
    TransmissionPlan,
    hex_deployment,
    make_plan,
    sample_channel_iid,
    trial_rng,
)
from .spectral import build_structured, combiner, idft_basis
from .transceiver import (
    combine,
    decode_block,
    simulate_link,
    simulate_reception,
)
from .analysis import (
    baseline_tdma_ofdma,
    dof_interference_channel,
    dof_symmetric,
    dof_theorem1,
    ergodic_rate,
    sum_rate_qr,
)
from .extensions import make_delayed_plan, rate_with_residual_ici

__version__ = "0.1.0"
