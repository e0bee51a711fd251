"""Link-level simulation of delay-Doppler aligned MIMO transmission.

The package models sparse time-variant multipath channels, designs
per-path precoders that line every path up on a common delay with its
Doppler removed, and benchmarks the result against OFDM (with
inter-carrier interference), OTFS, and plain strongest-path beamforming.

The root re-exports the names of README's library example, the experiment
registry and runner, and the exception types; everything else is imported
from its module (ddamsim.channel, ddamsim.zf, ...).
"""

from .channel import coherence_partition, generate_paths, realize_channel
from .config import SystemConfig
from .errors import ContractViolationError, FeasibilityError, NumericalError
from .experiments import EXPERIMENTS, run_experiment
from .zf import residual_isi_power, zf_design

__version__ = "0.1.0"

__all__ = [
    "ContractViolationError",
    "EXPERIMENTS",
    "FeasibilityError",
    "NumericalError",
    "SystemConfig",
    "coherence_partition",
    "generate_paths",
    "realize_channel",
    "residual_isi_power",
    "run_experiment",
    "zf_design",
]
