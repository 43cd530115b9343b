"""Streaming erasure codes for a two-hop relay network with a decode deadline.

The package splits into layers: finite-field primitives (gf), delay
spectra and groupings (spectrum), single-link streaming codes (codes),
erasure channels (channels), rate planning (planner), network assembly
and execution (relay), and measurement plus verification (sim). The cli
module exposes the same pipeline as subcommands.
"""

from .planner import (
    NetworkConfig,
    cswdf_plan,
    mwdf_rate,
    oswdf_optimize,
    t_min,
    upper_bound,
)
from .relay import assemble
from .sim import ChannelSpec, run_monte_carlo, verify_adversarial

__all__ = [
    "ChannelSpec",
    "NetworkConfig",
    "assemble",
    "cswdf_plan",
    "mwdf_rate",
    "oswdf_optimize",
    "run_monte_carlo",
    "t_min",
    "upper_bound",
    "verify_adversarial",
]

__version__ = "0.1.0"
