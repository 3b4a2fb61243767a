"""Soft-source-information combining over scrambled multi-link streams.

The chain: a dispatcher duplicates each packet across the streams
(netstack), each copy is scrambled and sent over its own link (scrambler,
channel), the receiver descrambles a soft copy without knowing its seed
(descramble, on the LLR conventions of softbits) and reads its header
(vcframe), and the aggregator combines the copies (combine, netstack).
sweeps and cli run it as Monte-Carlo experiments.

The package exports the chain's entry points, __all__; every other name is
imported from its module.
"""

from .scrambler import lfsr_run, mask_matrix, scramble, seed_from_int
from .softbits import LLR_MAX, SoftWord
from .descramble import hd, hrsx, naive_sd, seed_posterior, srsx, z_sequence_table
from .combine import combine_streams
from .vcframe import (FrameKey, VcFrame, decode_header_hard, decode_header_soft,
                      encapsulate, frame_to_bits)
from .channel import ChannelParams, fresh_seed, transmit
from .netstack import Aggregator, AggregatorConfig, Dispatcher, run_metrics, run_network_point
from .sweeps import SweepSpec, run_netsim, run_sweep

__all__ = [
    "scramble", "lfsr_run", "seed_from_int", "mask_matrix",
    "LLR_MAX", "SoftWord",
    "seed_posterior", "z_sequence_table", "hd", "naive_sd", "hrsx", "srsx",
    "combine_streams",
    "FrameKey", "VcFrame", "encapsulate", "frame_to_bits", "decode_header_soft",
    "decode_header_hard",
    "ChannelParams", "fresh_seed", "transmit",
    "Dispatcher", "Aggregator", "AggregatorConfig", "run_network_point", "run_metrics",
    "SweepSpec", "run_sweep", "run_netsim",
]

__version__ = "0.1.0"
