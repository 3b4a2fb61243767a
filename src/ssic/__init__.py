"""Soft-source-information combining over scrambled multi-link streams.

Layers, bottom up: scrambler (the 7-bit register and its pilot algebra),
softbits (LLR conventions), descramble (seed-blind soft descrambling),
combine (multi-stream LLR summation), vcframe (header code and wire
format), channel (substitute BPSK/AWGN link), netstack (dispatch,
aggregation, metrics), sweeps/cli (Monte-Carlo harness).
"""

from .scrambler import (LFSR_LEN, PERIOD, all_seeds, lfsr_run, lfsr_step, make_pilots,
                        mask_matrix, scramble, seed_from_int, seed_to_int)
from .softbits import (LLR_MAX, SoftWord, clamp_llrs, flip_by_mask, hard_decide,
                       llr_to_prob, quantize)
from .descramble import (SeedPosterior, hd, hrsx, mask_zero_prob, naive_sd,
                         seed_posterior, srsx, z_sequence_table)
from .combine import StreamSoftCopy, decide, ssic_combine
from .vcframe import (BCH_MIN_DIST, BCH_K, BCH_N, CODEWORDS, MTU_PAYLOAD, VcFrame,
                      VcHeader, bch_decode_hard, bch_decode_soft, bch_encode,
                      crc16_ccitt, decode_header_hard, decode_header_soft,
                      encapsulate, encode_header, frame_from_bytes, frame_to_bytes)
from .channel import (ChannelParams, StreamObservation, bpsk_awgn_llrs, fresh_seed,
                      snr_db_to_sigma2, soft_copy, transmit)
from .netstack import (Aggregator, AggregatorConfig, Dispatcher, FrameKey,
                       PacketRecord, RunMetrics, dispatch, run_metrics,
                       run_network_point, vcs_newer)
from .sweeps import SweepSpec, run_netsim, run_sweep

__version__ = "0.1.0"
