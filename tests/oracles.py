"""Reference implementations the tests check the package against.

Each is the plain form of something the package computes another way: one
register step at a time, a sign flip by an explicit mask, the AWGN link
drawing its own noise for a bit sequence, the noise bound of transmit's
clean screen as a search over doubles, and the header CRC from its
polynomial, one header block decoded alone, a soft word built from its
pilot and payload blocks, and a network point that keeps a record and the
payload of every packet and stamps each stream's address into one unpacked
frame.
They live here, apart from the code they check.
"""

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ssic.channel import (ChannelParams, StreamObservation, fresh_seed, snr_db_to_sigma2,
                          transmit)
from ssic.netstack import (VCS_MOD, Aggregator, AggregatorConfig, AggregatorStats, Dispatcher,
                           FrameKey, RunMetrics)
from ssic.scrambler import LFSR_LEN
from ssic.softbits import SoftWord
from ssic.vcframe import BCH_K, BCH_N, STREAM_ADDR_BITS, _addr_bits, _decode_blocks, frame_to_bits


def bch_decode_soft(llrs: np.ndarray) -> np.ndarray:
    """Exact ML decoding of one block from 63 LLRs."""
    y = np.asarray(llrs, dtype=np.float64)
    if y.shape != (BCH_N,):
        raise ValueError(f"need {BCH_N} LLRs")
    v = int(_decode_blocks(y[None, :])[0])
    return ((v >> np.arange(BCH_K - 1, -1, -1)) & 1).astype(np.uint8)


def with_stream_addr(bits: np.ndarray, stream_addr: int) -> np.ndarray:
    """A copy of a frame's wire bits carrying stream_addr instead.

    The frames of one packet differ only in the address, so this gives each
    stream's bits from one frame_to_bits call.
    """
    out = bits.copy()
    out[:STREAM_ADDR_BITS] = _addr_bits(stream_addr)
    return out


def lfsr_step(state: np.ndarray) -> tuple[int, np.ndarray]:
    """One register update.  Returns (output bit, next state)."""
    s = np.asarray(state, dtype=np.uint8)
    if s.shape != (LFSR_LEN,):
        raise ValueError(f"state must have shape ({LFSR_LEN},), got {s.shape}")
    z = int(s[0] ^ s[3])
    nxt = np.empty(LFSR_LEN, dtype=np.uint8)
    nxt[:-1] = s[1:]
    nxt[-1] = z
    return z, nxt


def flip_by_mask(llrs: np.ndarray, mask_bits: np.ndarray) -> np.ndarray:
    """Descramble soft values: negate each LLR whose mask bit is 1.

    XOR with a known bit, in the LLR domain, is a sign flip.  Self-inverse
    and magnitude-preserving.
    """
    l = np.asarray(llrs, dtype=np.float64)
    z = np.asarray(mask_bits, dtype=np.uint8)
    if l.shape != z.shape:
        raise ValueError(f"length mismatch: {l.shape} vs {z.shape}")
    return l * (1.0 - 2.0 * z.astype(np.float64))


def soft_word(pilots, payload) -> SoftWord:
    """The SoftWord of pilot LLRs followed by payload LLRs: the two blocks
    are concatenated into a new word, which SoftWord takes over, so neither
    block is changed."""
    pilots = np.asarray(pilots, dtype=np.float64)
    return SoftWord(np.concatenate([pilots, np.asarray(payload, dtype=np.float64)]), pilots.size)


def bpsk_awgn_llrs(bits: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Raw (unclamped) LLRs 2y/sigma^2 for a bit sequence over the AWGN link."""
    b = np.asarray(bits, dtype=np.uint8)
    sigma2 = snr_db_to_sigma2(snr_db)
    return 2.0 * ((1.0 - 2.0 * b) + rng.normal(0.0, np.sqrt(sigma2), b.size)) / sigma2


def clean_noise_bound(sigma2: float) -> float:
    """The largest double t with fl(t * sqrt(sigma2)) < 1.

    fl(sqrt(sigma2) * z) is monotone in z, so every standard normal sample
    with |z| <= t scales to noise of magnitude below 1, which cannot move
    a +-1 symbol across zero: fl(w + 1) >= 0 and fl(w - 1) < 0 for |w| < 1.
    """
    s = np.sqrt(sigma2)
    t = 1.0 / s
    while t * s < 1.0:
        t = np.nextafter(t, np.inf)
    while t * s >= 1.0:
        t = np.nextafter(t, -np.inf)
    return float(t)


_CRC16_POLY = 0x1021


def _crc16_table() -> list[int]:
    """Entry t: the register t << 8 after 8 shifts through the polynomial."""
    crc = np.arange(256) << 8
    for _ in range(8):
        crc = np.where(crc & 0x8000, (crc << 1) ^ _CRC16_POLY, crc << 1) & 0xFFFF
    return crc.tolist()


_CRC16_TABLE = _crc16_table()


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection.

    Byte-wise: the top byte of the register, XORed with the next data byte,
    indexes the table of its 8 shifts.
    """
    crc = 0xFFFF
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[(crc >> 8) ^ byte]
    return crc


@dataclass
class PacketRecord:
    """Ground truth plus per-stream outcomes for one sent packet."""

    key: FrameKey
    detected: tuple[bool, ...]
    hard: tuple[bool, ...]
    ssic_delivered: bool = False


def run_metrics(records: Sequence[PacketRecord], n_streams: int) -> dict[str, RunMetrics]:
    """Per-mode metrics out of one shared delivery log.

    stream<k> counts only stream k's clean copies; dup is first-clean-copy-
    wins across streams; ssic is the aggregator's actual outcome.
    """
    sent = len(records)
    out: dict[str, RunMetrics] = {}
    for k in range(n_streams):
        det = sum(r.detected[k] for r in records)
        dlv = sum(r.detected[k] and r.hard[k] for r in records)
        out[f"stream{k + 1}"] = RunMetrics(sent, det, dlv)
    det_any = sum(any(r.detected) for r in records)
    out["dup"] = RunMetrics(sent, det_any, sum(any(r.hard) for r in records))
    out["ssic"] = RunMetrics(sent, det_any, sum(r.ssic_delivered for r in records))
    return out


def run_network_point(n_packets: int, payload_bytes: int,
                      stream_params: Sequence[ChannelParams], L: int,
                      rng: np.random.Generator, variant: str = "srsx",
                      window_size: int = 1024, arrival_jitter: float = 0.5,
                      vci: int = 1) -> tuple[list[PacketRecord], AggregatorStats]:
    """Simulate one configured operating point end to end.

    Every packet is dispatched on all streams.  A detected copy of packet i
    arrives at time i + arrival_jitter * u, u uniform in [0, 1), and waits
    in a heap keyed on (arrival time, send order).  Just before packet i is
    sent, every held copy that arrives before time i goes to a fresh
    aggregator; no copy sent later can arrive before them, so the aggregator
    sees the order of one sort of all arrivals.  The heap holds
    O(streams * ceil(arrival_jitter)) copies at a time, and the aggregator
    holds pending copies of at most window_size keys, none of them
    window_size or more serials behind its newest delivery (see Aggregator);
    only the sent packets and their small records grow with n_packets.
    Returns ground-truth packet records (with the aggregator outcome filled
    in) and the aggregator counters.
    """
    n_streams = len(stream_params)
    if n_streams < 1:
        raise ValueError("need at least one stream")
    if not 0.0 <= arrival_jitter < np.inf:
        raise ValueError(f"arrival_jitter: must be finite and >= 0, got {arrival_jitter}")
    dispatcher = Dispatcher(vci, [0x020000000000 + k for k in range(n_streams)])
    packets: list[bytes] = []
    records: list[PacketRecord] = []
    held: list[tuple[float, int, int, StreamObservation]] = []
    n_arrivals = 0

    # (vci, vcs) keys repeat every VCS_MOD packets, so a key names a packet
    # only relative to an arrival: it is the packet within half the serial
    # space of the packet whose copy arrived.  push_until sets arriving to
    # that packet's index before each push.  Packets not yet sent match no
    # key: a payload equals an unsent one only by chance.
    arriving = 0

    def packet_of(key: FrameKey) -> int | None:
        sent = records[arriving].key
        j = arriving + (key.vcs - sent.vcs + VCS_MOD // 2) % VCS_MOD - VCS_MOD // 2
        return j if key.vci == sent.vci and 0 <= j < len(packets) else None

    def payload_check(key: FrameKey, payload: bytes) -> bool:
        j = packet_of(key)
        return j is not None and packets[j] == payload

    agg = Aggregator(AggregatorConfig(variant=variant, window_size=window_size),
                     payload_check=payload_check)

    def push_until(t: float | None) -> None:
        """Push the held copies that arrive before time t (all of them for None)."""
        nonlocal arriving
        while held and (t is None or held[0][0] < t):
            _, _, arriving, obs = heapq.heappop(held)
            result = agg.push(obs)
            if result is not None and payload_check(*result):
                records[packet_of(result[0])].ssic_delivered = True

    for i in range(n_packets):
        push_until(i)
        packet = rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes()
        key, frames = dispatcher.send(packet)
        packets.append(packet)
        # the payload is unpacked once per packet; each stream stamps its address
        wire = frame_to_bits(frames[0][1])
        detected, hard = [], []
        for k, frame in frames:
            obs = transmit(fresh_seed(rng), with_stream_addr(wire, frame.stream_addr), L,
                           stream_params[k], rng, stream_id=k)
            detected.append(obs.detected)
            hard.append(obs.detected and obs.crc_pass)
            if obs.detected:
                heapq.heappush(held, (i + arrival_jitter * rng.random(), n_arrivals, i, obs))
                n_arrivals += 1
        records.append(PacketRecord(key, tuple(detected), tuple(hard)))
    push_until(None)
    return records, agg.stats
