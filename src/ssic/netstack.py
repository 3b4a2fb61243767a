"""Multi-stream delivery: dispatch, soft-copy aggregation, and run metrics.

The sender duplicates each packet across all streams (same VCI/VCS/payload,
per-stream address).  The receiver-side aggregator processes one frame
arrival at a time:

  1. clean (CRC-pass) frames skip soft processing, but still pass the
     duplicate check before delivery, so a packet is never delivered twice
     inside the tracking window; their header is read before the payload,
     so a duplicate is dropped without unpacking it;
  2. soft frames are descrambled seed-blind (srsx by default) and their
     header is recovered by soft block decoding; an unverifiable header
     drops the copy;
  3. copies of an already-delivered packet are discarded;
  4. a soft copy joins any pending copies of the same packet; when at least
     two copies exist they are combined and the result is delivered if it
     verifies, otherwise the copy is stored;
  5. delivery records the key in the bounded dedup window and purges the
     pending list for that key.

Delivered and pending keys are held for at most window_size serials: each
lives in a FIFO of window_size keys, and a key is also forgotten once it is
window_size or more serials behind the newest delivered serial of its VCI,
compared by serial-number arithmetic (RFC 1982, vcs_newer).  So a copy left
pending never meets the copies of a later packet that reuses its key after
the 16-bit serial wraps, and a copy arriving that far behind is not held.
A key forgotten by the dedup window can in principle be re-delivered much
later; the metrics count such duplicates rather than treating them as
errors.  Payload verification is an idealized CRC: the simulation harness
supplies a predicate that compares against ground truth and never
false-accepts.

run_network_point streams each copy to the aggregator as soon as no copy
still to be sent can arrive before it, so a run holds only the copies
within the arrival jitter of the newest packet, not every soft word.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channel import ChannelParams, StreamObservation, fresh_seed, transmit
from .descramble import hrsx, naive_sd, srsx
from .scrambler import mask_matrix
from .softbits import SoftWord
from .vcframe import (FRAME_OVERHEAD_BITS, HEADER_CODED_BITS, STREAM_ADDR_BITS, VcFrame,
                      decode_header_soft, encapsulate, frame_to_bits, header_from_bits,
                      is_frame_length, payload_from_bits, with_stream_addr)

# The per-copy entry points the aggregator used to call stay importable from
# this module, under the names ssicbench/spans.py traces, although push no
# longer calls them: it reads a clean copy's header and payload straight from
# its bits and sums soft copies into one buffer.
from .combine import ssic_combine  # noqa: F401
from .vcframe import frame_from_bits  # noqa: F401

VCS_MOD = 1 << 16


class FrameKey(NamedTuple):
    """Identity of one packet instance on the virtual channel."""

    vci: int
    vcs: int


def vcs_newer(a: int, b: int) -> bool:
    """True when serial number a is strictly newer than b, mod 2^16.

    Standard serial-number arithmetic: the half-range rule keeps ordering
    sane across the 65535 -> 0 wrap.
    """
    d = (a - b) % VCS_MOD
    return 0 < d < VCS_MOD // 2


def dispatch(packet: bytes, vci: int, next_vcs: int,
             stream_addrs: Sequence[int]) -> list[tuple[int, VcFrame]]:
    """One frame per stream for a single packet; only stream_addr differs.

    The header is encoded once: every frame shares that (read-only) coded
    header and the payload.
    """
    if not stream_addrs:
        raise ValueError("need at least one stream")
    frame = encapsulate(packet, vci, next_vcs, stream_addrs[0])
    frame.header_coded.flags.writeable = False
    return [(k, replace(frame, stream_addr=addr)) for k, addr in enumerate(stream_addrs)]


class Dispatcher:
    """Owns the serial counter; wraps mod 2^16.

    send encodes each packet's header once; the packet's frames share it and
    the payload and differ only in stream_addr.
    """

    def __init__(self, vci: int, stream_addrs: Sequence[int], first_vcs: int = 0):
        self.vci = vci
        self.stream_addrs = list(stream_addrs)
        self.next_vcs = first_vcs % VCS_MOD

    def send(self, packet: bytes) -> tuple[FrameKey, list[tuple[int, VcFrame]]]:
        key = FrameKey(self.vci, self.next_vcs)
        frames = dispatch(packet, self.vci, self.next_vcs, self.stream_addrs)
        self.next_vcs = (self.next_vcs + 1) % VCS_MOD
        return key, frames


@dataclass
class AggregatorConfig:
    variant: str = "srsx"  # seed-blind descrambler for soft copies
    pilot_len: int = 16
    window_size: int = 1024

    def __post_init__(self):
        if self.variant not in ("naive", "hrsx", "srsx"):
            raise ValueError(f"unknown soft descrambling variant: {self.variant}")
        if self.pilot_len < 7:
            raise ValueError("pilot_len must be >= 7")
        if not 1 <= self.window_size < VCS_MOD // 2:
            # a window holding half the serial space could hold two packets
            # with the same (vci, vcs) key
            raise ValueError(
                f"window_size: must be in [1, {VCS_MOD // 2}), got {self.window_size}")


@dataclass
class AggregatorStats:
    delivered: int = 0
    delivered_hard: int = 0
    delivered_combined: int = 0
    duplicate_drops: int = 0
    header_invalid_drops: int = 0
    soft_stored: int = 0
    combine_failures: int = 0
    pending_evictions: int = 0


class Aggregator:
    """Receiver-side state machine over per-frame observations."""

    def __init__(self, config: AggregatorConfig,
                 payload_check: Callable[[FrameKey, bytes], bool]):
        if payload_check is None:
            raise ValueError("the aggregator needs a payload verification predicate")
        self.config = config
        self.payload_check = payload_check
        self.mask = mask_matrix(config.pilot_len)
        self.delivered: OrderedDict[FrameKey, None] = OrderedDict()
        self.pending: OrderedDict[FrameKey, dict[int, np.ndarray]] = OrderedDict()
        self.newest: dict[int, int] = {}  # newest delivered serial per VCI
        self.stats = AggregatorStats()
        # row 0: a soft copy's descrambled word; rows 1-2: srsx's scratch,
        # and then row 1 the sum of a packet's copies.  Reused by every push.
        self._work = np.empty((3, 0))

    def _descramble(self, word: SoftWord) -> np.ndarray:
        """The descrambled word, written into a work row: valid until the next push."""
        if self._work.shape[1] != word.M:
            self._work = np.empty((3, word.M))
        out = self._work[0]
        if self.config.variant == "srsx":
            return srsx(word, self.mask, out=out, scratch=self._work[1:3])
        if self.config.variant == "hrsx":
            return hrsx(word, self.mask, out=out)[0]
        return naive_sd(word, out=out)

    def _stale(self, key: FrameKey) -> bool:
        """True when key is window_size or more serials behind its VCI's newest delivery."""
        newest = self.newest.get(key.vci)
        return (newest is not None and vcs_newer(newest, key.vcs)
                and (newest - key.vcs) % VCS_MOD >= self.config.window_size)

    def _advance(self, key: FrameKey) -> None:
        """Make a newer delivered key its VCI's newest; forget the keys it leaves stale."""
        last = self.newest.get(key.vci)
        if last is not None and not vcs_newer(key.vcs, last):
            return
        self.newest[key.vci] = key.vcs
        step = VCS_MOD if last is None else (key.vcs - last) % VCS_MOD
        if step <= len(self.pending) + len(self.delivered):
            # no held key is stale before a delivery moves the edge, and a move
            # of step serials makes stale only the step serials it passes
            edge = key.vcs - self.config.window_size
            candidates = [FrameKey(key.vci, (edge - s) % VCS_MOD) for s in range(step)]
        else:
            candidates = [*self.pending, *self.delivered]
        for k in candidates:
            if self._stale(k):
                if self.pending.pop(k, None) is not None:
                    self.stats.pending_evictions += 1
                self.delivered.pop(k, None)

    def _deliver(self, key: FrameKey, payload: bytes, combined: bool) -> tuple[FrameKey, bytes]:
        self.pending.pop(key, None)
        if not self._stale(key):
            self.delivered[key] = None
            if len(self.delivered) > self.config.window_size:
                self.delivered.popitem(last=False)
            self._advance(key)
        self.stats.delivered += 1
        if combined:
            self.stats.delivered_combined += 1
        else:
            self.stats.delivered_hard += 1
        return key, payload

    def push(self, obs: StreamObservation) -> tuple[FrameKey, bytes] | None:
        """Process one frame arrival; returns (key, packet) on delivery.

        A copy whose length no frame can have is dropped as header-invalid,
        clean or soft.
        """
        if not obs.detected:
            raise ValueError("undetected frames never reach the aggregator")

        if obs.crc_pass:
            bits = np.asarray(obs.hard_bits, dtype=np.uint8)
            header = (header_from_bits(bits) if bits.ndim == 1 and is_frame_length(bits.size)
                      else None)
            if header is None:
                self.stats.header_invalid_drops += 1
                return None
            key = FrameKey(header.vci, header.vcs)
            if key in self.delivered:
                self.stats.duplicate_drops += 1
                return None
            return self._deliver(key, payload_from_bits(bits), combined=False)

        word = obs.soft
        if word.L != self.config.pilot_len:
            raise ValueError(f"observation has {word.L} pilots, config expects "
                             f"{self.config.pilot_len}")
        if not is_frame_length(word.M):
            self.stats.header_invalid_drops += 1
            return None
        llrs = self._descramble(word)
        header = decode_header_soft(llrs[STREAM_ADDR_BITS:STREAM_ADDR_BITS + HEADER_CODED_BITS])
        if header is None:
            self.stats.header_invalid_drops += 1
            return None
        key = FrameKey(header.vci, header.vcs)
        if key in self.delivered:
            self.stats.duplicate_drops += 1
            return None

        payload_llrs = llrs[FRAME_OVERHEAD_BITS:]
        others = [l for sid, l in self.pending.get(key, {}).items()
                  if l.size == payload_llrs.size and sid != obs.stream_id]
        if others:
            # the copies' LLR sum, stored copies first, as ssic_combine adds
            # them; its signs are the decisions of the clamped sum
            total = self._work[1, :payload_llrs.size]
            np.copyto(total, others[0])
            for l in others[1:]:
                total += l
            total += payload_llrs
            packet = np.packbits(total < 0).tobytes()
            if self.payload_check(key, packet):
                return self._deliver(key, packet, combined=True)
            self.stats.combine_failures += 1
        self._store(key, obs.stream_id, payload_llrs)
        return None

    def _store(self, key: FrameKey, stream_id: int, payload_llrs: np.ndarray) -> None:
        if self._stale(key):
            # arrived too late to meet another copy inside the window
            self.stats.pending_evictions += 1
            return
        if key not in self.pending:
            self.pending[key] = {}
            if len(self.pending) > self.config.window_size:
                self.pending.popitem(last=False)
                self.stats.pending_evictions += 1
        self.pending[key][stream_id] = payload_llrs.copy()
        self.stats.soft_stored += 1


@dataclass
class PacketRecord:
    """Ground truth plus per-stream outcomes for one sent packet."""

    key: FrameKey
    detected: tuple[bool, ...]
    hard: tuple[bool, ...]
    ssic_delivered: bool = False


@dataclass
class RunMetrics:
    """Loss/error accounting for one delivery mode over a run."""

    sent: int
    detected: int
    delivered: int
    plr: float = field(init=False)
    per: float = field(init=False)
    fr: float = field(init=False)

    def __post_init__(self):
        if not 0 <= self.delivered <= self.detected <= self.sent:
            raise ValueError("need delivered <= detected <= sent")
        self.plr = (self.sent - self.detected) / self.sent if self.sent else 0.0
        self.per = (self.detected - self.delivered) / self.detected if self.detected else 0.0
        self.fr = 1.0 - (1.0 - self.plr) * (1.0 - self.per)


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

    agg = Aggregator(AggregatorConfig(variant=variant, pilot_len=L, window_size=window_size),
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
