"""Multi-stream delivery: sending, soft-copy aggregation, and run metrics.

The sender duplicates each packet across all streams (same VCI/VCS/payload,
per-stream address), and each stream's frame is unpacked to wire bits on its
own.  Streams need not share a pilot length: every soft copy is descrambled at
its own word's L.  The receiver-side aggregator takes one frame arrival at
a time, and Aggregator.push reads it, then offers it:

  1. read: a clean (CRC-pass) copy's key (vcframe.FrameKey) is read from
     its bits, then its payload packed into bytes; a soft copy is
     descrambled seed-blind (srsx by default) and its key soft-decoded;
  2. offer: a copy with no key or an already-delivered key is dropped;
     bytes are delivered; soft LLRs are combined (ssic_combine) with the
     key's pending copies from other streams, and the result is delivered
     if it verifies, else the copy is stored.  Delivery records the key in
     the bounded dedup window and drops its pending copies.

Delivered and pending keys are held for at most window_size serials: each
lives in a FIFO of window_size keys, and a key is also forgotten once it is
window_size or more serials behind the newest delivered serial of its VCI,
compared by serial-number arithmetic (RFC 1982, vcs_delta).  So a copy left
pending never meets the copies of a later packet that reuses its key after
the 16-bit serial wraps, and a copy arriving that far behind is not held.
A key forgotten by the dedup window can in principle be re-delivered much
later; the metrics count such duplicates rather than treating them as
errors.  Payload verification is an idealized CRC: the simulation harness
supplies a predicate that compares a 128-bit digest of the candidate against
the sent payload's, so it false-accepts only on a 128-bit digest collision.

run_network_point streams each copy to the aggregator as soon as no copy
still to be sent can arrive before it, and holds a payload's 16-byte digest
only while a key can still name its packet, so beyond the copies in flight
and that ring a run keeps only bool outcome columns (PacketOutcomes),
2 * streams + 1 bytes per packet.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelParams, StreamObservation, fresh_seed, transmit
from .combine import ssic_combine
from .descramble import hrsx, naive_sd, srsx
from .scrambler import check_pilot_len, checked_bits, is_int, is_real
from .softbits import hard_decide
from .vcframe import (MTU_PAYLOAD, FrameKey, VcFrame, decode_header_soft, encapsulate,
                      frame_to_bits, header_from_bits, is_frame_length, split_frame)

# importable here under the name ssicbench/spans.py traces, though push does not call it
from .vcframe import frame_from_bits  # noqa: F401

VCS_MOD = 1 << 16
RUN_VCI = 1  # the virtual channel run_network_point sends on
SOFT_VARIANTS = ("naive", "hrsx", "srsx")  # the seed-blind descramblers push can run


def vcs_delta(a: int, b: int) -> int:
    """Signed serial distance a - b, mod 2^16, in [-2^15, 2^15).

    Serial-number arithmetic (RFC 1982): a is newer than b when the distance
    is positive; exactly half the serial space counts as behind.
    """
    return (a - b + VCS_MOD // 2) % VCS_MOD - VCS_MOD // 2


class Dispatcher:
    """Owns the serial counter, which starts at 0 and wraps mod 2^16.

    send encapsulates each packet once and makes the other K - 1 frames from
    that frame, so the K frames share its payload and read-only header
    encoding and differ only in stream_addr.
    """

    def __init__(self, vci: int, stream_addrs: Sequence[int]):
        if not stream_addrs:
            raise ValueError("need at least one stream")
        self.vci = vci
        self.stream_addrs = list(stream_addrs)
        self.next_vcs = 0

    def send(self, packet: bytes) -> tuple[FrameKey, list[tuple[int, VcFrame]]]:
        """The packet's key and one (stream index, frame) per stream."""
        key = FrameKey(self.vci, self.next_vcs)
        first = encapsulate(packet, *key, self.stream_addrs[0])
        frames = [(k, VcFrame(addr, first.header_coded, first.payload) if k else first)
                  for k, addr in enumerate(self.stream_addrs)]
        self.next_vcs = (self.next_vcs + 1) % VCS_MOD
        return key, frames


@dataclass
class AggregatorConfig:
    variant: str = "srsx"  # seed-blind descrambler for soft copies
    window_size: int = 1024

    def __post_init__(self):
        if self.variant not in SOFT_VARIANTS:
            raise ValueError(f"unknown soft descrambling variant: {self.variant}")
        # a fractional window makes serials that match no key, and a window
        # holding half the serial space could hold two packets with one key
        if not is_int(self.window_size):
            raise ValueError(f"window_size: must be an integer, got {self.window_size!r}")
        if not 1 <= self.window_size < VCS_MOD // 2:
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
        self.delivered: OrderedDict[FrameKey, None] = OrderedDict()
        self.pending: OrderedDict[FrameKey, dict[int, np.ndarray]] = OrderedDict()
        self.newest: dict[int, int] = {}  # newest delivered serial per VCI
        self.stats = AggregatorStats()

    def _stale(self, key: FrameKey) -> bool:
        """True when key is window_size or more serials behind its VCI's newest delivery."""
        newest = self.newest.get(key.vci)
        return newest is not None and vcs_delta(newest, key.vcs) >= self.config.window_size

    def _advance(self, key: FrameKey) -> None:
        """Make a newer delivered key its VCI's newest; forget the keys it leaves stale."""
        last = self.newest.get(key.vci)
        step = VCS_MOD if last is None else vcs_delta(key.vcs, last)
        if step <= 0:
            return
        self.newest[key.vci] = key.vcs
        if step <= len(self.pending) + len(self.delivered):
            # no held key is stale before a delivery moves the edge, and a move
            # of step serials makes stale only the step serials it passes
            edge = key.vcs - self.config.window_size
            candidates = [FrameKey(key.vci, (edge - s) % VCS_MOD) for s in range(step)]
        else:
            candidates = [*self.pending, *self.delivered]
        for k in candidates:
            if self._stale(k):
                self._evict(k)
                self.delivered.pop(k, None)

    def _evict(self, key: FrameKey) -> None:
        """Forget the pending copies of key, if any, as an eviction."""
        if self.pending.pop(key, None) is not None:
            self.stats.pending_evictions += 1

    def _deliver(self, key: FrameKey, payload: bytes, combined: bool) -> tuple[FrameKey, bytes]:
        self.pending.pop(key, None)
        if not self._stale(key):
            self.delivered[key] = None
            # staleness alone holds one VCI's keys to window_size, but not the
            # keys of several VCIs, nor a key exactly half the serial space
            # from the newest: vcs_delta puts each of the two behind the other,
            # so that key neither moves the edge nor goes stale
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
        """Process one frame arrival, read then offer; returns (key, packet) on delivery."""
        key, copy = self.read(obs)
        return self.offer(key, obs.stream_id, copy)

    def read(self, obs: StreamObservation) -> tuple[FrameKey | None, bytes | np.ndarray | None]:
        """The front end: an arrival's key (None if none decodes) and its copy:
        for a clean copy, whose bits must be 0s and 1s (checked_bits) and whose
        key is read first, the payload's bytes; for a soft one, the variant's
        descrambled payload LLRs.  A shape no frame has reads as (None, None)."""
        if not obs.detected:
            raise ValueError("undetected frames never reach the aggregator")
        if obs.crc_pass:
            bits = checked_bits(obs.hard_bits, "hard_bits", one_dim=False)
            key = header_from_bits(bits)
            return key, None if key is None else np.packbits(split_frame(bits)[1]).tobytes()
        if not is_frame_length(obs.soft.M):
            return None, None
        word, v = obs.soft, self.config.variant
        llrs = srsx(word) if v == "srsx" else hrsx(word)[0] if v == "hrsx" else naive_sd(word)
        coded, payload_llrs = split_frame(llrs)
        return decode_header_soft(coded), payload_llrs

    def offer(self, key: FrameKey | None, stream_id: int,
              copy: bytes | np.ndarray | None) -> tuple[FrameKey, bytes] | None:
        """The key protocol over one copy; returns (key, packet) on delivery.
        A None key is header-invalid and a delivered key a duplicate; bytes
        are delivered; LLRs combine with the key's pending copies of their
        size from other streams, delivered if that verifies, else are stored
        unless stale.  Any other copy of a key is refused by name."""
        if key is None:
            self.stats.header_invalid_drops += 1
            return None
        if not (isinstance(copy, bytes) or isinstance(copy, np.ndarray) and copy.ndim == 1
                and copy.dtype.kind == "f"):
            raise ValueError(f"copy: must be bytes or a 1-D float array, got {copy!r:.60}")
        if key in self.delivered:
            self.stats.duplicate_drops += 1
            return None
        if isinstance(copy, bytes):
            return self._deliver(key, copy, combined=False)
        copies = {sid: l for sid, l in self.pending.get(key, {}).items()
                  if l.size == copy.size and sid != stream_id}
        if copies:
            copies[stream_id] = copy
            packet = np.packbits(hard_decide(ssic_combine(copies))).tobytes()
            if self.payload_check(key, packet):
                return self._deliver(key, packet, combined=True)
            self.stats.combine_failures += 1
        if self._stale(key):
            # arrived too late to meet another copy inside the window
            self.stats.pending_evictions += 1
            return None
        if key not in self.pending:
            self.pending[key] = {}
            if len(self.pending) > self.config.window_size:
                self._evict(next(iter(self.pending)))
        self.pending[key][stream_id] = copy
        self.stats.soft_stored += 1
        return None


@dataclass(frozen=True, eq=False)
class PacketOutcomes:
    """A run's outcomes, row i for packet i, whose key is (RUN_VCI, i mod VCS_MOD).

    detected and hard are (n, streams): each stream's copy was detected, and
    detected clean.  ssic_delivered is (n,).  len() is n, the packet count.
    """

    detected: np.ndarray
    hard: np.ndarray
    ssic_delivered: np.ndarray

    def __len__(self) -> int:
        return len(self.ssic_delivered)


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


def run_metrics(outcomes: PacketOutcomes) -> dict[str, RunMetrics]:
    """Per-mode metrics out of one run's outcome columns, in the CSV's row order.

    stream<k>, for each stream k, counts only its clean copies; dup is
    first-clean-copy-wins across streams; ssic is the aggregator's outcome.
    """
    detected, hard, sent = outcomes.detected, outcomes.hard, len(outcomes)
    det, dlv = detected.sum(axis=0).tolist(), (detected & hard).sum(axis=0).tolist()
    out = {f"stream{k + 1}": RunMetrics(sent, det[k], dlv[k]) for k in range(len(det))}
    det_any = int(detected.any(axis=1).sum())
    out["dup"] = RunMetrics(sent, det_any, int(hard.any(axis=1).sum()))
    out["ssic"] = RunMetrics(sent, det_any, int(outcomes.ssic_delivered.sum()))
    return out


def check_point_sizes(payload_bytes, L, arrival_jitter) -> None:
    """Raises a ValueError naming the first of a netsim point's sizes that
    breaks its rule: payload_bytes an integer in [0, MTU_PAYLOAD], L a pilot
    count (check_pilot_len), arrival_jitter a finite number >= 0.  Each rule
    checks its value's type itself, so it may be given any value."""
    if not is_int(payload_bytes):
        raise ValueError(f"payload_bytes: must be an integer, got {payload_bytes!r}")
    if not 0 <= payload_bytes <= MTU_PAYLOAD:
        raise ValueError(f"payload_bytes: must be in [0, {MTU_PAYLOAD}], got {payload_bytes}")
    check_pilot_len(L)
    if not (is_real(arrival_jitter) and 0.0 <= arrival_jitter < np.inf):
        raise ValueError(f"arrival_jitter: must be finite and >= 0, got {arrival_jitter}")


def run_network_point(n_packets: int, payload_bytes: int,
                      stream_params: Sequence[ChannelParams], L: int,
                      rng: np.random.Generator, variant: str = "srsx", window_size: int = 1024,
                      arrival_jitter: float = 0.5) -> tuple[PacketOutcomes, AggregatorStats]:
    """Simulate one configured operating point end to end.

    Every packet is sent on all streams.  A detected copy of packet i
    arrives at time i + arrival_jitter * u, u uniform in [0, 1), and waits
    in a heap keyed on (arrival time, i, stream), so ties go in send order.
    Just before packet i is sent, every held copy that arrives before time i
    goes to a fresh aggregator; no copy sent later can arrive before them, so
    the aggregator sees the order of one sort of all arrivals.  The heap holds
    O(streams * ceil(arrival_jitter)) copies at a time, the aggregator
    holds pending copies of at most window_size keys, none of them
    window_size or more serials behind its newest delivery (see Aggregator),
    and a ring holds the 16-byte BLAKE2b digests of the payloads of the last
    VCS_MOD // 2 + ceil(arrival_jitter) + 1 packets.  Only the outcome
    columns grow with n_packets; they are returned with the aggregator
    counters.
    """
    n_streams = len(stream_params)
    # the sizes are refused by name before the first draw
    if not is_int(n_packets):
        raise ValueError(f"n_packets: must be an integer, got {n_packets!r}")
    if n_packets < 0:
        raise ValueError(f"n_packets: must be >= 0, got {n_packets}")
    check_point_sizes(payload_bytes, L, arrival_jitter)
    dispatcher = Dispatcher(RUN_VCI, [0x020000000000 + k for k in range(n_streams)])
    detected, hard = np.zeros((2, n_packets, n_streams), dtype=bool)
    delivered = np.zeros(n_packets, dtype=bool)
    held: list[tuple[float, int, int, StreamObservation]] = []  # (t, i, k, obs)

    # Keys repeat every VCS_MOD packets: a key names the packet within half the
    # serial space of the one whose copy arrived (arriving, set by push_until);
    # unsent packets match none.  A copy of packet a arrives at t <= fl(a +
    # arrival_jitter) <= a + ceil(arrival_jitter), and push_until(sent) pushes
    # it only if a = sent - 1 or t >= sent - 1: a key names one of the last
    # VCS_MOD // 2 + ceil(arrival_jitter) + 1 packets; ring[j % len(ring)] holds the
    # digest of packet j's payload.
    # imported here, not at the top: hashlib loads OpenSSL's _hashlib, which importing ssic skips
    import hashlib

    def digest(payload: bytes) -> bytes:
        return hashlib.blake2b(payload, digest_size=16).digest()

    ring = [b""] * min(n_packets, VCS_MOD // 2 + int(np.ceil(arrival_jitter)) + 1)
    arriving = sent = 0

    def packet_of(key: FrameKey) -> int | None:
        j = arriving + vcs_delta(key.vcs, arriving)
        return j if key.vci == RUN_VCI and 0 <= j < sent else None

    def payload_check(key: FrameKey, payload: bytes) -> bool:
        j = packet_of(key)
        return j is not None and ring[j % len(ring)] == digest(payload)

    agg = Aggregator(AggregatorConfig(variant=variant, window_size=window_size),
                     payload_check=payload_check)

    def push_until(t: float | None) -> None:
        """Push the held copies that arrive before time t (all of them for None)."""
        nonlocal arriving
        while held and (t is None or held[0][0] < t):
            _, arriving, _, obs = heapq.heappop(held)
            result = agg.push(obs)
            # a delivery is a clean copy of packet arriving or a combined
            # payload that just passed payload_check, so its key names it
            if result is not None:
                delivered[packet_of(result[0])] = True

    for i in range(n_packets):
        push_until(i)
        packet = rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes()
        _, frames = dispatcher.send(packet)
        ring[i % len(ring)] = digest(packet)
        sent = i + 1
        # each stream's frame is unpacked on its own
        for k, frame in frames:
            obs = transmit(fresh_seed(rng), frame_to_bits(frame), L, stream_params[k], rng,
                           stream_id=k)
            detected[i, k] = obs.detected
            hard[i, k] = obs.crc_pass
            if obs.detected:
                heapq.heappush(held, (i + arrival_jitter * rng.random(), i, k, obs))
    push_until(None)
    return PacketOutcomes(detected, hard, delivered), agg.stats
