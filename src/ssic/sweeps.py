"""Monte-Carlo sweep engine and CSV emission.

All randomness for a sweep derives from (rng_seed, grid index), and grid
points run in spec order, so a given spec always produces byte-identical
CSV output.  Within a grid point every descrambling variant sees the same
noise realizations: variants differ only in how they process a word, which
makes small performance gaps measurable without huge trial counts.

The payload and seed sweeps run a grid point one block of trials x streams
at a time (BLOCK_FLOATS bounds a block).  The draws stay in the order of a
one-word loop: per trial the payload bits, then per stream the seed and the
noise.  They run on a draw-ahead thread, a one-worker executor: once the
caller has the result() of one block's draw, it submits the next block's
into the other of two preallocated slots, so the thread is at most one
block ahead.  It calls nothing but the point's rng, which nothing else
touches meanwhile.  The rest runs in the caller, once per block: the noise
scaling, the channel LLRs, one seed-posterior product for all words, the
mask mix, and the stream sum, added in stream order as ssic_combine adds.
So neither the block size nor the overlap changes the CSV.

Two row schemas:

  sweep   mode,snr_db,L,n_streams,variant,trials,n,errors,rate,ci95
          (n is frames for seed_ber, payload bits for payload_ber,
          packets for packet_per; ci95 is the binomial 95% half-width)
  netsim  run_id,mode,sent,plr,per,fr
          (run_id is the grid index; one row per mode: stream1..streamN,
          dup, ssic)
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .channel import ChannelParams, scrambled_llrs, snr_db_to_sigma2
from .combine import combine_streams, decide
from .descramble import N_SEEDS, hd_rows, hrsx_rows, naive_rows, seed_log_weights, srsx_rows
from .netstack import SOFT_VARIANTS, AggregatorConfig, run_metrics, run_network_point
from .scrambler import LFSR_LEN, register_outputs
from .softbits import hard_decide
from .vcframe import MTU_PAYLOAD

# The per-word entry points stay importable from this module, under the names
# ssicbench/spans.py traces, although the block path below does not call them.
from .channel import soft_copy  # noqa: F401
from .combine import ssic_combine  # noqa: F401
from .descramble import hrsx, naive_sd, seed_posterior, srsx  # noqa: F401

MODES = ("seed_ber", "payload_ber", "packet_per", "netsim")
VARIANTS = ("hd",) + SOFT_VARIANTS

SWEEP_COLUMNS = ["mode", "snr_db", "L", "n_streams", "variant", "trials", "n",
                 "errors", "rate", "ci95"]
NETSIM_COLUMNS = ["run_id", "mode", "sent", "plr", "per", "fr"]

# Floats per block of trials x streams in the payload and seed sweeps, each
# word counting its L+M LLRs and its 127 seed weights.  The draw-ahead thread
# runs only while the caller's kernel calls (exp/log, fill_by_phase, the
# channel LLRs, clip) have released the interpreter lock, so a block must be
# long enough to give it that room.  2**15 floats held 3 packet_per trials
# (4 x 256 B), about 1,000 blocks a second, each one submit() to the thread
# and one result() back; 2**17 holds 14, and a packet_per chunk takes about
# a fifth less CPU.  At 2**18 a block array is about 1.9 MB against a 2 MB
# L2, and a packet_per chunk took half as much CPU again as at 2**15 and
# ran no faster.  A grid point holds two slots, the descrambled rows, a work
# array and the stream total: 4.9 MB at packet_per's shape, which
# tests/test_sweeps.py bounds so that peak RSS stays within a few MB of the
# smaller blocks'.
BLOCK_FLOATS = 1 << 17


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# SweepSpec annotation (a string, under the __future__ import) -> what a
# value of that field must be, checked before its range: JSON configs may
# hold any type
_FIELD_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", _is_int),
    "float": ("a number", _is_real),
    "list[float]": ("a list of numbers",
                    lambda v: isinstance(v, (list, tuple)) and all(map(_is_real, v))),
    "tuple[str, ...]": ("a list of strings",
                        lambda v: isinstance(v, tuple) and all(isinstance(x, str) for x in v)),
}


def _default_variants(mode: str) -> tuple[str, ...]:
    if mode == "seed_ber":
        return ("hd", "hrsx")
    if mode == "netsim":
        return ("srsx",)
    return SOFT_VARIANTS


@dataclass
class SweepSpec:
    """Everything a sweep run depends on.  validate() names the bad field."""

    mode: str
    snr_grid: list[float]
    L: int = 16
    n_streams: int = 1
    stream_snr_offsets: list[float] | None = None
    trials: int = 1000
    payload_bytes: int = 1500
    variants: tuple[str, ...] | None = None
    rng_seed: int = 0
    detection_loss_prob: float = 0.0
    burst_prob: float = 0.0
    burst_len_mean: float = 64.0
    burst_llr_atten: float = 1.0
    window_size: int = 1024
    arrival_jitter: float = 0.5

    def __post_init__(self):
        # defaults only: validate() names a field of the wrong type
        if self.stream_snr_offsets is None and _is_int(self.n_streams):
            self.stream_snr_offsets = [0.0] * self.n_streams
        if self.variants is None:
            self.variants = _default_variants(self.mode)
        if isinstance(self.variants, list):
            self.variants = tuple(self.variants)

    def validate(self) -> None:
        for f in fields(self):
            want, ok = _FIELD_TYPES[f.type.removesuffix(" | None")]
            value = getattr(self, f.name)
            if not ok(value):
                raise ValueError(f"{f.name}: expected {want}, got {value!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode: expected one of {MODES}, got {self.mode!r}")
        if not self.snr_grid or not all(np.isfinite(self.snr_grid)):
            raise ValueError("snr_grid: need a non-empty list of finite values")
        if self.L < LFSR_LEN:
            raise ValueError(f"L: must be >= {LFSR_LEN}, got {self.L}")
        if self.n_streams < 1:
            raise ValueError(f"n_streams: must be >= 1, got {self.n_streams}")
        if (len(self.stream_snr_offsets) != self.n_streams
                or not all(np.isfinite(self.stream_snr_offsets))):
            raise ValueError(
                f"stream_snr_offsets: need {self.n_streams} finite entries, "
                f"got {self.stream_snr_offsets}")
        if self.trials < 1:
            raise ValueError(f"trials: must be >= 1, got {self.trials}")
        if self.payload_bytes < 0 or self.payload_bytes > MTU_PAYLOAD:
            raise ValueError(
                f"payload_bytes: must be in [0, {MTU_PAYLOAD}], got {self.payload_bytes}")
        if not self.variants:
            raise ValueError("variants: need at least one")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"variants: unknown variant {v!r}")
            if self.variants.count(v) > 1:  # the points keep one error count per name
                raise ValueError(f"variants: {v!r} listed twice")
        if self.mode in ("payload_ber", "packet_per"):
            if self.payload_bytes < 1:
                raise ValueError("payload_bytes: payload modes need at least 1 byte")
            if self.n_streams > 1 and "hd" in self.variants:
                raise ValueError(
                    "variants: hd produces bits, not LLRs, so it cannot be combined; "
                    "use it only with n_streams=1")
        if self.mode == "netsim":
            if len(self.variants) != 1:
                raise ValueError("variants: netsim uses exactly one variant")
            if self.variants[0] not in SOFT_VARIANTS:
                raise ValueError("variants: the aggregator needs a soft variant")
            if self.payload_bytes < 1:
                raise ValueError("payload_bytes: netsim needs at least 1 byte")
        # the channel and aggregator rules live with their objects.  A link is
        # built for every stream at every grid point; the impairment fields
        # are checked first, at 0 dB, so a failure after that is the SNR's.
        self.channel_params(0.0)
        for snr_db in self.snr_grid:
            for off in self.stream_snr_offsets:
                try:
                    self.channel_params(snr_db + off)
                except ValueError as e:
                    raise ValueError(f"snr_grid: {snr_db} dB with stream_snr_offsets "
                                     f"entry {off} dB: {e}") from None
        AggregatorConfig(window_size=self.window_size)
        if not 0.0 <= self.arrival_jitter < np.inf:
            raise ValueError(
                f"arrival_jitter: must be finite and >= 0, got {self.arrival_jitter}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed: must be >= 0, got {self.rng_seed}")

    def channel_params(self, snr_db: float) -> ChannelParams:
        """One stream's link at snr_db, with the spec's impairments."""
        return ChannelParams(snr_db=snr_db, detection_loss_prob=self.detection_loss_prob,
                             burst_prob=self.burst_prob, burst_len_mean=self.burst_len_mean,
                             burst_llr_atten=self.burst_llr_atten)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        known = {f.name for f in fields(cls)}
        bad = set(d) - known
        if bad:
            raise ValueError(f"unknown spec keys: {sorted(bad)}")
        if "mode" not in d:
            raise ValueError("mode: required")
        if "snr_grid" not in d:
            raise ValueError("snr_grid: required")
        return cls(**d)


def binomial_ci95(errors: int, n: int) -> float:
    """95% normal-approximation half-width for an error-rate estimate."""
    if n <= 0:
        return 0.0
    r = errors / n
    return 1.96 * float(np.sqrt(r * (1.0 - r) / n))


def _point_rng(spec: SweepSpec, grid_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.rng_seed, grid_idx]))


def _sweep_row(spec: SweepSpec, snr_db: float, variant: str, n: int, errors: int) -> list:
    rate = errors / n if n else 0.0
    return [spec.mode, snr_db, spec.L, spec.n_streams, variant, spec.trials, n,
            errors, rate, binomial_ci95(errors, n)]


def _block_trials(trials: int, K: int, L: int, M: int) -> int:
    """Trials per block, B: at most BLOCK_FLOATS floats of B * K words."""
    return max(1, min(trials, BLOCK_FLOATS // (K * (L + M + N_SEEDS))))


def _draw_block(rng: np.random.Generator, payload: np.ndarray, seeds: np.ndarray,
                noise: np.ndarray) -> None:
    """Fill one block trial by trial, in the order of a one-word loop."""
    M, K = payload.shape[1], seeds.shape[1]
    for t in range(len(seeds)):
        if M:
            payload[t] = rng.integers(0, 2, M, dtype=np.uint8)
        for k in range(K):
            seeds[t, k] = rng.integers(1, 128)
            rng.standard_normal(out=noise[t, k])


def _other_cpus() -> set[int] | None:
    """The calling thread's allowed CPUs less the one it is running on.

    None where the affinity cannot be set or the CPU cannot be read (it is
    field 39 of /proc/thread-self/stat), or where no other CPU is allowed.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/thread-self/stat") as f:
            # after the ")" that closes field 2, field 39 is at index 36
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None
    return os.sched_getaffinity(0) - {cpu} or None


def _leave_cpu(cpus: set[int] | None) -> None:
    """The draw-ahead thread's initializer: move off the caller's CPU.

    A new thread stays on the CPU of the thread that made it where the
    cpuset does not balance load (sched_load_balance = 0), and then only
    takes turns with the caller.  So this thread, never the caller, moves to
    cpus (_other_cpus() read on the caller) when there are any.  Pinning
    changes no draw, so a pin the OS refuses leaves the thread unpinned.
    """
    if cpus:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


def _trial_blocks(rng: np.random.Generator, trials: int, L: int, M: int,
                  stream_snr_db: list[float], work: np.ndarray | None = None):
    """Trials in blocks of B, each with K streams: yields (payload, seeds, llrs).

    payload is (b, M) bits, seeds (b, K) seed integers, llrs (b, K, L+M)
    clamped LLRs, b <= B.  The draws are made trial by trial in the order
    of a one-word-at-a-time loop: the payload (when M > 0), then per stream
    its seed and its L+M noise samples.  Only the deterministic work after
    the draws runs over the block, so B never changes a result.

    The draws run on a one-worker executor, the draw-ahead thread, and
    alternate between two preallocated slots of (payload, seeds, noise).
    Once the caller has the result() of this block's draw, it submits the
    next block's into the other slot and then works on this one: the thread
    is never more than one block ahead, and result() raises here an
    exception the thread met.  A yielded block lives in its slot, the LLRs
    written over the noise, so it stays valid until the next block is
    requested.  The thread is joined when the generator finishes, raises or
    is closed; an error in a draw whose block was never requested is
    dropped with it.  While the generator runs, nothing else may use rng.
    The channel's +-1 symbols are formed in work, a flat float array of at
    least B*K*(L+M) entries that the caller may use between blocks.
    """
    K = len(stream_snr_db)
    sigma2 = np.array([snr_db_to_sigma2(s) for s in stream_snr_db])
    sigma = np.sqrt(sigma2)
    B = _block_trials(trials, K, L, M)
    slots = [(np.zeros((B, M), dtype=np.uint8), np.zeros((B, K), dtype=np.intp),
              np.zeros((B, K, L + M))) for _ in range(2)]
    if work is None:
        work = np.empty(B * K * (L + M))

    def block(s: int, first: int) -> list[np.ndarray]:
        """The rows of slot s that hold the block of trials from first on."""
        return [a[:min(B, trials - first)] for a in slots[s]]

    with ThreadPoolExecutor(1, "ssic-draw-ahead", _leave_cpu, (_other_cpus(),)) as drawer:
        drawn = drawer.submit(_draw_block, rng, *block(0, 0))
        for i, first in enumerate(range(0, trials, B)):
            drawn.result()
            s = i % 2
            if first + B < trials:
                drawn = drawer.submit(_draw_block, rng, *block(1 - s, first + B))
            payload, seeds, noise = block(s, first)
            # rng.normal(0, sigma, n) is exactly sigma times the same standard draws
            noise *= sigma[:, None]
            yield (payload, seeds,
                   scrambled_llrs(seeds, payload[:, None, :], L, noise, sigma2,
                                  work[:noise.size].reshape(noise.shape)))


def _run_seed_ber_point(spec: SweepSpec, snr_db: float, rng: np.random.Generator) -> dict[str, int]:
    errors = {v: 0 for v in spec.variants}
    with contextlib.closing(_trial_blocks(rng, spec.trials, spec.L, 0, [snr_db])) as blocks:
        for _, seeds, llrs in blocks:
            seeds, pilots = seeds[:, 0], llrs[:, 0]
            # hd and naive: register estimate straight from the last 7 pilot decisions
            true_z = register_outputs(seeds, LFSR_LEN, spec.L - LFSR_LEN)
            hard_est = hard_decide(pilots[:, -LFSR_LEN:])
            map_est = np.argmax(seed_log_weights(pilots), axis=1) + 1
            wrong = {"hard": int((hard_est != true_z).any(axis=1).sum()),
                     "map": int((map_est != seeds).sum())}
            for v in spec.variants:
                errors[v] += wrong["hard" if v in ("hd", "naive") else "map"]
    return errors


def _run_payload_point(spec: SweepSpec, snr_db: float, rng: np.random.Generator,
                       ) -> tuple[dict[str, int], dict[str, int]]:
    """Bit and packet error counts per variant, on shared noise.

    The descrambled rows, a work array and the stream total are allocated
    once here and written by every block of trials (a short last block uses
    their leading rows), so the loop allocates nothing of a block's size.
    The work array holds the channel's +-1 symbols while a block is drawn
    and srsx's two scratch blocks after.
    """
    L, K = spec.L, spec.n_streams
    M = spec.payload_bytes * 8
    bit_err = {v: 0 for v in spec.variants}
    pkt_err = {v: 0 for v in spec.variants}
    need_post = any(v in ("hrsx", "srsx") for v in spec.variants)
    stream_snr_db = [snr_db + off for off in spec.stream_snr_offsets]
    B = _block_trials(spec.trials, K, L, M)
    descrambled, total = np.empty((B * K, M)), np.empty((B, M))
    work = np.empty(B * K * max(2 * M, L + M))
    blocks = _trial_blocks(rng, spec.trials, L, M, stream_snr_db, work)
    with contextlib.closing(blocks):
        for payload, _, llrs in blocks:
            b = payload.shape[0]
            rows = llrs.reshape(b * K, L + M)
            pilots, words = rows[:, :L], rows[:, L:]
            out = descrambled[:b * K]
            lw = seed_log_weights(pilots) if need_post else None
            for v in spec.variants:
                if v == "hd":  # n_streams == 1, checked by validate()
                    bits = hd_rows(hard_decide(np.concatenate([pilots[:, -LFSR_LEN:], words],
                                                              axis=1)))
                else:
                    if v == "naive":
                        naive_rows(pilots, words, out=out)
                    elif v == "hrsx":
                        hrsx_rows(lw, words, L, out=out)
                    else:
                        srsx_rows(lw, words, L, out=out,
                                  scratch=work[:2 * out.size].reshape(2, b * K, M))
                    bits = decide(combine_streams(out.reshape(b, K, M), out=total[:b]))
                wrong = (bits != payload).sum(axis=1)
                bit_err[v] += int(wrong.sum())
                pkt_err[v] += int((wrong > 0).sum())
    return bit_err, pkt_err


def run_sweep(spec: SweepSpec) -> list[list]:
    """All rows for a sweep-mode spec, in deterministic grid x variant order."""
    spec.validate()
    if spec.mode == "netsim":
        raise ValueError("mode: use run_netsim for netsim specs")
    rows = []
    M = spec.payload_bytes * 8
    for gi, snr_db in enumerate(spec.snr_grid):
        rng = _point_rng(spec, gi)
        if spec.mode == "seed_ber":
            errors = _run_seed_ber_point(spec, snr_db, rng)
            for v in spec.variants:
                rows.append(_sweep_row(spec, snr_db, v, spec.trials, errors[v]))
        else:
            bit_err, pkt_err = _run_payload_point(spec, snr_db, rng)
            for v in spec.variants:
                if spec.mode == "payload_ber":
                    rows.append(_sweep_row(spec, snr_db, v, spec.trials * M, bit_err[v]))
                else:
                    rows.append(_sweep_row(spec, snr_db, v, spec.trials, pkt_err[v]))
    return rows


def run_netsim(spec: SweepSpec) -> list[list]:
    """Network-simulation rows; one grid point = one run_id."""
    spec.validate()
    if spec.mode != "netsim":
        raise ValueError("mode: run_netsim needs mode=netsim")
    rows = []
    for gi, snr_db in enumerate(spec.snr_grid):
        rng = _point_rng(spec, gi)
        params = [spec.channel_params(snr_db + off) for off in spec.stream_snr_offsets]
        records, _ = run_network_point(
            spec.trials, spec.payload_bytes, params, spec.L, rng,
            variant=spec.variants[0], window_size=spec.window_size,
            arrival_jitter=spec.arrival_jitter)
        metrics = run_metrics(records, spec.n_streams)
        mode_order = [f"stream{k + 1}" for k in range(spec.n_streams)] + ["dup", "ssic"]
        for m in mode_order:
            r = metrics[m]
            rows.append([gi, m, r.sent, r.plr, r.per, r.fr])
    return rows


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def write_csv(columns: list[str], rows: list[list], out) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt(v) for v in row])


def rows_to_csv(columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    write_csv(columns, rows, buf)
    return buf.getvalue()


def load_spec_file(path: str | Path) -> dict:
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError("config: expected a JSON object of spec fields")
    return d
