"""Monte-Carlo sweep engine and CSV emission.

All randomness for a sweep derives from (rng_seed, grid index), and grid
points run in spec order, so a given spec always produces byte-identical
CSV output.  Within a grid point every descrambling variant sees the same
noise realizations: variants differ only in how they process a word, which
makes small performance gaps measurable without huge trial counts.

The payload and seed sweeps run their grid points one block of trials x
streams at a time (BLOCK_FLOATS bounds a block).  The draws stay in the
order of a one-word loop: per trial the payload bits, then per stream the
seed and the noise.  They run on a draw-ahead thread, one one-worker
executor for the whole sweep: once the caller has the result() of one
block's draw, it submits the next block's into the other of two
preallocated slots, so the thread is at most one block ahead.  The block
after a grid point's last is the next point's first, drawn from that
point's own rng; the thread calls nothing but the points' rngs, which
nothing else touches meanwhile.  The rest runs in the caller, once per
block: the channel LLRs, one seed-posterior product for all words, the mask
mix, and the stream sum, one ssic_combine of the block's K copies.  So
neither the block size nor the overlap changes the CSV.

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
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .channel import ChannelParams, scrambled_llrs, snr_db_to_sigma2
from .combine import ssic_combine
from .descramble import N_SEEDS, hd, hrsx_rows, naive_rows, seed_posterior, srsx_rows
from .netstack import (SOFT_VARIANTS, AggregatorConfig, check_point_sizes, run_metrics,
                       run_network_point)
from .scrambler import LFSR_LEN, is_int, is_real, register_outputs
from .softbits import hard_decide
from .vcframe import FRAME_OVERHEAD_BITS

# Per-word entry points that the block path below does not call (it calls
# seed_posterior), importable here under the names ssicbench/spans.py traces.
from .channel import soft_copy  # noqa: F401
from .descramble import hrsx, naive_sd, srsx  # noqa: F401

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
# ran no faster.  A sweep allocates two slots, the descrambled rows and
# srsx's scratch (when it runs) once for all its grid points, and
# ssic_combine a stream total per block: 4.9 MB at packet_per's shape, which
# tests/test_sweeps.py bounds so that peak RSS stays within a few MB of the
# smaller blocks'.
BLOCK_FLOATS = 1 << 17


# SweepSpec annotation (a string, under the __future__ import) -> what a
# value of that field must be, checked before its range: JSON configs may
# hold any type
_FIELD_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", is_int),
    "float": ("a number", is_real),
    "list[float]": ("a list of numbers",
                    lambda v: isinstance(v, (list, tuple)) and all(map(is_real, v))),
    "tuple[str, ...]": ("a list of strings",
                        lambda v: isinstance(v, tuple) and all(isinstance(x, str) for x in v)),
}


# a mode's variants when the spec names none; the payload modes run every soft one
_DEFAULT_VARIANTS = {"seed_ber": ("hd", "hrsx"), "netsim": ("srsx",)}


# netsim's link impairments and aggregator settings: the sweeps use none of them
_NETSIM_ONLY = ("detection_loss_prob", "burst_prob", "burst_len_mean", "burst_llr_atten",
                "window_size", "arrival_jitter")


@dataclass
class SweepSpec:
    """Everything a sweep run depends on, checked when it is made.  validate()
    fills the defaults, applies every rule and names the bad field; the runs
    call it again, since a field may be changed after the spec is made."""

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
        self.validate()

    def validate(self) -> None:
        if isinstance(self.variants, list):
            self.variants = tuple(self.variants)
        if self.mode not in MODES:
            raise ValueError(f"mode: expected one of {MODES}, got {self.mode!r}")
        # a netsim point's size rules are run_network_point's own; they check
        # their values' types themselves, so they pass before the others
        check_point_sizes(self.payload_bytes, self.L, self.arrival_jitter)
        for f in fields(self):
            want, ok = _FIELD_TYPES[f.type.removesuffix(" | None")]
            value = getattr(self, f.name)
            if not (ok(value) or value is None and f.type.endswith(" | None")):
                raise ValueError(f"{f.name}: expected {want}, got {value!r}")
            if f.name in _NETSIM_ONLY and self.mode != "netsim" and value != f.default:
                raise ValueError(f"{f.name}: only netsim uses it, got {value!r} in {self.mode}")
            if f.name == "payload_bytes" and self.mode == "seed_ber" and value != f.default:
                raise ValueError(f"payload_bytes: seed_ber sends no payload, got {value!r}")
        if self.variants is None:
            self.variants = _DEFAULT_VARIANTS.get(self.mode, SOFT_VARIANTS)
        if not self.snr_grid or not all(map(math.isfinite, self.snr_grid)):
            raise ValueError("snr_grid: need a non-empty list of finite values")
        # L, n_streams and payload_bytes fix the size of one trial, so their
        # rules pass before anything n_streams long is made.  A trial is K
        # words of L + M LLRs and 127 seed weights (M = 0 in seed_ber); a
        # sweep's block of trials holds at most BLOCK_FLOATS floats
        # (_block_trials), so one trial must fit in it, and a netsim packet,
        # one word per stream, is held to the same bound; a netsim word is a
        # frame, so its M also counts FRAME_OVERHEAD_BITS.
        if self.n_streams < 1:
            raise ValueError(f"n_streams: must be >= 1, got {self.n_streams}")
        if self.mode == "seed_ber" and self.n_streams != 1:
            raise ValueError(f"n_streams: seed_ber measures one stream, got {self.n_streams}")
        if self.mode != "seed_ber" and self.payload_bytes < 1:
            raise ValueError(f"payload_bytes: {self.mode} needs at least 1 byte")
        frame = FRAME_OVERHEAD_BITS if self.mode == "netsim" else 0
        word = self.L + (0 if self.mode == "seed_ber" else 8 * self.payload_bytes + frame) + N_SEEDS
        if word > BLOCK_FLOATS:
            terms = "L + 8 * payload_bytes" + (f" + {frame}" if frame else "")
            raise ValueError(f"L: a word of {terms} + {N_SEEDS} = {word} floats "
                             f"exceeds the block of BLOCK_FLOATS = {BLOCK_FLOATS}")
        if self.n_streams * word > BLOCK_FLOATS:
            raise ValueError(f"n_streams: a trial of {self.n_streams} words of {word} floats "
                             f"exceeds the block of BLOCK_FLOATS = {BLOCK_FLOATS}")
        if self.stream_snr_offsets is None:
            self.stream_snr_offsets = [0.0] * self.n_streams
        if (len(self.stream_snr_offsets) != self.n_streams
                or not all(map(math.isfinite, self.stream_snr_offsets))):
            raise ValueError(
                f"stream_snr_offsets: need {self.n_streams} finite entries, "
                f"got {self.stream_snr_offsets}")
        if self.trials < 1:
            raise ValueError(f"trials: must be >= 1, got {self.trials}")
        if not self.variants:
            raise ValueError("variants: need at least one")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"variants: unknown variant {v!r}")
            if self.variants.count(v) > 1:  # the points keep one error count per name
                raise ValueError(f"variants: {v!r} listed twice")
        if (self.mode in ("payload_ber", "packet_per") and self.n_streams > 1
                and "hd" in self.variants):
            raise ValueError("variants: hd produces bits, not LLRs, so it cannot be combined; "
                             "use it only with n_streams=1")
        if self.mode == "netsim":
            if len(self.variants) != 1:
                raise ValueError("variants: netsim uses exactly one variant")
            if self.variants[0] not in SOFT_VARIANTS:
                raise ValueError("variants: the aggregator needs a soft variant")
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
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed: must be >= 0, got {self.rng_seed}")

    def channel_params(self, snr_db: float) -> ChannelParams:
        """One stream's link at snr_db, with the spec's impairments."""
        return ChannelParams(snr_db=snr_db, detection_loss_prob=self.detection_loss_prob,
                             burst_prob=self.burst_prob, burst_len_mean=self.burst_len_mean,
                             burst_llr_atten=self.burst_llr_atten)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        bad = set(d) - {f.name for f in fields(cls)}
        if bad:
            raise ValueError(f"unknown spec keys: {sorted(bad)}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in d:
                raise ValueError(f"{f.name}: required")
        return cls(**d)


def binomial_ci95(errors: int, n: int) -> float:
    """95% normal-approximation half-width for an error-rate estimate."""
    if n <= 0:
        return 0.0
    r = errors / n
    return 1.96 * float(np.sqrt(r * (1.0 - r) / n))


def _point_rng(spec: SweepSpec, grid_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.rng_seed, grid_idx]))


def _csv_fields(spec: SweepSpec, snr_db: float, variant: str, n: int, errors: int) -> list:
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


def _trial_blocks(points: list[tuple[np.random.Generator, list[float]]], trials: int,
                  L: int, M: int):
    """A sweep's trials in blocks of B, each with K streams: yields
    (gi, payload, seeds, llrs), grid point by grid point.

    points holds one (rng, stream_snr_db) per grid point gi, each point
    drawing its trials from its own rng.  payload is (b, M) bits, seeds
    (b, K) seed integers, llrs (b, K, L+M) clamped LLRs at point gi's
    SNRs, b <= B.  The draws are made trial by trial in the order of a
    one-word-at-a-time loop: the payload (when M > 0), then per stream its
    seed and its L+M standard normal draws, which awgn_llrs scales.  Only
    the deterministic work after the draws runs over the block, so B never
    changes a result.

    The draws run on one one-worker executor for the whole sweep, the
    draw-ahead thread, and alternate between two preallocated slots of
    (payload, seeds, noise).  Once the caller has the result() of this
    block's draw, it submits the next block's into the other slot and then
    works on this one: the thread is never more than one block ahead, and
    result() raises here an exception the thread met.  The block after a
    point's last is the next point's first, drawn from that point's rng,
    so the thread does not wait at a point's edge.  A yielded block lives
    in its slot, the LLRs written over the draws, so it stays valid until
    the next block is requested.  The thread is joined when the generator
    finishes, raises or is closed; an error in a draw whose block was never
    requested is dropped with it.  While the generator runs, nothing else
    may use the points' generators.
    """
    K = len(points[0][1])
    sigma2 = [np.array([snr_db_to_sigma2(s) for s in snrs]) for _, snrs in points]
    B = _block_trials(trials, K, L, M)
    per_point = -(-trials // B)
    n_blocks = len(points) * per_point
    slots = [(np.zeros((B, M), dtype=np.uint8), np.zeros((B, K), dtype=np.intp),
              np.zeros((B, K, L + M))) for _ in range(2)]

    def block(s: int, j: int) -> list[np.ndarray]:
        """The rows of slot s that hold block j of the sweep."""
        first = j % per_point * B
        return [a[:min(B, trials - first)] for a in slots[s]]

    with ThreadPoolExecutor(1, "ssic-draw-ahead") as drawer:
        drawn = drawer.submit(_draw_block, points[0][0], *block(0, 0))
        for j in range(n_blocks):
            drawn.result()
            s = j % 2
            if j + 1 < n_blocks:
                drawn = drawer.submit(_draw_block, points[(j + 1) // per_point][0],
                                      *block(1 - s, j + 1))
            gi = j // per_point
            payload, seeds, z = block(s, j)
            yield gi, payload, seeds, scrambled_llrs(seeds, payload[:, None, :], L, z, sigma2[gi])


def _seed_ber_errors(spec: SweepSpec, blocks) -> list[dict[str, int]]:
    """Frame error counts per grid point and variant.  hd and naive take the
    register estimate straight from the last 7 pilot decisions, hrsx and
    srsx the MAP seed; each is made only when a listed variant reads it."""
    errors = [dict.fromkeys(spec.variants, 0) for _ in spec.snr_grid]
    need_hard = any(v in ("hd", "naive") for v in spec.variants)
    need_map = any(v in ("hrsx", "srsx") for v in spec.variants)
    for gi, _, seeds, llrs in blocks:
        seeds, pilots = seeds[:, 0], llrs[:, 0]
        wrong = {}
        if need_hard:
            true_z = register_outputs(seeds, LFSR_LEN, spec.L - LFSR_LEN)
            hard_est = hard_decide(pilots[:, -LFSR_LEN:])
            wrong["hard"] = int((hard_est != true_z).any(axis=1).sum())
        if need_map:
            map_est = np.argmax(seed_posterior(pilots), axis=1) + 1
            wrong["map"] = int((map_est != seeds).sum())
        for v in spec.variants:
            errors[gi][v] += wrong["hard" if v in ("hd", "naive") else "map"]
    return errors


def _payload_errors(spec: SweepSpec, blocks) -> tuple[list[dict[str, int]], list[dict[str, int]]]:
    """Bit and packet error counts per grid point and variant, on shared noise.

    The descrambled rows and srsx's (2, B*K, M) scratch when srsx runs are
    allocated once per sweep and written by every block of trials (a short
    last block uses their leading rows): L, K, M and trials are the spec's,
    so every grid point has the same shapes.  ssic_combine makes each
    variant's (b, M) stream total, a new array per block.
    """
    L, K = spec.L, spec.n_streams
    M = spec.payload_bytes * 8
    bit_err = [dict.fromkeys(spec.variants, 0) for _ in spec.snr_grid]
    pkt_err = [dict.fromkeys(spec.variants, 0) for _ in spec.snr_grid]
    need_post = any(v in ("hrsx", "srsx") for v in spec.variants)
    B = _block_trials(spec.trials, K, L, M)
    descrambled = np.empty((B * K, M))
    scratch = np.empty((2, B * K, M)) if "srsx" in spec.variants else None
    for gi, payload, _, llrs in blocks:
        b = payload.shape[0]
        rows = llrs.reshape(b * K, L + M)
        pilots, words = rows[:, :L], rows[:, L:]
        out = descrambled[:b * K]
        lw = seed_posterior(pilots) if need_post else None
        for v in spec.variants:
            if v == "hd":  # n_streams == 1, checked by validate()
                bits = hd(hard_decide(rows[:, L - LFSR_LEN:]))
            else:
                if v == "naive":
                    naive_rows(pilots, words, out=out)
                elif v == "hrsx":
                    hrsx_rows(lw, words, L, out=out)
                else:
                    srsx_rows(lw, words, L, out=out, scratch=scratch[:, :b * K])
                bits = hard_decide(ssic_combine(dict(enumerate(
                    out.reshape(b, K, M).swapaxes(0, 1)))))
            wrong = (bits != payload).sum(axis=1)
            bit_err[gi][v] += int(wrong.sum())
            pkt_err[gi][v] += int((wrong > 0).sum())
    return bit_err, pkt_err


def run_sweep(spec: SweepSpec) -> list[list]:
    """All rows for a sweep-mode spec, in deterministic grid x variant order.

    Grid point gi draws from its own generator, _point_rng(spec, gi); one
    _trial_blocks pipeline runs every point's blocks in grid order."""
    spec.validate()
    if spec.mode == "netsim":
        raise ValueError("mode: use run_netsim for netsim specs")
    M = 0 if spec.mode == "seed_ber" else spec.payload_bytes * 8
    points = [(_point_rng(spec, gi), [snr_db + off for off in spec.stream_snr_offsets])
              for gi, snr_db in enumerate(spec.snr_grid)]
    blocks = _trial_blocks(points, spec.trials, spec.L, M)
    with contextlib.closing(blocks):
        if spec.mode == "seed_ber":
            n, errors = spec.trials, _seed_ber_errors(spec, blocks)
        else:
            bit_err, pkt_err = _payload_errors(spec, blocks)
            n, errors = ((spec.trials * M, bit_err) if spec.mode == "payload_ber"
                         else (spec.trials, pkt_err))
    return [_csv_fields(spec, snr_db, v, n, errors[gi][v])
            for gi, snr_db in enumerate(spec.snr_grid) for v in spec.variants]


def run_netsim(spec: SweepSpec) -> list[list]:
    """Network-simulation rows; one grid point = one run_id."""
    spec.validate()
    if spec.mode != "netsim":
        raise ValueError("mode: run_netsim needs mode=netsim")
    rows = []
    for gi, snr_db in enumerate(spec.snr_grid):
        rng = _point_rng(spec, gi)
        params = [spec.channel_params(snr_db + off) for off in spec.stream_snr_offsets]
        outcomes, _ = run_network_point(
            spec.trials, spec.payload_bytes, params, spec.L, rng,
            variant=spec.variants[0], window_size=spec.window_size,
            arrival_jitter=spec.arrival_jitter)
        rows += ([gi, m, r.sent, r.plr, r.per, r.fr] for m, r in run_metrics(outcomes).items())
    return rows


def _fmt(v) -> str:
    return format(v, ".12g") if isinstance(v, float) else str(v)


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
