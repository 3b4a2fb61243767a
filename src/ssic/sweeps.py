"""Monte-Carlo sweep engine and CSV emission.

All randomness for a sweep derives from (rng_seed, grid index), and grid
points run in spec order, so a given spec always produces byte-identical
CSV output.  Within a grid point every descrambling variant sees the same
noise realizations: variants differ only in how they process a word, which
makes small performance gaps measurable without huge trial counts.

Two row schemas:

  sweep   mode,snr_db,L,n_streams,variant,trials,n,errors,rate,ci95
          (n is frames for seed_ber, payload bits for payload_ber,
          packets for packet_per; ci95 is the binomial 95% half-width)
  netsim  run_id,mode,sent,plr,per,fr
          (run_id is the grid index; one row per mode: stream1..streamN,
          dup, ssic)
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .channel import ChannelParams, fresh_seed, soft_copy
from .combine import StreamSoftCopy, decide, ssic_combine
from .descramble import hd, hrsx, naive_sd, seed_posterior, srsx
from .netstack import run_metrics, run_network_point
from .scrambler import make_pilots, mask_matrix, seed_to_int
from .softbits import hard_decide
from .vcframe import MTU_PAYLOAD

MODES = ("seed_ber", "payload_ber", "packet_per", "netsim")
VARIANTS = ("hd", "naive", "hrsx", "srsx")

SWEEP_COLUMNS = ["mode", "snr_db", "L", "n_streams", "variant", "trials", "n",
                 "errors", "rate", "ci95"]
NETSIM_COLUMNS = ["run_id", "mode", "sent", "plr", "per", "fr"]


def _default_variants(mode: str) -> tuple[str, ...]:
    if mode == "seed_ber":
        return ("hd", "hrsx")
    if mode == "netsim":
        return ("srsx",)
    return ("naive", "hrsx", "srsx")


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
        if self.stream_snr_offsets is None:
            self.stream_snr_offsets = [0.0] * self.n_streams
        if self.variants is None:
            self.variants = _default_variants(self.mode)
        self.variants = tuple(self.variants)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode: expected one of {MODES}, got {self.mode!r}")
        if not self.snr_grid or not all(np.isfinite(self.snr_grid)):
            raise ValueError("snr_grid: need a non-empty list of finite values")
        if self.L < 7:
            raise ValueError(f"L: must be >= 7, got {self.L}")
        if self.n_streams < 1:
            raise ValueError(f"n_streams: must be >= 1, got {self.n_streams}")
        if len(self.stream_snr_offsets) != self.n_streams:
            raise ValueError(
                f"stream_snr_offsets: need {self.n_streams} entries, "
                f"got {len(self.stream_snr_offsets)}")
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
            if self.variants[0] == "hd":
                raise ValueError("variants: the aggregator needs a soft variant")
            if self.payload_bytes < 1:
                raise ValueError("payload_bytes: netsim needs at least 1 byte")
        if not 0.0 <= self.detection_loss_prob <= 1.0:
            raise ValueError(
                f"detection_loss_prob: must be in [0,1], got {self.detection_loss_prob}")
        if not 0.0 <= self.burst_prob <= 1.0:
            raise ValueError(f"burst_prob: must be in [0,1], got {self.burst_prob}")
        if not 0.0 < self.burst_llr_atten <= 1.0:
            raise ValueError(
                f"burst_llr_atten: must be in (0,1], got {self.burst_llr_atten}")
        if self.burst_len_mean < 1.0:
            raise ValueError(f"burst_len_mean: must be >= 1, got {self.burst_len_mean}")
        if self.window_size < 1:
            raise ValueError(f"window_size: must be >= 1, got {self.window_size}")
        if self.arrival_jitter < 0.0:
            raise ValueError(f"arrival_jitter: must be >= 0, got {self.arrival_jitter}")

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


def _run_seed_ber_point(spec: SweepSpec, snr_db: float, rng: np.random.Generator) -> dict[str, int]:
    A = mask_matrix(spec.L)
    errors = {v: 0 for v in spec.variants}
    empty = np.zeros(0, dtype=np.uint8)
    for _ in range(spec.trials):
        seed = fresh_seed(rng)
        true_int = seed_to_int(seed)
        word = soft_copy(seed, empty, spec.L, snr_db, rng)
        true_z = make_pilots(seed, spec.L)
        post = None
        for v in spec.variants:
            if v in ("hd", "naive"):
                # register estimate straight from the last 7 pilot decisions
                est = hard_decide(word.pilots[-7:])
                errors[v] += int((est != true_z[-7:]).any())
            else:
                if post is None:
                    post = seed_posterior(word.pilots, A)
                errors[v] += int(post.map_index() + 1 != true_int)
    return errors


def _run_payload_point(spec: SweepSpec, snr_db: float, rng: np.random.Generator,
                       ) -> tuple[dict[str, int], dict[str, int]]:
    """Bit and packet error counts per variant, on shared noise."""
    A = mask_matrix(spec.L)
    M = spec.payload_bytes * 8
    bit_err = {v: 0 for v in spec.variants}
    pkt_err = {v: 0 for v in spec.variants}
    need_post = any(v in ("hrsx", "srsx") for v in spec.variants)
    for _ in range(spec.trials):
        payload = rng.integers(0, 2, M, dtype=np.uint8)
        words = [soft_copy(fresh_seed(rng), payload, spec.L,
                           snr_db + spec.stream_snr_offsets[k], rng)
                 for k in range(spec.n_streams)]
        posts = [seed_posterior(w.pilots, A) for w in words] if need_post else None
        for v in spec.variants:
            if v == "hd":
                word = words[0]
                hard = np.concatenate([hard_decide(word.pilots[-7:]),
                                       hard_decide(word.payload)])
                bits = hd(hard)
            else:
                if v == "naive":
                    llrs = [naive_sd(w) for w in words]
                elif v == "hrsx":
                    llrs = [hrsx(w, A, posterior=p)[0] for w, p in zip(words, posts)]
                else:
                    llrs = [srsx(w, A, posterior=p) for w, p in zip(words, posts)]
                copies = [StreamSoftCopy(k, l) for k, l in enumerate(llrs)]
                bits = decide(ssic_combine(copies))
            wrong = int((bits != payload).sum())
            bit_err[v] += wrong
            pkt_err[v] += int(wrong > 0)
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
        params = [ChannelParams(snr_db=snr_db + spec.stream_snr_offsets[k],
                                detection_loss_prob=spec.detection_loss_prob,
                                burst_prob=spec.burst_prob,
                                burst_len_mean=spec.burst_len_mean,
                                burst_llr_atten=spec.burst_llr_atten)
                  for k in range(spec.n_streams)]
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
