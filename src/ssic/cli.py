"""Command-line front end.

Two subcommands:

  sweep    Monte-Carlo curves (seed_ber | payload_ber | packet_per)
  netsim   end-to-end network simulation; emits the frozen
           run_id,mode,sent,plr,per,fr schema

Spec fields come from --config (a JSON object of SweepSpec fields) with
individual flags overriding.  Invalid specs exit with status 2 and a
message naming the offending field, and so does an --out path that cannot
be opened, before the run.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import fields

from .netstack import SOFT_VARIANTS
from .sweeps import (MODES, NETSIM_COLUMNS, SWEEP_COLUMNS, VARIANTS, SweepSpec,
                     load_spec_file, run_netsim, run_sweep, write_csv)


def _float_list(s: str) -> list[float]:
    return [float(x) for x in s.split(",") if x.strip() != ""]


def _str_list(s: str) -> list[str]:
    return [x.strip() for x in s.split(",") if x.strip() != ""]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of spec fields; flags override")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--snr-grid", type=_float_list, dest="snr_grid",
                   help="comma-separated SNR points in dB, e.g. 0,1,2")
    p.add_argument("--L", type=int, dest="L", help="pilot length (>= 7)")
    p.add_argument("--n-streams", type=int, dest="n_streams")
    p.add_argument("--stream-snr-offsets", type=_float_list, dest="stream_snr_offsets",
                   help="per-stream SNR offsets in dB, comma-separated")
    p.add_argument("--trials", type=int, dest="trials")
    p.add_argument("--payload-bytes", type=int, dest="payload_bytes")
    p.add_argument("--rng-seed", type=int, dest="rng_seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ssic",
                                     description="soft-source-information combining harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="Monte-Carlo metric sweeps")
    _add_common(sweep)
    sweep.add_argument("--mode", choices=[m for m in MODES if m != "netsim"])
    sweep.add_argument("--variants", type=_str_list,
                       help=f"comma-separated subset of {','.join(VARIANTS)}")

    net = sub.add_parser("netsim", help="network simulation rounds")
    _add_common(net)
    net.add_argument("--variant", choices=SOFT_VARIANTS,
                     help="aggregator soft descrambler (default srsx)")
    net.add_argument("--detection-loss-prob", type=float, dest="detection_loss_prob")
    net.add_argument("--burst-prob", type=float, dest="burst_prob")
    net.add_argument("--burst-len-mean", type=float, dest="burst_len_mean")
    net.add_argument("--burst-llr-atten", type=float, dest="burst_llr_atten")
    net.add_argument("--window-size", type=int, dest="window_size")
    net.add_argument("--arrival-jitter", type=float, dest="arrival_jitter")
    return parser


_SPEC_FIELDS = tuple(f.name for f in fields(SweepSpec))


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    d = {}
    if args.config:
        d.update(load_spec_file(args.config))
    for name in _SPEC_FIELDS:
        v = getattr(args, name, None)
        if v is not None:
            d[name] = v
    if args.command == "netsim":
        d["mode"] = "netsim"
        if getattr(args, "variant", None) is not None:
            d["variants"] = [args.variant]
    elif d.get("mode") == "netsim":
        # a config may name netsim, which --mode refuses: run it with `ssic netsim`
        raise ValueError("mode: ssic sweep does not run netsim; use ssic netsim")
    return SweepSpec.from_dict(d)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        # opened before the run, so that an unwritable path costs no simulation
        with (open(args.out, "w", newline="") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            if spec.mode == "netsim":
                columns, rows = NETSIM_COLUMNS, run_netsim(spec)
            else:
                columns, rows = SWEEP_COLUMNS, run_sweep(spec)
            write_csv(columns, rows, fh)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
