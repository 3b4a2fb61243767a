#!/usr/bin/env bash
# Each benchmark workload's reference chunk through the ssic CLI, written to
# <workload>.csv in the current directory.  The CI steps that run it compare
# each file with ssicbench/reference/<workload>.csv, which only the benchmark
# writes; one copy of the commands keeps those checks from drifting apart.
set -euo pipefail
ssic netsim --snr-grid 8 --L 16 --n-streams 2 --trials 200 --payload-bytes 1500 \
    --variant srsx --detection-loss-prob 0.01 --burst-prob 0.1 \
    --burst-llr-atten 0.25 --rng-seed 0 --out netsim_soft.csv
ssic sweep --mode packet_per --snr-grid 2,4,6,8,10,12 --L 16 --n-streams 4 \
    --trials 50 --payload-bytes 256 --variants srsx --rng-seed 0 --out per_short.csv
ssic sweep --mode payload_ber --snr-grid=-1,0,2,6 --L 16 --n-streams 4 \
    --stream-snr-offsets 0,0.5,1,1.5 --trials 25 --payload-bytes 1500 \
    --variants naive,hrsx,srsx --rng-seed 0 --out ber_long.csv
ssic netsim --snr-grid 10.2 --L 16 --n-streams 2 --trials 400 --payload-bytes 1500 \
    --variant srsx --detection-loss-prob 2e-4 --rng-seed 0 --out netsim_clean.csv
