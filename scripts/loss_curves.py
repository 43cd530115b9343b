#!/usr/bin/env python3
"""Packet-loss curves: symbol-wise allocation vs an equal-rate message-wise
baseline over a grid of channel erasure rates.

Writes one CSV row per (scheme, eps) point. The message-wise baseline reuses
the symbol-wise plan's packet size and message counts, so both schemes pay
identical overhead and the gap is purely the delay-spectrum shape.
"""

import argparse
import csv

from relaystream import NetworkConfig, run_monte_carlo
from relaystream.cli import (
    CliError, channel_specs, check_simulation, config_from_doc, load_json, output, plan_code,
)

REFERENCE = NetworkConfig(T=5, N1=(2, 3), N2=(1, 2))


def loss_curves(args) -> None:
    # the same refusals as `relaystream plan` and `relaystream simulate`,
    # all before the first Monte Carlo run
    channels = channel_specs(args.channel, args.eps, args.alpha, args.beta)
    config = REFERENCE
    if args.config:
        config = config_from_doc(load_json(args.config), args.config)
    symbolwise = plan_code(config, "oswdf")
    baseline = plan_code(config, "mwdf", match=symbolwise.allocation)
    codes = [("oswdf", symbolwise), ("mwdf-matched", baseline)]
    for _, code in codes:
        check_simulation(code, args.packets, args.seed)

    with output(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "rate", "channel", "eps", "packets", "lost", "loss_rate"])
        for channel in channels:
            for name, code in codes:
                res = run_monte_carlo(code, channel, args.packets, seed=args.seed)
                writer.writerow([
                    name,
                    str(code.allocation.rate),
                    res.channel["channel"],
                    res.channel["eps"],
                    res.packets,
                    res.lost,
                    f"{res.loss_rate:.8f}",
                ])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="network json; default is the closed-gap reference network")
    ap.add_argument("--eps", default="0.005,0.01,0.02,0.05", help="comma-separated erasure rates")
    ap.add_argument("--channel", choices=("iid", "ge"), default="iid")
    ap.add_argument("--alpha", type=float, default=0.01, help="ge: good-to-bad transition rate")
    ap.add_argument("--beta", type=float, default=0.3, help="ge: bad-to-good transition rate")
    ap.add_argument("--packets", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--out", help="csv path; default stdout")
    args = ap.parse_args()
    try:
        loss_curves(args)
    except CliError as e:
        ap.error(str(e))


if __name__ == "__main__":
    main()
