#!/usr/bin/env python3
"""Achievable-rate sweep over the decode deadline for a fixed erasure profile.

Prints one CSV row per deadline with the converse bound and the three
planners, exact fractions plus decimals. Useful for spotting where the
symbol-wise allocation closes the gap to the bound.
"""

import argparse
import csv
import io
from fractions import Fraction

from relaystream import (
    NetworkConfig,
    cswdf_plan,
    mwdf_rate,
    oswdf_optimize,
    t_min,
    upper_bound,
)
from relaystream.cli import CliError, emit


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n1", default="2,3", help="comma-separated hop-1 budgets")
    ap.add_argument("--n2", default="1,2", help="comma-separated hop-2 budgets")
    ap.add_argument("--deadlines", type=int, default=8, help="number of T values from the minimum")
    ap.add_argument("--out", help="csv path; default stdout")
    args = ap.parse_args()

    try:
        n1 = tuple(int(x) for x in args.n1.split(","))
        n2 = tuple(int(x) for x in args.n2.split(","))
        config = NetworkConfig(T=10**6, N1=n1, N2=n2)
    except ValueError as e:
        ap.error(f"bad budgets: {e}")
    if args.deadlines < 1:
        ap.error("--deadlines must be positive")
    start = t_min(config)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([
        "T", "upper", "mwdf", "cswdf", "oswdf",
        "upper_decimal", "mwdf_decimal", "cswdf_decimal", "oswdf_decimal",
    ])
    for t in range(start, start + args.deadlines):
        cfg = NetworkConfig(T=t, N1=n1, N2=n2)
        values = [
            upper_bound(cfg),
            mwdf_rate(cfg)[0],
            cswdf_plan(cfg)[0],
            oswdf_optimize(cfg).rate,
        ]
        writer.writerow(
            [t]
            + [str(Fraction(v)) for v in values]
            + [f"{float(v):.6f}" for v in values]
        )
    try:
        emit(buf.getvalue(), args.out)
    except CliError as e:
        ap.error(str(e))


if __name__ == "__main__":
    main()
