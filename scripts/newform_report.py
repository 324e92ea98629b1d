#!/usr/bin/env python3
"""Survey newform dimension bounds and decomposition counts for small (k, p).

Usage: python scripts/newform_report.py [--max-weight K] [--primes P1,P2,...]

For each weight/prime pair this prints the space dimension, the exact
rational bounds, and the number of decompositions into character degrees
(skipped once the dimension passes the counting limit).
"""

import argparse

from siegel_dims.newforms import analyze_level


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-weight", type=int, default=8)
    parser.add_argument("--primes", default="3,5,7")
    args = parser.parse_args()
    primes = [int(p) for p in args.primes.split(",")]

    print(f"{'k':>3} {'p':>3} {'dim':>12} {'lower':>16} {'upper':>20} {'solutions':>12}")
    for k in range(4, args.max_weight + 1):
        for p in primes:
            report = analyze_level(k, p, max_solutions=0)
            pair = report.bounds
            count = "-" if report.solution_count is None else report.solution_count
            print(f"{k:>3} {p:>3} {report.dimension:>12} {str(pair.lower):>16} "
                  f"{str(pair.upper):>20} {count:>12}")


if __name__ == "__main__":
    main()
