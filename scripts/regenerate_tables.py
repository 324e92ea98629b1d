#!/usr/bin/env python3
"""Print every reference table in one go.

Usage: python scripts/regenerate_tables.py [--format text|csv|json|latex]
"""

import argparse

from siegel_dims.tables import FORMATS, TableSpec, emit_table

TABLES = [
    ("dim S_k(Sp(4,Z)), k = 10..20",
     TableSpec("full", weights=tuple(range(10, 21)))),
    ("dim S_4(Gamma_0(p)), p <= 13",
     TableSpec("gamma0", weights=(4,), levels=(2, 3, 5, 7, 11, 13))),
    ("dim S_4(K(p)), p <= 19",
     TableSpec("paramodular", levels=(2, 3, 5, 7, 11, 13, 17, 19))),
    ("dim S_4(Gamma(p)), p <= 17",
     TableSpec("principal", weights=(4,), levels=(2, 3, 5, 7, 11, 13, 17))),
    ("dim S_k(Gamma(3)), k = 4..10",
     TableSpec("principal", weights=tuple(range(4, 11)), levels=(3,))),
    ("dim S_k(Gamma(5)), k = 4..10",
     TableSpec("principal", weights=tuple(range(4, 11)), levels=(5,))),
    ("dim S_4(Gamma(15))",
     TableSpec("principal", weights=(4,), levels=(15,))),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", default="text", choices=FORMATS)
    args = parser.parse_args()

    for title, spec in TABLES:
        print(f"# {title}")
        print(emit_table(TableSpec(spec.family, spec.weights, spec.levels, args.format)))


if __name__ == "__main__":
    main()
