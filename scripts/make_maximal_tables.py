#!/usr/bin/env python3
"""Regenerate the catalog of maximal tight sequences as one JSON document.

Writes the same bytes as `tffcomb maximal --all --max-dim N --json`, since
both build each cell with the CLI's payload; kept as a script so the table
build can be timed and inspected cell by cell on stderr.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from tffcomb.cli import _maximal_payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=9)
    parser.add_argument("--out", help="write JSON here instead of stdout")
    args = parser.parse_args()

    tables = []
    started = time.time()
    for dim in range(1, args.max_dim + 1):
        for total in range(dim, 2 * dim + 1):
            alpha = Fraction(total, dim)
            cell_start = time.time()
            cell = _maximal_payload(alpha, dim)
            print(
                f"dim {dim:2d}  alpha {str(alpha):>5s}  "
                f"{len(cell['maximal'])} maximal"
                f"  ({time.time() - cell_start:.2f}s)",
                file=sys.stderr,
            )
            tables.append(cell)
    print(f"total {time.time() - started:.1f}s", file=sys.stderr)
    body = json.dumps({"max_dim": args.max_dim, "tables": tables}, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    else:
        print(body)
    return 0


if __name__ == "__main__":
    sys.exit(main())
