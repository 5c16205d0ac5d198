"""Reproduce Table II (size of S: OPT / HG / GC(Δ) / LP(Δ)) and the
runtime comparison behind Fig. 6; the output frame also carries the
counters Table III derives its space proxies from.

Usage: python jobs/table2_quality.py [dataset ...]
"""
import sys

from repro.tables import table2, table3


def main() -> None:
    names = sys.argv[1:] or None
    df = table2.run(names=names)
    print("\n=== Table II (reproduced) ===")
    print(df.to_string(index=False))
    print("\n=== Table III (space proxies, MB) ===")
    print(table3.space_rows(df).to_string(index=False))


if __name__ == "__main__":
    main()
