"""Reproduce Table I (dataset statistics, k-clique counts) on the
driver; no Spark session is started.

Usage: python jobs/table1_stats.py [dataset ...]
"""
import sys

from repro.tables import table1


def main() -> None:
    names = sys.argv[1:] or None
    df = table1.run(names=names)
    print("\n=== Table I (reproduced) ===")
    print(df.to_string(index=False))


if __name__ == "__main__":
    main()
