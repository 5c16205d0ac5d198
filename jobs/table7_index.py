"""Reproduce Table VII (indexing time and index size). Driver-only (the
candidate index is built on the driver; see DESIGN.md §2) — no
SparkSession needed.

Usage: python jobs/table7_index.py [dataset ...]
"""
import sys

from repro.tables import table7


def main() -> None:
    names = sys.argv[1:] or None
    df = table7.run(names=names)
    print("\n=== Table VII (reproduced) ===")
    print(df.to_string(index=False))


if __name__ == "__main__":
    main()
