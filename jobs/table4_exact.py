"""Reproduce Table IV (LP vs exact OPT on 6 small graphs).

Usage: python jobs/table4_exact.py [dataset ...]
"""
import sys

from repro.tables import table4


def main() -> None:
    names = sys.argv[1:] or None
    df = table4.run(names=names)
    print("\n=== Table IV (reproduced) ===")
    print(df.to_string(index=False))


if __name__ == "__main__":
    main()
