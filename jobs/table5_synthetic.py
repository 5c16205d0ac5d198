"""Reproduce Tables V and VI (runtime and |S| on Watts-Strogatz graphs).

Usage: python jobs/table5_synthetic.py [n [degree ...]]
"""
import sys

from repro.tables import synthetic


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else synthetic.DEFAULT_N
    degrees = tuple(map(int, sys.argv[2:])) or synthetic.DEFAULT_DEGREES
    df = synthetic.run(n=n, degrees=degrees)
    print("\n=== Table V (runtime, reproduced) ===")
    print(synthetic.table5(df).to_string(index=False))
    print("\n=== Table VI (size of S, reproduced) ===")
    print(synthetic.table6(df).to_string(index=False))


if __name__ == "__main__":
    main()
