"""Benchmark for the disjoint k-clique system; run ``perfbench/run.py``."""
