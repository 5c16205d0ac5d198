"""Dataset registry: synthetic stand-ins for the paper's graphs.

The paper evaluates on 10 real social networks (Table I) and 6 small
graphs (Table IV), all from KONECT / Network Repository. The container
has no network access, so each dataset is replaced by a deterministic
synthetic stand-in with similar n, m and generative character
(heavy-tail degrees + high clustering for the social graphs, dense
communities for the small contact graphs). Large graphs are scaled
down (`scale` column) so a 16-core local PySpark run stays within
budget; DESIGN.md §3 argues why the shape of the results survives.

Every entry is deterministic in its fixed seed, so tests, benchmarks
and the DuckDB oracle all see identical graphs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphs import generators as gen


@dataclass(frozen=True)
class DatasetSpec:
    """A named synthetic stand-in for one of the paper's datasets."""

    name: str
    make: Callable[[], np.ndarray]
    paper_n: int
    paper_m: int
    scale: str  # human-readable node-scale note, e.g. "1/80"
    table: str  # which paper table the dataset appears in ("I" or "IV")


def _spec(name, make, paper_n, paper_m, scale, table="I"):
    return DatasetSpec(name, make, paper_n, paper_m, scale, table)


# --- Table I stand-ins (10 social graphs) --------------------------------
# Each social graph is a Holme-Kim powerlaw-cluster base (heavy-tail
# degrees, clustering) plus a dense-block overlay (near-clique cores)
# so the k-clique counts *grow* with k as in the paper's Table I —
# that growth is what separates GC (materializes all cliques) from LP.
# FTB/HST keep no overlay: their paper counts shrink with k.


def _social(n, m_per_node, p_triad, base_seed, n_blocks, block_size, p_in):
    base = gen.powerlaw_cluster(n, m_per_node, p_triad, seed=base_seed)
    return gen.dense_overlay(
        base, n, n_blocks, block_size, p_in, seed=base_seed + 1000
    )


DATASETS: dict[str, DatasetSpec] = {
    "FTB": _spec(
        "FTB",
        lambda: gen.planted_partition(115, 10, 0.72, 0.03, seed=11),
        115, 613, "1/1",
    ),
    "HST": _spec(
        "HST",
        lambda: gen.powerlaw_cluster(1860, 7, 0.6, seed=12),
        1_860, 12_500, "1/1",
    ),
    "FB": _spec(
        "FB",
        lambda: _social(4000, 19, 0.8, 13, 100, 16, 0.92),
        4_000, 88_000, "1/1",
    ),
    "FBP": _spec(
        "FBP",
        lambda: _social(14_000, 7, 0.5, 14, 80, 14, 0.92),
        28_000, 206_000, "1/2",
    ),
    "FBW": _spec(
        "FBW",
        lambda: _social(8_000, 12, 0.6, 15, 80, 15, 0.92),
        63_700, 817_000, "1/8",
    ),
    "DS": _spec(
        "DS",
        lambda: _social(13_000, 7, 0.5, 16, 70, 14, 0.92),
        260_000, 2_150_000, "1/20",
    ),
    "SK": _spec(
        "SK",
        lambda: _social(42_000, 6, 0.4, 17, 60, 13, 0.92),
        1_700_000, 11_000_000, "1/40",
    ),
    "FL": _spec(
        "FL",
        lambda: _social(42_000, 9, 0.6, 18, 80, 14, 0.92),
        1_700_000, 15_600_000, "1/40",
    ),
    "LJ": _spec(
        "LJ",
        lambda: _social(65_000, 9, 0.5, 19, 90, 14, 0.92),
        5_200_000, 48_700_000, "1/80",
    ),
    "OR": _spec(
        "OR",
        lambda: _social(37_000, 19, 0.5, 20, 150, 16, 0.92),
        3_000_000, 117_000_000, "1/80",
    ),
}

# --- Table IV stand-ins (6 small graphs for the exact comparison) --------
SMALL_DATASETS: dict[str, DatasetSpec] = {
    "Swallow": _spec(
        "Swallow", lambda: gen.planted_partition(17, 3, 0.8, 0.2, seed=41),
        17, 53, "1/1", "IV",
    ),
    "Tortoise": _spec(
        "Tortoise", lambda: gen.planted_partition(35, 5, 0.7, 0.06, seed=42),
        35, 104, "1/1", "IV",
    ),
    "Lizard": _spec(
        "Lizard", lambda: gen.planted_partition(60, 6, 0.7, 0.086, seed=43),
        60, 318, "1/1", "IV",
    ),
    "Football": _spec(
        "Football", lambda: gen.planted_partition(115, 10, 0.72, 0.03, seed=11),
        115, 613, "1/1", "IV",
    ),
    "Voles": _spec(
        "Voles", lambda: gen.planted_partition(181, 18, 0.55, 0.007, seed=44),
        181, 515, "1/1", "IV",
    ),
    "Hamsterster": _spec(
        "Hamsterster", lambda: gen.powerlaw_cluster(1860, 7, 0.6, seed=12),
        1_860, 12_500, "1/1", "IV",
    ),
}


def edges(name: str) -> np.ndarray:
    """Canonical edge array for a registered dataset (either registry)."""
    spec = DATASETS.get(name) or SMALL_DATASETS.get(name)
    if spec is None:
        raise KeyError(f"unknown dataset {name!r}")
    return spec.make()


def edges_to_df(spark: SparkSession, e: np.ndarray) -> DataFrame:
    """Wrap a canonical numpy edge array as a Spark DataFrame."""
    pdf = pd.DataFrame({"src": e[:, 0].astype("int64"), "dst": e[:, 1].astype("int64")})
    return spark.createDataFrame(pdf)


def df_to_edges(edges_df: DataFrame) -> np.ndarray:
    """Collect a ``(src, dst)`` DataFrame to the driver as a canonical
    numpy edge array (the inverse of :func:`edges_to_df`)."""
    pdf = edges_df.toPandas()
    return gen._canonical(np.stack([pdf["src"].to_numpy(np.int64), pdf["dst"].to_numpy(np.int64)], axis=1))
