"""Generator contract tests: canonical form, determinism, target sizes."""
import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs import datasets


def _assert_canonical(e: np.ndarray) -> None:
    assert e.dtype == np.int64 and e.ndim == 2 and e.shape[1] == 2
    assert (e[:, 0] < e[:, 1]).all(), "rows must satisfy u < v"
    assert len(np.unique(e, axis=0)) == len(e), "no duplicate edges"


CASES = [
    ("er", lambda s: gen.erdos_renyi(50, 120, seed=s)),
    ("ws8", lambda s: gen.watts_strogatz(100, 8, 0.3, seed=s)),
    ("ws4", lambda s: gen.watts_strogatz(60, 4, 0.1, seed=s)),
    ("plc", lambda s: gen.powerlaw_cluster(80, 5, 0.6, seed=s)),
    ("pp", lambda s: gen.planted_partition(60, 6, 0.7, 0.05, seed=s)),
]


@pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_form(name, make, seed):
    _assert_canonical(make(seed))


@pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
def test_deterministic(name, make):
    a, b = make(7), make(7)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
def test_seed_changes_graph(name, make):
    assert not np.array_equal(make(1), make(2))


def test_erdos_renyi_edge_count():
    e = gen.erdos_renyi(200, 500, seed=3)
    assert 400 <= len(e) <= 500


@pytest.mark.parametrize("k_nn", [4, 8, 16])
def test_watts_strogatz_degree(k_nn):
    n = 200
    e = gen.watts_strogatz(n, k_nn, 0.2, seed=4)
    deg = np.bincount(e.reshape(-1), minlength=n)
    # Rewiring keeps total edges within ~n*k_nn/2 (minus collisions).
    assert abs(deg.mean() - k_nn) / k_nn < 0.15


def test_watts_strogatz_odd_k_rejected():
    with pytest.raises(ValueError):
        gen.watts_strogatz(50, 5, 0.1)


def test_powerlaw_cluster_edge_count():
    e = gen.powerlaw_cluster(300, 6, 0.5, seed=5)
    assert abs(len(e) - (300 - 6) * 6) <= 6 * 6


def test_powerlaw_cluster_heavy_tail():
    e = gen.powerlaw_cluster(500, 5, 0.5, seed=6)
    deg = np.bincount(e.reshape(-1))
    assert deg.max() > 4 * deg.mean(), "expect hub nodes"


def test_powerlaw_cluster_requires_n_gt_m():
    with pytest.raises(ValueError):
        gen.powerlaw_cluster(5, 5, 0.5)


def test_planted_partition_density_split():
    n, c = 60, 6
    e = gen.planted_partition(n, c, 0.8, 0.02, seed=7)
    block = np.arange(n) % c
    same = (block[e[:, 0]] == block[e[:, 1]]).sum()
    assert same > len(e) * 0.6, "within-community edges must dominate"


@pytest.mark.parametrize("name", list(datasets.DATASETS))
def test_registry_table1_entries_resolve(name):
    spec = datasets.DATASETS[name]
    assert spec.paper_n > 0 and spec.paper_m > 0 and spec.table == "I"


@pytest.mark.parametrize("name", ["FTB", "HST"])
def test_registry_small_graphs_generate(name):
    e = datasets.edges(name)
    _assert_canonical(e)
    spec = datasets.DATASETS[name]
    # 1/1-scale stand-ins should land within ~25% of the paper's m.
    assert abs(len(e) - spec.paper_m) / spec.paper_m < 0.25


@pytest.mark.parametrize("name", list(datasets.SMALL_DATASETS))
def test_registry_table4_entries_generate(name):
    e = datasets.edges(name)
    _assert_canonical(e)
    spec = datasets.SMALL_DATASETS[name]
    n = int(e.max()) + 1
    assert abs(n - spec.paper_n) <= max(2, spec.paper_n * 0.1)


def test_unknown_dataset_raises():
    with pytest.raises(KeyError):
        datasets.edges("nope")


@pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
def test_memo_returns_one_read_only_array_and_clears(name, make):
    """Each generator is memoized on its arguments; the memo hands out a
    read-only array and can be cleared, so a benchmark set-up can time
    generation afresh."""
    a = make(3)
    assert make(3) is a
    assert not a.flags.writeable
    fn = {"er": gen.erdos_renyi, "ws8": gen.watts_strogatz, "ws4": gen.watts_strogatz,
          "plc": gen.powerlaw_cluster, "pp": gen.planted_partition}[name]
    fn.cache_clear()
    b = make(3)
    assert b is not a and np.array_equal(a, b)
