"""The loader of the compiled kernels: it builds a source once into its
cache, loads that build again without compiling, and fails with the
compiler's own message when there is no compiler or the source does not
compile. A new build replaces the earlier ones in the cache. The id map
finds every key and raises on any other id."""
import re

import numpy as np
import pytest

from repro.core import kernels, native
from repro.dynamic import index as idx_mod
from repro.dynamic import state as st_mod
from repro.graphs.adjacency import positions


def test_second_load_reuses_the_build(tmp_path, monkeypatch):
    native.load(native.SOURCE, tmp_path)
    (so,) = tmp_path.iterdir()
    mtime = so.stat().st_mtime_ns

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(native.subprocess, "run", no_compiler)
    lib = native.load(native.SOURCE, tmp_path)
    assert list(tmp_path.iterdir()) == [so] and so.stat().st_mtime_ns == mtime
    assert lib.orient.restype is native.ctypes.c_int64


def test_new_build_removes_the_earlier_one(tmp_path):
    v1, v2 = tmp_path / "_kernels.c", tmp_path / "v2" / "_kernels.c"
    v2.parent.mkdir()
    v1.write_text(native.SOURCE.read_text())
    v2.write_text(native.SOURCE.read_text() + "/* v2 */\n")
    cache = tmp_path / "cache"
    native.load(v1, cache)
    (old,) = cache.iterdir()
    native.load(v2, cache)
    (new,) = cache.iterdir()
    assert new != old and not old.exists()
    assert native.load(v2, cache).orient.restype is native.ctypes.c_int64
    assert list(cache.iterdir()) == [new]


def test_source_that_does_not_compile_raises_with_stderr(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int f(void) { return undeclared_name; }\n")
    with pytest.raises(ImportError, match="undeclared_name"):
        native.load(bad, tmp_path / "cache")
    assert list((tmp_path / "cache").iterdir()) == [], "no partial build is left"


def test_missing_compiler_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    with pytest.raises(ImportError, match="needs a C compiler"):
        native.load(native.SOURCE, tmp_path)


def test_every_exported_function_has_a_signature():
    """Every non-static top-level function of the source is registered in
    ``_SIGNATURES`` (and nothing else is): ctypes would call an
    unregistered one with its default int conversions, which truncate
    64-bit pointers."""
    defined = re.findall(r"^(?!static\b)[a-z_][\w \t*]*?\b(\w+)\(", native.SOURCE.read_text(), re.M)
    assert len(defined) == len(set(defined)) and set(defined) == set(native._SIGNATURES)


def test_id_map_finds_every_key():
    rng = np.random.default_rng(0)
    keys = rng.permutation(np.concatenate([np.arange(-300, 300) * 7_919, [2**62, -2**62, 10**11 + 7]]))
    query = rng.choice(keys, (500, 2))
    got = positions(keys, query)
    assert got.shape == query.shape and got.dtype == np.int64
    assert np.array_equal(keys[got], query)
    assert positions(keys, np.empty(0, dtype=np.int64)).shape == (0,)


def test_id_map_raises_on_an_id_that_is_not_a_key():
    keys = np.array([3, -8, 10**11], dtype=np.int64)
    with pytest.raises(KeyError, match=r"2 ids are not keys, e.g. \[4, 5\]"):
        positions(keys, [3, 4, 10**11, 5])
    with pytest.raises(KeyError):
        positions(np.empty(0, dtype=np.int64), [0])


def test_index_build_raises_on_a_clique_node_with_no_row():
    """A node of S missing from the adjacency has no row: the build raises
    and leaves the index as it was, rather than reading row -1."""
    st = st_mod.DynamicState(k=3, adj={1: {2, 3}, 2: {1, 3}, 3: {1, 2}, 4: {5}, 5: {4}})
    st.add_to_S((1, 2, 3))
    st.add_to_S((4, 5, 6))
    with pytest.raises(KeyError, match=r"\[6\]"):
        idx_mod.build_index(st)
    assert st.cand == {(1, 2, 3): set(), (4, 5, 6): set()}


def test_index_kernel_checks_its_arrays():
    """One edge 0-1, S = {(0, 1)}, k = 2: no candidates. Arrays a C call
    would read out of bounds raise before the call."""
    ptr, nbr, members = np.array([0, 1, 2]), np.array([1, 0]), np.array([[0, 1]])
    counts, rows = kernels.candidate_index(ptr, nbr, members, 2)
    assert counts.tolist() == [0] and rows.shape == (0, 2)
    for args in ((ptr, np.array([1, 2]), members, 2), (ptr, nbr, np.array([[0, -1]]), 2),
                 (np.array([0, 2, 1]), nbr, members, 2), (ptr, nbr, members, 3),
                 (ptr, nbr, members[:, :1], 1)):
        with pytest.raises(ValueError):
            kernels.candidate_index(*args)
    with pytest.raises(TypeError):
        kernels.candidate_index(ptr, nbr.astype(np.int32), members, 2)
