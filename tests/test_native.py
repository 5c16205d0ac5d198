"""The loader of the compiled kernels: it builds a source once into its
cache, loads that build again without compiling, and fails with the
compiler's own message when there is no compiler or the source does not
compile. A new build replaces the earlier ones in the cache."""
import pytest

from repro.core import native


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
