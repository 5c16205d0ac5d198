"""The loader of the compiled kernels: it builds a source once into its
cache, loads that build again without compiling, and fails with the
compiler's own message when there is no compiler or the source does not
compile."""
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
    assert lib.triangles.restype is native.ctypes.c_int64


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
