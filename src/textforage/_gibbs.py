"""Build and load the compiled Gibbs kernel in `_gibbs.c`.

The library is built on first use, not at import, with
``gcc -O2 -ffp-contract=off -shared -fPIC``; with contraction off no
fused multiply-add changes the rounding, so the C kernel gives the same
bits as the pure-Python one in `lda`, with word-topic counts frozen or
not.  It is cached in ``$XDG_CACHE_HOME/textforage/`` (default
``~/.cache/textforage/``) under a name keyed by the SHA-256 of the
source, the flags and the platform.  A build writes
to a temporary name and renames it into place, so concurrent builds are
safe.  A cached library that will not load (damaged, or built for
another machine) is built again once.  ctypes releases the GIL during
each call.

Without gcc, or when the build or the load fails, `load` gives no library,
one warning goes to stderr, and `lda` runs the pure-Python kernel.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import threading
from importlib import resources
from pathlib import Path

FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_lock = threading.Lock()
_loaded: tuple[object | None, str] | None = None  # (library, backend description)


def source() -> bytes:
    return resources.files(__package__).joinpath("_gibbs.c").read_bytes()


def library_path(src: bytes) -> Path:
    """Where the library built from `src` with `FLAGS` for this platform
    is cached."""
    import sysconfig

    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    key = hashlib.sha256(src + " ".join([*FLAGS, sysconfig.get_platform()]).encode()).hexdigest()
    return Path(root) / "textforage" / f"_gibbs-{key[:16]}.so"


def _build(src: bytes, target: Path) -> None:
    import subprocess
    import tempfile

    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError("gcc not found on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([gcc, *FLAGS, "-x", "c", "-", "-o", tmp],
                              input=src, capture_output=True)
        if proc.returncode != 0:
            raise OSError(f"gcc failed: {proc.stderr.decode(errors='replace').strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path):
    import ctypes

    lib = ctypes.CDLL(str(path))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.sweep.argtypes = [i64, i64, ptr, ptr, ptr, ptr, ptr, ptr,
                          i64, i64, i64, f64, f64, ptr, ptr, i64]
    lib.sweep.restype = None
    return lib


def _resolve() -> tuple[object | None, str]:
    try:
        src = source()
        path = library_path(src)
        if path.is_file():
            try:
                return _open(path), f"C ({path})"
            except OSError:  # damaged, or built for another machine: build it again
                pass
        _build(src, path)
        return _open(path), f"C ({path})"
    except OSError as exc:
        return None, f"pure Python ({exc})"


def load() -> tuple[object | None, str]:
    """The compiled library, or None when it cannot be built or loaded,
    with the backend that runs: "C (<library>)" or "pure Python (<reason>)".

    Resolved once per process, since a loaded library is process-wide;
    a failure prints one warning.
    """
    global _loaded
    with _lock:
        if _loaded is None:
            _loaded = _resolve()
            if _loaded[0] is None:
                print(f"textforage: warning: Gibbs backend is {_loaded[1]}, "
                      "about 2000x slower than the compiled kernel", file=sys.stderr)
        return _loaded
