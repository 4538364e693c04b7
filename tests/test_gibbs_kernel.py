"""The compiled Gibbs kernel against the pure-Python oracle kernel."""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import types
from importlib import resources
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textforage
from textforage import _gibbs, lda, querysample
from textforage.seeds import rng_from

from conftest import build_corpus, reference_sweep_locked

HAVE_GCC = shutil.which("gcc") is not None


def compiled():
    if not HAVE_GCC:
        pytest.skip("no gcc on PATH: the compiled kernel cannot be built")
    assert _gibbs.load()[0] is not None, lda.gibbs_backend()


def test_kernel_source_ships_as_package_data(monkeypatch):
    """The source ships, it exports one function, `sweep`, and `_open`
    declares exactly that, with one argtype per parameter."""
    source = resources.files("textforage").joinpath("_gibbs.c")
    assert source.is_file()
    exported = {name.decode(): params.count(b",") + 1 for name, params in
                re.findall(rb"^void (\w+)\(([^)]*)\)", source.read_bytes(), re.M)}
    assert exported == {"sweep": 16}

    class Declared(dict):
        def __init__(self, path):
            super().__init__()

        def __getattr__(self, name):
            return self.setdefault(name, types.SimpleNamespace())

    monkeypatch.setattr("ctypes.CDLL", Declared)
    declared = _gibbs._open(Path("unused.so"))
    assert {name: len(f.argtypes) for name, f in declared.items()} == exported
    assert all(f.restype is None for f in declared.values())


def test_compiled_kernel_is_built_into_the_cache(kernel_cache):
    compiled()
    backend = lda.gibbs_backend()
    path = _gibbs.library_path(_gibbs.source())
    assert backend == f"C ({path})"
    assert path.parent == kernel_cache / "textforage" and path.is_file()


def test_a_cached_library_that_will_not_load_is_rebuilt(tmp_path, monkeypatch, capsys):
    """A damaged library, or one built for another machine, in the
    cache is built again, not a reason to fall back to pure Python."""
    compiled()
    monkeypatch.setattr(_gibbs, "_loaded", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = _gibbs.library_path(_gibbs.source())
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a shared library")
    library, backend = _gibbs.load()
    assert library is not None and backend == f"C ({path})"
    assert "warning" not in capsys.readouterr().err
    # a library built for another platform is cached under another name
    monkeypatch.setattr("sysconfig.get_platform", lambda: "another-platform")
    assert _gibbs.library_path(_gibbs.source()) != path


@st.composite
def sampler_states(draw):
    """A random corpus state: tokens, documents, z and the counts they
    imply, plus sweeps of uniforms (some at the largest double below 1,
    the far end of the cumulative search)."""
    v = draw(st.integers(1, 30))
    n_docs = draw(st.integers(1, 5))
    k = draw(st.integers(2, 200))
    n = draw(st.integers(1, 60))
    n_sweeps = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    tokens = rng.integers(0, v, n, dtype=np.int32)
    docs = np.sort(rng.integers(0, n_docs, n)).astype(np.int32)
    z = rng.integers(0, k, n, dtype=np.int32)
    uniforms = rng.random((n_sweeps, n))
    uniforms[rng.random((n_sweeps, n)) < draw(st.sampled_from([0.0, 0.2]))] = np.nextafter(1, 0)
    alpha = draw(st.sampled_from([0.01, 0.1, 0.5, 1.7]))
    beta = draw(st.sampled_from([0.001, 0.01, 0.3]))
    return tokens, docs, z, v, n_docs, k, alpha, beta, uniforms


def full_counts(tokens, docs, z, v, n_docs, k):
    n_wt = np.zeros((v, k), np.int64)
    n_td = np.zeros((k, n_docs), np.int64)
    np.add.at(n_wt, (tokens, z), 1)
    np.add.at(n_td, (z, docs), 1)
    return [z.copy(), n_wt, n_td, n_wt.sum(axis=0)]


def pointers(*arrays):
    return [a.ctypes.data for a in arrays]


# Each sweep is run on its own by the oracle and straight through the
# compiled library, so the scratch `probs` (the last token's unnormalized
# topic weights) can be compared too: it shows any change of rounding,
# which the sampled topics almost never do.  `lda.sweep` then runs all
# sweeps in one call.


@settings(max_examples=60, deadline=None)
@given(state=sampler_states())
def test_full_kernel_is_bit_equal_to_the_oracle(state):
    compiled()
    tokens, docs, z, v, n_docs, k, alpha, beta, uniforms = state
    oracle = full_counts(tokens, docs, z, v, n_docs, k)
    direct = full_counts(tokens, docs, z, v, n_docs, k)
    want, got = np.empty(k), np.empty(k)
    for row in uniforms:
        row = row[None].copy()
        lda._sweep_kernel(tokens, docs, *oracle, v, alpha, beta, row, want)
        _gibbs.load()[0].sweep(1, tokens.size, *pointers(tokens, docs, *direct), v, k, n_docs,
                               alpha, beta, *pointers(row, got), 0)
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg="probs")
    one_call = full_counts(tokens, docs, z, v, n_docs, k)
    lda.sweep(tokens, docs, *one_call, alpha, beta, uniforms)
    for name, expected, stepped, whole in zip(("z", "n_wt", "n_td", "n_t"), oracle, direct,
                                              one_call):
        npt.assert_array_equal(stepped, expected, err_msg=name)
        npt.assert_array_equal(whole, expected, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(state=sampler_states())
def test_locked_kernel_is_bit_equal_to_the_oracle(state):
    """The full kernel on one document with `frozen` set, in Python and
    in C, is the locked sweep of `reference_sweep_locked`, and leaves the
    word-topic counts as they were; so is `lda._run_sweeps` on samples
    that share one base broadcast with stride 0, as locked query
    sampling passes it."""
    compiled()
    tokens, _, z, v, _, k, alpha, beta, uniforms = state
    base_wt = np.random.default_rng(k).integers(0, 50, (v, k)).astype(np.int64)
    base_t = base_wt.sum(axis=0)
    docs = np.zeros(tokens.size, np.int32)
    start_td = np.bincount(z, minlength=k).astype(np.int64)
    oracle = [z.copy(), start_td.copy()]
    # z, n_wt, n_td (k x 1) and n_t, in the order `sweep` takes them
    frozen = {name: [z.copy(), base_wt.copy(), oracle[1].reshape(k, 1).copy(), base_t.copy()]
              for name in ("python", "C")}
    want, got = np.empty(k), {"python": np.empty(k), "C": np.empty(k)}
    for row in uniforms:
        row = row[None].copy()
        reference_sweep_locked(tokens, oracle[0], base_wt, base_t, oracle[1], v, alpha, beta,
                               row, want)
        lda._sweep_kernel(tokens, docs, *frozen["python"], v, alpha, beta, row, got["python"],
                          frozen=True)
        _gibbs.load()[0].sweep(1, tokens.size, *pointers(tokens, docs, *frozen["C"]), v, k, 1,
                               alpha, beta, *pointers(row, got["C"]), 1)
        for name, probs in got.items():
            npt.assert_array_equal(probs.view(np.int64), want.view(np.int64),
                                   err_msg=f"{name} probs")
    batch_z, batch_td = np.stack([z, z]), np.stack([start_td, start_td])[:, :, None]
    shared_wt, shared_t = np.broadcast_to(base_wt, (2, v, k)), np.broadcast_to(base_t, (2, k))
    assert shared_wt.strides[0] == shared_t.strides[0] == 0
    lda._run_sweeps(tokens, docs, batch_z, shared_wt, batch_td, shared_t, v, alpha, beta,
                    np.stack([uniforms, uniforms]), frozen=True)
    for name, (z_run, wt_run, td_run, t_run) in frozen.items():
        npt.assert_array_equal(z_run, oracle[0], err_msg=f"{name} z")
        npt.assert_array_equal(td_run[:, 0], oracle[1], err_msg=f"{name} td")
        npt.assert_array_equal(wt_run, base_wt, err_msg=f"{name} n_wt")
        npt.assert_array_equal(t_run, base_t, err_msg=f"{name} n_t")
    for s in range(2):
        npt.assert_array_equal(batch_z[s], oracle[0], err_msg=f"batched z of sample {s}")
        npt.assert_array_equal(batch_td[s, :, 0], oracle[1], err_msg=f"batched td of sample {s}")
    npt.assert_array_equal(base_wt, np.random.default_rng(k).integers(0, 50, (v, k)))
    npt.assert_array_equal(base_t, base_wt.sum(axis=0))


@pytest.mark.parametrize("phi_mode", querysample.PHI_MODES)
def test_fit_is_one_call_on_the_per_iteration_stream(phi_mode):
    """A fit's uniforms, drawn as one (iterations, n) block, are the
    stream the per-iteration draws gave: the oracle run iteration by
    iteration lands on the same theta."""
    corpus = build_corpus([[0, 1, 2, 3, 1], [4, 5, 4, 3, 2, 0]], [f"w{i}" for i in range(6)])
    model = lda.train(corpus, lda.TrainingConfig(k=3, seed=4, iterations=10))
    doc = np.array([0, 4, 4, 1, 5], dtype=np.int32)
    fit = querysample.fit_document(model, doc, iterations=7, phi_mode=phi_mode, seed=9)

    rng = rng_from(9)
    z = rng.integers(0, 3, doc.size, dtype=np.int32)
    td = np.bincount(z, minlength=3).astype(np.int64)
    if phi_mode == "locked":
        for _ in range(7):
            reference_sweep_locked(doc, z, model.n_wt, model.n_t, td, 6, 0.1, 0.01,
                                   rng.random((1, doc.size)), np.empty(3))
    else:
        wt, t = model.n_wt.copy(), model.n_t.copy()
        np.add.at(wt, (doc, z), 1)
        np.add.at(t, z, 1)
        td = td.reshape(3, 1)
        for _ in range(7):
            lda._sweep_kernel(doc, np.zeros(doc.size, np.int32), z, wt, td, t, 6, 0.1, 0.01,
                              rng.random((1, doc.size)), np.empty(3))
        td = td[:, 0]
    npt.assert_array_equal(fit.theta, (td + 0.1) / (doc.size + 3 * 0.1))


@pytest.mark.parametrize("phi_mode", querysample.PHI_MODES)
def test_racing_threads_load_once_and_keep_the_serial_bits(monkeypatch, phi_mode):
    """More threads than cores, a short switch interval, and the library
    resolved for the first time by racing `sample_ensemble` calls: it
    loads once, and every thread's fit keeps the bits of the serial run."""
    compiled()
    rng = np.random.default_rng(21)
    corpus = build_corpus([rng.integers(0, 15, 40).tolist() for _ in range(6)],
                          [f"w{i}" for i in range(15)])
    model = lda.train(corpus, lda.TrainingConfig(k=5, seed=2, iterations=20))
    doc = rng.integers(0, 15, 30).astype(np.int32)
    serial = querysample.sample_ensemble(model, doc, n_samples=24, iterations=20,
                                         phi_mode=phi_mode, master_seed=5)
    opened = []
    real_open = _gibbs._open
    monkeypatch.setattr(_gibbs, "_loaded", None)
    monkeypatch.setattr(_gibbs, "_open", lambda path: opened.append(path) or real_open(path))
    results = [None] * 6

    def fit(i):
        results[i] = querysample.sample_ensemble(model, doc, n_samples=24, iterations=20,
                                                 phi_mode=phi_mode, master_seed=5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runners = [threading.Thread(target=fit, args=(i,)) for i in range(len(results))]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(runner.is_alive() for runner in runners) and len(opened) == 1
    for ensemble in results:
        npt.assert_array_equal(ensemble.thetas, serial.thetas)
        npt.assert_array_equal(ensemble.perplexities, serial.perplexities)


def sweep_args(n=5, v=4, k=3, n_docs=2):
    return {
        "tokens": np.arange(n, dtype=np.int32) % v,
        "docs": np.zeros(n, np.int32),
        "z": np.zeros(n, np.int32),
        "n_wt": np.zeros((v, k), np.int64),
        "n_td": np.zeros((k, n_docs), np.int64),
        "n_t": np.zeros(k, np.int64),
        "alpha": 0.1,
        "beta": 0.01,
        "uniforms": np.full((2, n), 0.5),
    }


def read_only(array):
    array.flags.writeable = False
    return array


BAD_ARGS = {
    "tokens-int64": ("tokens", lambda a: a["tokens"].astype(np.int64)),
    "z-list": ("z", lambda a: a["z"].tolist()),
    "uniforms-float32": ("uniforms", lambda a: a["uniforms"].astype(np.float32)),
    "z-strided": ("z", lambda a: np.zeros(10, np.int32)[::2]),
    "n_wt-fortran": ("n_wt", lambda a: np.asfortranarray(np.zeros((4, 3), np.int64))),
    "n_wt-read-only": ("n_wt", lambda a: read_only(a["n_wt"])),
    "docs-short": ("docs", lambda a: a["docs"][:-1].copy()),
    "n_t-long": ("n_t", lambda a: np.zeros(4, np.int64)),
    "n_td-topics": ("n_td", lambda a: np.zeros((4, 2), np.int64)),
    "uniforms-1d": ("uniforms", lambda a: np.full(5, 0.5)),
    "uniforms-width": ("uniforms", lambda a: np.full((1, 6), 0.5)),
    "tokens-out-of-vocabulary": ("tokens", lambda a: a["tokens"] + 1),
    "docs-negative": ("docs", lambda a: a["docs"] - 1),
    "z-topic": ("z", lambda a: a["z"] + 3),
}


@pytest.mark.parametrize("case", BAD_ARGS)
def test_sweep_rejects_arrays_it_cannot_take(case):
    name, make = BAD_ARGS[case]
    args = sweep_args()
    args[name] = make(args)
    with pytest.raises(ValueError, match=f"^{name}: "):
        lda.sweep(**args)


FALLBACK_RUN = """
import hashlib, json
import numpy as np
from conftest import build_corpus
from textforage import lda, querysample

corpus = build_corpus([[0, 1, 2, 3, 1, 2], [4, 5, 4, 3, 2, 0], [1, 1, 5, 0]],
                      [f"w{i}" for i in range(6)])
model = lda.train(corpus, lda.TrainingConfig(k=3, seed=8, iterations=12))
digest = hashlib.sha256()
for values in (model.z, model.n_wt, model.n_td):
    digest.update(values.tobytes())
for mode in querysample.PHI_MODES:
    fit = querysample.fit_document(model, [0, 4, 4, 1, 5], iterations=9, phi_mode=mode, seed=2)
    digest.update(fit.theta.tobytes() + np.float64(fit.perplexity).tobytes())
print(json.dumps({"backend": lda.gibbs_backend(), "sha256": digest.hexdigest()}))
"""


def run_bits(env):
    tests = Path(__file__).parent
    src = Path(textforage.__file__).parents[1]
    env = {**env, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", FALLBACK_RUN], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout), proc.stderr


def test_without_a_compiler_the_oracle_gives_the_same_bits(tmp_path):
    compiled()
    with_c, err = run_bits(dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "c")))
    assert with_c["backend"].startswith("C (") and "warning" not in err
    without, err = run_bits(dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "none"), PATH=""))
    assert without["backend"] == "pure Python (gcc not found on PATH)"
    assert without["sha256"] == with_c["sha256"]
    assert err.count("warning") == 1
    assert "Gibbs backend is pure Python (gcc not found on PATH)" in err
