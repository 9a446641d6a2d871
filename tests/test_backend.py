"""The pluggable array-backend shim: resolution, primitives, torch equivalence.

Three layers of coverage:

* the shim itself — registry errors follow the sorted-choices convention,
  ``REPRO_BACKEND`` resolution warns-and-falls-back like ``REPRO_WORKERS``,
  dtypes stay pinned and numpy round-trips are exact;
* the numpy backend's primitives against raw numpy (matmul/einsum/tensordot
  plus the derived real-GEMM / Walsh–Hadamard helpers);
* numpy-vs-torch equivalence at ``<= 1e-10`` on the batched kernels and one
  end-to-end ``solve()`` per mixer family — skipped automatically where torch
  is not installed (the CI backend matrix installs CPU wheels and runs them).
"""

from __future__ import annotations

import functools
import importlib.util
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

import repro
from repro.api import SolveSpec
from repro.backend import (
    BACKEND_NAMES,
    ArrayBackend,
    BackendUnavailableError,
    NumpyBackend,
    active_backend,
    backend_from_env,
    backend_info,
    get_backend,
    set_active_backend,
    use_backend,
)
from repro.backend.base import distinct_levels, hadamard_blocks
from repro.core import BatchedWorkspace, QAOAAnsatz, qaoa_value_and_gradient_batch
from repro.mixers import (
    MultiAngleXMixer,
    grover_mixer,
    mixer_clique,
    transverse_field_mixer,
)

HAS_TORCH = importlib.util.find_spec("torch") is not None


def _backend_available(name: str) -> bool:
    try:
        get_backend(name)
        return True
    except BackendUnavailableError:
        return False


# ---------------------------------------------------------------------------
# shim: registry, env resolution, dtype policy
# ---------------------------------------------------------------------------

class TestBackendRegistry:
    def test_backend_names_sorted_and_complete(self):
        assert BACKEND_NAMES == ("numpy", "torch")

    def test_get_backend_numpy(self):
        backend = get_backend("numpy")
        assert isinstance(backend, NumpyBackend)
        assert backend.name == "numpy"
        assert backend.device == "cpu"
        assert backend.xp is np

    def test_get_backend_normalizes_case(self):
        assert isinstance(get_backend("  NumPy "), NumpyBackend)

    def test_unknown_backend_raises_sorted_choices(self):
        with pytest.raises(ValueError, match=r"unknown array backend 'jax'"):
            get_backend("jax")
        with pytest.raises(ValueError, match=r"\['numpy', 'torch'\]"):
            get_backend("jax")

    def test_unavailable_backend_raises_typed_error(self):
        missing = [n for n in BACKEND_NAMES if not _backend_available(n)]
        if not missing:
            pytest.skip("every registered backend is installed here")
        with pytest.raises(BackendUnavailableError):
            get_backend(missing[0])

    def test_active_backend_is_cached(self):
        assert active_backend() is active_backend()

    def test_set_active_backend_rejects_junk(self):
        with pytest.raises(TypeError):
            set_active_backend(42)

    def test_use_backend_restores_previous(self):
        before = active_backend()
        with use_backend("numpy") as backend:
            assert isinstance(backend, NumpyBackend)
            assert active_backend() is backend
        assert active_backend() is before

    def test_backend_info_shape(self):
        info = backend_info()
        assert info["backend"] in BACKEND_NAMES
        assert info["complex_dtype"] == "complex128"
        assert info["real_dtype"] == "float64"
        assert set(info["available"]) == set(BACKEND_NAMES)
        assert info["available"]["numpy"] is True

    def test_dtype_policy_pinned(self):
        backend = get_backend("numpy")
        assert backend.complex_dtype == np.complex128
        assert backend.real_dtype == np.float64
        assert backend.empty((3, 2)).dtype == np.complex128
        assert backend.empty(4, dtype=np.float64).dtype == np.float64

    def test_abstract_backend_not_instantiable(self):
        with pytest.raises(TypeError):
            ArrayBackend()


class TestEnvResolution:
    def test_unset_env_gives_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert isinstance(backend_from_env(), NumpyBackend)

    def test_explicit_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert isinstance(backend_from_env(), NumpyBackend)

    def test_invalid_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        with pytest.warns(RuntimeWarning, match="ignoring invalid REPRO_BACKEND"):
            backend = backend_from_env()
        assert isinstance(backend, NumpyBackend)

    @pytest.mark.skipif(HAS_TORCH, reason="torch is installed; fallback path untestable")
    def test_uninstalled_backend_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "torch")
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            backend = backend_from_env()
        assert isinstance(backend, NumpyBackend)

    def test_import_repro_never_crashes_on_bad_env(self):
        # A fresh interpreter with a junk REPRO_BACKEND must import fine.
        code = (
            "import os, warnings\n"
            "os.environ['REPRO_BACKEND'] = 'not-a-backend'\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    import repro\n"
            "assert any('REPRO_BACKEND' in str(w.message) for w in caught), caught\n"
            "assert repro.active_backend().name == 'numpy'\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


# ---------------------------------------------------------------------------
# numpy backend primitives vs raw numpy
# ---------------------------------------------------------------------------

class TestNumpyPrimitives:
    def setup_method(self):
        self.backend = get_backend("numpy")
        self.rng = np.random.default_rng(7)

    def _complex(self, *shape):
        return self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)

    def test_roundtrip_is_identity(self):
        x = self._complex(5, 3)
        assert self.backend.asarray(x) is x
        assert self.backend.to_numpy(x) is x

    def test_asarray_dtype_conversion(self):
        x = np.arange(4)
        converted = self.backend.asarray(x, dtype=np.complex128)
        assert converted.dtype == np.complex128
        np.testing.assert_array_equal(self.backend.to_numpy(converted).real, x)

    def test_matmul_matches_numpy(self):
        a = self._complex(6, 6)
        b = self._complex(6, 4)
        np.testing.assert_allclose(self.backend.matmul(a, b), a @ b, rtol=0, atol=1e-13)

    def test_matmul_out(self):
        a = self.rng.standard_normal((5, 5))
        b = self.rng.standard_normal((5, 3))
        out = np.empty((5, 3))
        result = self.backend.matmul(a, b, out=out)
        assert result is out
        np.testing.assert_allclose(out, a @ b, rtol=0, atol=1e-13)

    def test_einsum_matches_numpy(self):
        a = self.rng.standard_normal((8, 4))
        b = self.rng.standard_normal((8, 4))
        np.testing.assert_allclose(
            self.backend.einsum("dm,dm->m", a, b),
            np.einsum("dm,dm->m", a, b),
            rtol=0,
            atol=1e-13,
        )

    def test_tensordot_matches_numpy(self):
        a = self._complex(2, 2, 2, 2)
        b = self._complex(2, 2, 2)
        expected = np.tensordot(a, b, axes=([2, 3], [0, 1]))
        np.testing.assert_allclose(
            self.backend.tensordot(a, b, axes=([2, 3], [0, 1])), expected, atol=1e-13
        )

    def test_real_gemm_matches_complex_product(self):
        factor = self.rng.standard_normal((6, 6))
        src = np.ascontiguousarray(self._complex(6, 3))
        out = np.empty((6, 3), dtype=np.complex128)
        self.backend.real_gemm(factor, src, out)
        np.testing.assert_allclose(out, factor @ src, rtol=0, atol=1e-12)


@functools.lru_cache(maxsize=1)
def _int8_hadamard(n: int) -> np.ndarray:
    return hadamard(1 << n, dtype=np.int8)


def _hadamard_product(n: int, X: np.ndarray) -> np.ndarray:
    """``scipy.linalg.hadamard(2**n) @ X`` for complex ``X``, in row blocks of floats."""
    H = _int8_hadamard(n)
    Xf = X.view(np.float64)
    rows = 1 << min(n, 9)
    out = np.concatenate(
        [H[lo:lo + rows].astype(np.float64) @ Xf for lo in range(0, 1 << n, rows)]
    )
    return out.view(np.complex128)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 14),
    M=st.sampled_from([1, 3, 64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=13, M=1, seed=0)  # three blocks (4+4+5 bits), odd n
@example(n=14, M=3, seed=1)  # three blocks (4+5+5 bits)
@example(n=14, M=64, seed=2)  # wide batch: the two-factor split
def test_wht_gemm_matches_hadamard_matrix(n, M, seed):
    """The blocked kernel equals the dense ``±1`` Hadamard product (src aliasing dst too)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((1 << n, M)) + 1j * rng.standard_normal((1 << n, M))
    expected = _hadamard_product(n, X)
    scale = np.abs(expected).max()
    backend = active_backend()
    blocks = hadamard_blocks(n, M)
    assert len(blocks) == (2 if n <= 12 or M >= 32 else max(2, -(-n // 6)))
    src, via, dst = X.copy(), np.empty_like(X), np.empty_like(X)
    assert backend.wht_gemm(src, via, dst, *blocks) is dst
    assert np.abs(dst - expected).max() <= 1e-12 * scale
    np.testing.assert_array_equal(src, X)  # the input is untouched
    assert backend.wht_gemm(src, via, src, *blocks) is src  # in place
    assert np.abs(src - expected).max() <= 1e-12 * scale



@pytest.mark.parametrize("bits", [(1, 2, 2, 3), (2, 2, 2, 2, 2), (0, 3, 1, 2)])
@pytest.mark.parametrize("M", [1, 3])
def test_wht_gemm_any_block_split(bits, M):
    """Even and odd block counts (the plans for n >= 19 and n >= 25) on small n."""
    n = sum(bits)
    rng = np.random.default_rng(n * M)
    X = rng.standard_normal((1 << n, M)) + 1j * rng.standard_normal((1 << n, M))
    expected = _hadamard_product(n, X)
    blocks = tuple(hadamard(1 << b).astype(np.float64) for b in bits)
    src, via = X.copy(), np.empty_like(X)
    active_backend().wht_gemm(src, via, src, *blocks)
    assert np.abs(src - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.integers(-40, 40).map(float),  # integer spaced: the lookup path
            st.integers(-8, 8).map(lambda v: v + 0.5),
            st.floats(-1e3, 1e3, allow_nan=False),  # arbitrary: the sort path
            st.sampled_from([np.inf, -np.inf, -0.0]),
        ),
        max_size=40,
    ),
)
@example(values=[0.1, 1.1, 2.1, 0.1])  # offsets that round off an integer
@example(values=[0.0, 1e6])  # integer offsets wider than the value count
def test_distinct_levels_equals_unique_with_inverse(values):
    values = np.array(values, dtype=np.float64)
    levels, inverse = distinct_levels(values)
    expected_levels, expected_inverse = np.unique(values, return_inverse=True)
    np.testing.assert_array_equal(levels, expected_levels)
    np.testing.assert_array_equal(inverse, expected_inverse)
    assert inverse.dtype == expected_inverse.dtype

# ---------------------------------------------------------------------------
# numpy-vs-torch equivalence (runs under the CI backend matrix)
# ---------------------------------------------------------------------------

_MIXER_FACTORIES = {
    "x": lambda: transverse_field_mixer(6),
    "grover": lambda: grover_mixer(6),
    "clique": lambda: mixer_clique(8, 4),
    "multiangle": lambda: MultiAngleXMixer(5, [(i,) for i in range(5)]),
}


@pytest.mark.skipif(not HAS_TORCH, reason="torch not installed")
class TestTorchEquivalence:
    ATOL = 1e-10

    def _run_on(self, backend_name, kernel):
        """Build fresh components under ``backend_name`` and run ``kernel``."""
        backend = (
            get_backend("torch", device="cpu")
            if backend_name == "torch"
            else get_backend(backend_name)
        )
        return kernel(backend)

    @pytest.mark.parametrize("family", sorted(_MIXER_FACTORIES))
    def test_apply_batch_equivalence(self, family):
        factory = _MIXER_FACTORIES[family]
        M = 7
        probe = factory()
        rng = np.random.default_rng(11)
        Psi = rng.standard_normal((probe.dim, M)) + 1j * rng.standard_normal((probe.dim, M))
        Psi /= np.linalg.norm(Psi, axis=0, keepdims=True)
        Psi = np.ascontiguousarray(Psi)
        if isinstance(probe, MultiAngleXMixer):
            betas = rng.random((probe.num_angles, M))
        else:
            betas = rng.random(M)

        def kernel(backend):
            mixer = factory()
            mixer.backend = backend
            workspace = BatchedWorkspace(mixer.dim, M, backend=backend)
            out = np.empty_like(Psi)
            mixer.apply_batch(Psi.copy(), betas, out=out, workspace=workspace)
            return out

        np.testing.assert_allclose(
            self._run_on("numpy", kernel),
            self._run_on("torch", kernel),
            rtol=0,
            atol=self.ATOL,
        )

    @pytest.mark.parametrize("family", sorted(_MIXER_FACTORIES))
    def test_apply_hamiltonian_batch_equivalence(self, family):
        factory = _MIXER_FACTORIES[family]
        M = 5
        probe = factory()
        rng = np.random.default_rng(13)
        Psi = rng.standard_normal((probe.dim, M)) + 1j * rng.standard_normal((probe.dim, M))
        Psi = np.ascontiguousarray(Psi)

        def kernel(backend):
            mixer = factory()
            mixer.backend = backend
            workspace = BatchedWorkspace(mixer.dim, M, backend=backend)
            out = np.empty_like(Psi)
            mixer.apply_hamiltonian_batch(Psi.copy(), out=out, workspace=workspace)
            return out

        np.testing.assert_allclose(
            self._run_on("numpy", kernel),
            self._run_on("torch", kernel),
            rtol=0,
            atol=self.ATOL,
        )

    def test_value_and_gradient_batch_equivalence(self):
        obj = np.random.default_rng(3).random(1 << 7)
        angles = 2.0 * np.pi * np.random.default_rng(5).random((9, 4))

        def kernel(backend):
            mixer = transverse_field_mixer(7)
            mixer.backend = backend
            workspace = BatchedWorkspace(mixer.dim, 9, backend=backend)
            return qaoa_value_and_gradient_batch(
                angles, mixer, obj, p=2, workspace=workspace
            )

        np_values, np_grads = self._run_on("numpy", kernel)
        t_values, t_grads = self._run_on("torch", kernel)
        np.testing.assert_allclose(np_values, t_values, rtol=0, atol=self.ATOL)
        np.testing.assert_allclose(np_grads, t_grads, rtol=0, atol=self.ATOL)

    @pytest.mark.parametrize(
        "problem,n,mixer",
        [
            ("maxcut", 6, "x"),
            ("maxcut", 6, "grover"),
            ("densest_subgraph", 6, "clique"),  # clique needs the Dicke space
            ("maxcut", 5, "multiangle"),
        ],
    )
    def test_solve_end_to_end_equivalence(self, problem, n, mixer):
        spec = SolveSpec.build(
            problem=problem,
            n=n,
            problem_seed=2,
            mixer=mixer,
            strategy="random",
            strategy_params={"iters": 6, "maxiter": 60},
            p=1,
            seed=0,
        )
        results = {}
        for name in ("numpy", "torch"):
            backend = (
                get_backend("torch", device="cpu") if name == "torch" else get_backend(name)
            )
            with use_backend(backend):
                repro.api.solver.clear_problem_memo()
                results[name] = repro.QAOASolver(spec).run()
        # Identical seeds drive identical restarts; sub-ulp kernel differences
        # can nudge BFGS line searches, so the converged values get a slightly
        # wider gate than the raw kernels do.
        assert abs(results["numpy"].value - results["torch"].value) <= 1e-8
        # The hard <= 1e-10 equivalence: re-evaluating each backend's angles on
        # the numpy reference reproduces its reported value.
        with use_backend("numpy"):
            repro.api.solver.clear_problem_memo()
            ansatz = repro.QAOASolver(spec).ansatz
            for result in results.values():
                assert abs(ansatz.expectation(result.angles) - result.value) <= self.ATOL

    def test_ansatz_expectation_equivalence(self):
        obj = np.random.default_rng(23).random(1 << 8)
        angles = 2.0 * np.pi * np.random.default_rng(29).random((16, 6))

        values = {}
        for name in ("numpy", "torch"):
            backend = (
                get_backend("torch", device="cpu") if name == "torch" else get_backend(name)
            )
            ansatz = QAOAAnsatz(obj, transverse_field_mixer(8), 3, backend=backend)
            values[name] = ansatz.expectation_batch(angles)
        np.testing.assert_allclose(
            values["numpy"], values["torch"], rtol=0, atol=self.ATOL
        )
