"""PyTorch backend: zero-copy on CPU, cached constants + streamed I/O on CUDA.

On CPU, ``torch.from_numpy`` wraps the caller's numpy buffers without
copying, so ``out=`` GEMMs write directly into the pre-allocated workspace
arrays — the shim genuinely exercises torch's kernels (and its intra-op
threading) while the rest of the engine keeps seeing numpy.  That is the
configuration the CI backend matrix tests on CPU wheels.

On CUDA, the *operator factors* passed as ``matmul``'s first operand
(Hadamard blocks, eigenbases, term diagonals — constants per mixer) are
cached device-side in a small LRU keyed on the host array's identity, while
activations are transferred per call.  Factors are ``O(dim^2)`` against
``O(dim * M)`` activations, so large problems amortize the PCIe traffic; see
the README "Backends" section for when that trade wins.

:mod:`torch` is imported lazily, in the constructor — importing this module
is safe on machines without torch; constructing the backend is not.
"""

from __future__ import annotations

import importlib.util
import os
from collections import OrderedDict

import numpy as np

from .base import ArrayBackend

__all__ = ["TorchBackend"]

#: device-side constant factors kept per backend instance
_CONST_CACHE_ENTRIES = 64


class TorchBackend(ArrayBackend):
    name = "torch"

    def __init__(self, device: str | None = None):
        import torch

        self._torch = torch
        if device is None:
            device = os.environ.get("REPRO_DEVICE") or (
                "cuda" if torch.cuda.is_available() else "cpu"
            )
        self._device = torch.device(device)
        self._is_cpu = self._device.type == "cpu"
        # id -> (host array kept alive, device tensor); see _constant()
        self._const_cache: OrderedDict[int, tuple[np.ndarray, object]] = OrderedDict()

    @classmethod
    def available(cls) -> bool:
        return importlib.util.find_spec("torch") is not None

    @property
    def device(self) -> str:
        return str(self._device)

    @property
    def xp(self):
        return self._torch

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def _wrap(self, x):
        """``x`` as a tensor on the backend device, zero-copy where possible."""
        torch = self._torch
        if isinstance(x, torch.Tensor):
            return x
        x = np.asarray(x)
        if not x.flags.writeable:  # broadcast views etc. — copy, don't warn
            x = np.ascontiguousarray(x)
        if self._is_cpu:
            try:
                return torch.from_numpy(x)
            except (TypeError, ValueError):  # negative strides etc.
                return torch.as_tensor(np.ascontiguousarray(x))
        return torch.as_tensor(np.ascontiguousarray(x), device=self._device)

    def _constant(self, x):
        """Like :meth:`_wrap`, but LRU-cached device-side for CUDA devices.

        The cache key is the host array's identity; holding the array in the
        cache entry pins that identity, and the stored-array check guards
        against id reuse after the original was garbage collected.
        """
        if self._is_cpu or not isinstance(x, np.ndarray):
            return self._wrap(x)
        key = id(x)
        hit = self._const_cache.get(key)
        if hit is not None and hit[0] is x:
            self._const_cache.move_to_end(key)
            return hit[1]
        tensor = self._wrap(x)
        self._const_cache[key] = (x, tensor)
        while len(self._const_cache) > _CONST_CACHE_ENTRIES:
            self._const_cache.popitem(last=False)
        return tensor

    def asarray(self, x, dtype=None):
        if dtype is not None:
            x = np.asarray(self.to_numpy(x), dtype=dtype)
        return self._wrap(x)

    def to_numpy(self, x) -> np.ndarray:
        if isinstance(x, self._torch.Tensor):
            return x.detach().cpu().numpy()
        return np.asarray(x)

    # ------------------------------------------------------------------
    # dense primitives
    # ------------------------------------------------------------------
    def matmul(self, a, b, out=None):
        torch = self._torch
        ta = self._constant(a)
        tb = self._wrap(b)
        # torch.matmul requires matching dtypes; numpy promotes real x complex
        if ta.is_complex() and not tb.is_complex():
            tb = tb.to(ta.dtype)
        elif tb.is_complex() and not ta.is_complex():
            ta = ta.to(tb.dtype)
        if out is None:
            return self.to_numpy(torch.matmul(ta, tb))
        if self._is_cpu:
            tout = self._wrap(out)
            try:
                torch.matmul(ta, tb, out=tout)
            except RuntimeError:  # out= unsupported for this broadcast shape
                tout.copy_(torch.matmul(ta, tb))
        else:
            np.copyto(out, torch.matmul(ta, tb).cpu().numpy())
        return out

    def einsum(self, subscripts, *operands):
        result = self._torch.einsum(subscripts, *[self._wrap(op) for op in operands])
        return self.to_numpy(result)

    def tensordot(self, a, b, axes):
        result = self._torch.tensordot(self._constant(a), self._wrap(b), dims=axes)
        return self.to_numpy(result)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def info(self) -> dict:
        torch = self._torch
        details = {
            "torch": torch.__version__,
            "torch_threads": torch.get_num_threads(),
            "cuda_available": torch.cuda.is_available(),
        }
        if torch.version.cuda:
            details["cuda"] = torch.version.cuda
        if self._device.type == "cuda":  # pragma: no cover - needs a GPU
            details["cuda_device"] = torch.cuda.get_device_name(self._device)
            details["const_cache_entries"] = len(self._const_cache)
        return details
