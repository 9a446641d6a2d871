"""The numpy GEMM behind every dense kernel, and its one instance.

:class:`NumpyBackend` adds ``matmul`` (``np.matmul`` into the caller's
pre-allocated ``out``) to the derived kernels of
:class:`~repro.backend.base.ArrayBackend`.  It is a class, not a function,
only so the benchmark's layer trace can wrap ``NumpyBackend.matmul`` (the
``backend.gemm`` span); :data:`kernels` is the instance every dense kernel
calls.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend

__all__ = ["NumpyBackend", "kernels"]


class NumpyBackend(ArrayBackend):
    def matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out)


#: the instance every dense kernel dispatches through
kernels = NumpyBackend()
