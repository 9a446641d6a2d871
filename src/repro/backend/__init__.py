"""The dense kernels: GEMMs, the blocked Walsh–Hadamard transform, phase tables.

Everything runs on numpy through :data:`kernels`, one
:class:`NumpyBackend` instance.  The two classes remain because the
benchmark's layer trace patches their methods (``wht_gemm``, ``real_gemm``
and ``matmul``) to time the ``backend.wht`` and ``backend.gemm`` spans; the
plain functions live in :mod:`repro.backend.base`.
"""

from .base import ArrayBackend
from .numpy_backend import NumpyBackend, kernels

__all__ = ["ArrayBackend", "NumpyBackend", "kernels"]
