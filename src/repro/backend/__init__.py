"""Pluggable array backends for the dense kernels (NumPy / PyTorch).

The active backend is resolved once, at ``import repro`` time, from the
``REPRO_BACKEND`` environment variable — the same convention as
``REPRO_WORKERS`` in :func:`repro.hpc.parallel.default_workers`:

* unset or ``numpy``   -> the NumPy reference backend (the default)
* ``torch``            -> the PyTorch backend, if torch imports
* anything invalid, or a backend whose library is missing -> a
  :class:`RuntimeWarning` and a fallback to numpy.  Import-time resolution
  **never** raises, so ``import repro`` works on machines without torch.

:func:`get_backend` is the strict programmatic entry point: an unknown name
raises the registry-style sorted-choices ``ValueError``, an uninstalled one
raises :class:`BackendUnavailableError`.  Tests and benchmarks switch
backends explicitly with :func:`use_backend` / :func:`set_active_backend`;
long-lived components (workspaces, ansätze, warm-pool entries) capture the
backend active at their construction, so a later switch never mixes kernels
within one component.
"""

from __future__ import annotations

import os
import platform
import threading
import warnings
from contextlib import contextmanager

import numpy as np

from .base import ArrayBackend
from .numpy_backend import NumpyBackend
from .torch_backend import TorchBackend

__all__ = [
    "ArrayBackend",
    "BACKEND_NAMES",
    "BackendUnavailableError",
    "NumpyBackend",
    "active_backend",
    "backend_from_env",
    "backend_info",
    "get_backend",
    "set_active_backend",
    "use_backend",
]

_REGISTRY: dict[str, type[ArrayBackend]] = {
    "numpy": NumpyBackend,
    "torch": TorchBackend,
}

#: the valid ``REPRO_BACKEND`` values, sorted
BACKEND_NAMES: tuple[str, ...] = tuple(sorted(_REGISTRY))


class BackendUnavailableError(RuntimeError):
    """A known backend whose backing library is not installed/usable here."""


def get_backend(name: str, **kwargs) -> ArrayBackend:
    """Construct the backend called ``name`` (strict: raises on any problem).

    ``kwargs`` are forwarded to the backend constructor (e.g. ``device=`` for
    torch).  Unknown names raise the registry-convention sorted-choices
    ``ValueError``; known-but-uninstalled ones raise
    :class:`BackendUnavailableError`.
    """
    key = str(name).strip().lower()
    if key not in _REGISTRY:
        raise ValueError(f"unknown array backend {name!r}; choose from {sorted(_REGISTRY)}")
    cls = _REGISTRY[key]
    if not cls.available():
        raise BackendUnavailableError(
            f"array backend {key!r} is registered but its library is not "
            f"installed; install it or pick one of the available backends "
            f"{sorted(n for n, c in _REGISTRY.items() if c.available())}"
        )
    try:
        return cls(**kwargs)
    except Exception as exc:
        raise BackendUnavailableError(
            f"array backend {key!r} failed to initialize: {exc}"
        ) from exc


def backend_from_env() -> ArrayBackend:
    """Resolve ``REPRO_BACKEND`` tolerantly (the import-time path).

    Mirrors ``default_workers()``'s ``REPRO_WORKERS`` handling: a bad value
    warns and falls back to the default instead of raising, so an exported
    ``REPRO_BACKEND=torch`` on a torch-less machine degrades to numpy rather
    than breaking ``import repro``.
    """
    env = os.environ.get("REPRO_BACKEND")
    if env:
        try:
            return get_backend(env)
        except ValueError:
            warnings.warn(
                f"ignoring invalid REPRO_BACKEND value {env!r}; choose from "
                f"{sorted(_REGISTRY)}, falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
        except BackendUnavailableError as exc:
            warnings.warn(
                f"REPRO_BACKEND={env} is unavailable ({exc}); falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
    return NumpyBackend()


_active: ArrayBackend | None = None
_active_lock = threading.Lock()


def active_backend() -> ArrayBackend:
    """The process-wide active backend (resolved from the env on first use)."""
    global _active
    if _active is None:
        with _active_lock:
            if _active is None:
                _active = backend_from_env()
    return _active


def set_active_backend(backend: ArrayBackend | str | None) -> ArrayBackend | None:
    """Install ``backend`` (instance or name) as active; returns the previous one.

    ``None`` resets to lazy env resolution.  Components built before the
    switch keep the backend they captured at construction.
    """
    global _active
    if isinstance(backend, str):
        backend = get_backend(backend)
    elif backend is not None and not isinstance(backend, ArrayBackend):
        raise TypeError(f"expected an ArrayBackend, a backend name, or None, got {backend!r}")
    with _active_lock:
        previous = _active
        _active = backend
    return previous


@contextmanager
def use_backend(backend: ArrayBackend | str):
    """Context manager: run a block under ``backend``, then restore."""
    previous = set_active_backend(backend)
    try:
        yield active_backend()
    finally:
        set_active_backend(previous)


def backend_info() -> dict:
    """Diagnostics for the active backend (what ``repro backend-info`` prints)."""
    backend = active_backend()
    details = {
        "backend": backend.name,
        "device": backend.device,
        "complex_dtype": str(np.dtype(backend.complex_dtype)),
        "real_dtype": str(np.dtype(backend.real_dtype)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "available": {name: cls.available() for name, cls in sorted(_REGISTRY.items())},
    }
    details.update(backend.info())
    return details
