"""The :class:`Engine` base shared by every QAOA execution engine.

The paper's design is one ansatz object over precomputed objective values
and a diagonalized mixer, with a small surface: value, gradient, simulate.
The dense :class:`~repro.core.ansatz.QAOAAnsatz`, the sharded
:class:`~repro.hpc.sharded.ShardedAnsatz` and the compressed
:class:`~repro.grover.ansatz.CompressedGroverAnsatz` all present that surface
to the angle strategies.  Each implements the batched kernels
(``expectation_batch``, ``value_and_gradient_batch``), ``simulate`` and
``optimum``; everything derived from them — the single-row calls (M=1 rows
of the batched kernels), the finite-difference baseline, the minimizer
losses, ``random_angles`` and the resource-release protocol — is written
here once.
"""

from __future__ import annotations

import abc

import numpy as np

from .gradients import finite_difference_gradient

__all__ = ["Engine"]


class Engine(abc.ABC):
    """Value / gradient / simulate over one fixed QAOA.

    Every subclass sets these attributes:

    ``dim``
        Length of the state the batched kernels evolve per angle set (the
        distinct-value count for the compressed engine, the global dimension
        for the sharded one); batched strategies size their batches from it.
    ``p``, ``num_angles``, ``n``
        Rounds, flat angle-vector length (betas then gammas) and qubits.
    ``beta_counts``
        Betas each round consumes (a list of ``p`` ints: 1, or the term
        count of a multi-angle layer); evolution-order sweeps such as
        :func:`~repro.angles.grid.grid_search` read the flat layout from it.
    ``maximize``
        The optimization sense.
    ``counter``
        The :class:`~repro.core.gradients.EvaluationCounter` every kernel
        call updates.
    """

    dim: int
    p: int
    num_angles: int
    beta_counts: list[int]
    n: int
    maximize: bool

    @abc.abstractmethod
    def expectation_batch(self, angles: np.ndarray) -> np.ndarray:
        """``<C>`` for every row of an ``(M, num_angles)`` angle matrix."""

    @abc.abstractmethod
    def value_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(M,)`` expectation values and ``(M, num_angles)`` exact gradients."""

    @abc.abstractmethod
    def simulate(self, angles: np.ndarray):
        """The final state at one flat angle vector."""

    @property
    @abc.abstractmethod
    def optimum(self) -> float:
        """Best objective value over the feasible space (by the sense)."""

    @property
    def cost(self):
        raise RuntimeError(
            f"the {type(self).__name__} engine has no dense cost object; "
            "strategies that rebuild per-round ansatze ('iterative', "
            "'fourier') require the dense execution path"
        )

    # -- single-row calls ---------------------------------------------------
    def expectation(self, angles: np.ndarray) -> float:
        """``<C>`` at the given angles."""
        return float(self.expectation_batch(np.asarray(angles)[None, :])[0])

    def value_and_gradient(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Expectation value and exact adjoint-mode gradient."""
        values, grads = self.value_and_gradient_batch(np.asarray(angles)[None, :])
        return float(values[0]), grads[0]

    def gradient(self, angles: np.ndarray) -> np.ndarray:
        """Exact adjoint-mode gradient of ``<C>``."""
        return self.value_and_gradient(angles)[1]

    def finite_difference_gradient(self, angles: np.ndarray, eps: float = 1e-6) -> np.ndarray:
        """Central finite-difference gradient: ``2 * num_angles`` expectation
        calls, the ``O(p)`` baseline of Fig. 5."""
        angles = np.asarray(angles, dtype=np.float64).ravel()
        return finite_difference_gradient(self.expectation, angles, eps=eps)

    # -- objective wrappers for minimizers ----------------------------------
    def loss(self, angles: np.ndarray) -> float:
        """Scalar to *minimize*: ``-<C>`` for maximization problems, ``<C>`` otherwise."""
        value = self.expectation(angles)
        return -value if self.maximize else value

    def loss_and_gradient(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and its gradient (signs consistent with :meth:`loss`)."""
        value, grad = self.value_and_gradient(angles)
        if self.maximize:
            return -value, -grad
        return value, grad

    def loss_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched loss and gradient (signs consistent with :meth:`loss`)."""
        values, grads = self.value_and_gradient_batch(angles)
        if self.maximize:
            return -values, -grads
        return values, grads

    def random_angles(self, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Uniformly random angles in ``[0, 2 pi)`` with the right length."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return 2.0 * np.pi * rng.random(self.num_angles)

    # -- resources ------------------------------------------------------------
    def close(self) -> None:
        """Release engine resources (shard workers); a no-op by default."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
