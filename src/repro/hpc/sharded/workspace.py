"""Shared-memory segment management for the sharded statevector engine.

:class:`ShardedWorkspace` is the sharded analogue of
:class:`repro.core.workspace.BatchedWorkspace`: it owns the per-shard state
buffers one sharded evolution runs in, hands out *names* instead of arrays
(the coordinator process must never touch the state pages — its resident set
is what the memory gate measures), and supports ``ensure(batch)`` so callers
can re-shape the batch dimension between sweeps.

Layout: per shard, per *slot* (double/triple buffer), one
``multiprocessing.shared_memory`` segment holding a C-contiguous complex128
``(local_dim, batch)`` block — the same state-major orientation as the dense
kernels, so the workers' local Walsh–Hadamard transforms run on contiguous
memory.  Two slots are enough for forward evolution (the local transform
uses the other slot as its intermediate, and the cross-shard butterfly
ping-pongs between them); the adjoint gradient lazily adds a third.

Only the coordinator (the creating process) ever unlinks segments; workers
attach by name and deregister themselves from the resource tracker so a
worker exit cannot destroy segments still in use (CPython < 3.13 tracks
attachments as owned).
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory

__all__ = ["ShardedWorkspace", "attach_segment", "COMPLEX_BYTES"]

COMPLEX_BYTES = 16  # numpy complex128


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without transferring cleanup ownership.

    ``SharedMemory(name=...)`` registers the mapping with the resource
    tracker even for pure attachments, which on CPython < 3.13 treats them as
    owned: a spawn-started worker's tracker would unlink the segment at
    worker exit, and a fork-started worker shares the coordinator's tracker,
    so a worker-side ``unregister`` would erase the *coordinator's*
    registration.  Registration is therefore suppressed for the attach — the
    coordinator's original registration is the only one, and the coordinator
    alone unlinks.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ShardedWorkspace:
    """Owns the shared state segments of one sharded execution.

    Parameters
    ----------
    local_dims:
        Per-shard block sizes (``chunk.size`` of each shard, in order).
    batch:
        Number of statevector columns per block.
    slots:
        Initial number of buffers per shard (2 for forward evolution).
    """

    def __init__(self, local_dims: list[int], batch: int = 1, slots: int = 2):
        if batch < 1:
            raise ValueError("batch must be positive")
        if any(d < 1 for d in local_dims):
            raise ValueError("every shard must hold at least one state")
        self.local_dims = [int(d) for d in local_dims]
        self.batch = int(batch)
        self._uid = f"{os.getpid():x}-{secrets.token_hex(4)}"
        #: segments[slot][shard] -> SharedMemory
        self._segments: list[list[shared_memory.SharedMemory]] = []
        self._closed = False
        self.ensure_slots(slots)

    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """Number of shards."""
        return len(self.local_dims)

    @property
    def dim(self) -> int:
        """Global statevector dimension."""
        return sum(self.local_dims)

    @property
    def num_slots(self) -> int:
        """Buffers currently allocated per shard."""
        return len(self._segments)

    @property
    def capacity(self) -> int:
        """Current batch width (mirrors ``BatchedWorkspace.capacity``)."""
        return self.batch

    def segment_names(self) -> list[list[str]]:
        """``names[slot][shard]`` — what workers attach by."""
        return [[seg.name for seg in slot] for slot in self._segments]

    def state_bytes(self) -> int:
        """Total bytes across all shards and slots (accounting, not RSS)."""
        per_slot = sum(d * self.batch * COMPLEX_BYTES for d in self.local_dims)
        return per_slot * self.num_slots

    # ------------------------------------------------------------------
    def ensure_slots(self, count: int) -> bool:
        """Grow to at least ``count`` buffers per shard; True if new ones appeared."""
        if self._closed:
            raise RuntimeError("workspace is closed")
        grew = False
        while self.num_slots < count:
            slot_index = self.num_slots
            slot = []
            for shard, local_dim in enumerate(self.local_dims):
                name = f"repro-{self._uid}-b{slot_index}-s{shard}"
                size = local_dim * self.batch * COMPLEX_BYTES
                slot.append(shared_memory.SharedMemory(name=name, create=True, size=size))
            self._segments.append(slot)
            grew = True
        return grew

    def ensure(self, batch: int) -> bool:
        """Re-shape every buffer to ``batch`` columns; True if rebuilt.

        Unlike ``BatchedWorkspace.ensure`` this rebuilds on *any* width change
        (shrinks included): segments are sized exactly, workers re-attach by
        name after a rebuild, and exact sizing is what keeps per-worker
        residency at ``local_dim * batch`` instead of the high-water mark.
        """
        if batch < 1:
            raise ValueError("batch must be positive")
        if batch == self.batch:
            return False
        slots = self.num_slots
        self._unlink_all()
        self.batch = int(batch)
        self._uid = f"{os.getpid():x}-{secrets.token_hex(4)}"
        self.ensure_slots(slots)
        return True

    # ------------------------------------------------------------------
    def _unlink_all(self) -> None:
        for slot in self._segments:
            for seg in slot:
                try:
                    seg.close()
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        self._segments = []

    def close(self) -> None:
        """Unlink every segment (idempotent)."""
        if not self._closed:
            self._unlink_all()
            self._closed = True

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedWorkspace(shards={self.shards}, dim={self.dim}, "
            f"batch={self.batch}, slots={self.num_slots})"
        )
