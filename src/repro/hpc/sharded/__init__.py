"""Sharded statevector execution: shard workers + shared-memory segments.

Public surface:

* :class:`~repro.hpc.sharded.workspace.ShardedWorkspace` — owns the
  per-shard shared-memory state buffers (the sharded analogue of
  ``BatchedWorkspace``).
* :class:`~repro.hpc.sharded.executor.ShardedExecutor` — the
  coordinator/worker engine (forward evolution, fused adjoint gradients,
  reductions, sampling, checkpoints).
* :class:`~repro.hpc.sharded.ansatz.ShardedAnsatz` — the dense-ansatz
  protocol facade the angle strategies drive.
"""

from .ansatz import ShardedAnsatz, ShardedSimulation
from .executor import ShardedExecutionError, ShardedExecutor
from .workspace import ShardedWorkspace, attach_segment

__all__ = [
    "ShardedAnsatz",
    "ShardedSimulation",
    "ShardedExecutor",
    "ShardedExecutionError",
    "ShardedWorkspace",
    "attach_segment",
]
