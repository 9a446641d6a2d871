"""HPC helpers: state-space partitioning, worker pools, memory accounting.

The statevector and its objective precompute are distributed across shard
worker processes by :mod:`repro.hpc.sharded`.
"""

from .memory import (
    dense_unitary_bytes,
    eigendecomposition_bytes,
    measure_peak_allocation,
    rss_bytes,
    simulator_memory_estimate,
    statevector_bytes,
)
from .parallel import default_workers, parallel_imap_unordered
from .partition import Chunk, chunk_labels, split_dicke_space, split_full_space, split_range

__all__ = [
    "dense_unitary_bytes",
    "eigendecomposition_bytes",
    "measure_peak_allocation",
    "rss_bytes",
    "simulator_memory_estimate",
    "statevector_bytes",
    "default_workers",
    "parallel_imap_unordered",
    "Chunk",
    "chunk_labels",
    "split_dicke_space",
    "split_full_space",
    "split_range",
]
