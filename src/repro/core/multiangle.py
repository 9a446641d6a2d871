"""Multi-angle QAOA helpers.

Multi-angle QAOA (Herrman et al. 2021, reference [21] of the paper) assigns an
independent mixer angle to every term of the mixer Hamiltonian in every round
(and, in full generality, an independent phase angle to every cost term; here
we follow the paper's package and vary the mixer angles).  The simulator
supports it through :class:`~repro.mixers.xmixer.MultiAngleXMixer` layers in a
:class:`~repro.mixers.schedules.MixerSchedule`; the helpers below build those
schedules and pack/unpack the nested angle arrays of the paper's Listing 3
into the flat layout the optimizers use.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..mixers.schedules import MixerSchedule
from ..mixers.xmixer import MultiAngleXMixer
from .simulator import split_angles_batch

__all__ = [
    "multi_angle_schedule",
    "pack_angles",
    "unpack_angles",
    "num_multi_angles",
]


def multi_angle_schedule(
    n: int, p: int, terms: Sequence[Sequence[int]] | None = None
) -> MixerSchedule:
    """A ``p``-round schedule in which every round is a multi-angle X mixer.

    ``terms`` defaults to the transverse-field terms ``[(0,), (1,), ..., (n-1,)]``,
    i.e. one independent angle per qubit per round.
    """
    if terms is None:
        terms = [(q,) for q in range(n)]
    mixer = MultiAngleXMixer(n, terms)
    return MixerSchedule([mixer] * p)


def num_multi_angles(schedule: MixerSchedule) -> int:
    """Total number of angles (betas plus gammas) a schedule consumes."""
    return schedule.total_betas + schedule.p


def pack_angles(betas_per_round: Sequence[Sequence[float]], gammas: Sequence[float]) -> np.ndarray:
    """Flatten nested per-round beta lists plus gammas into the simulator's layout."""
    flat_betas = [float(b) for round_betas in betas_per_round for b in np.atleast_1d(round_betas)]
    gammas = [float(g) for g in gammas]
    if len(betas_per_round) != len(gammas):
        raise ValueError(f"got {len(betas_per_round)} beta rounds but {len(gammas)} gammas")
    return np.array(flat_betas + gammas, dtype=np.float64)


def unpack_angles(
    angles: np.ndarray, schedule: MixerSchedule
) -> tuple[list[np.ndarray], np.ndarray]:
    """Inverse of :func:`pack_angles` for a given schedule (one row of
    :func:`~repro.core.simulator.split_angles_batch`, which checks the length)."""
    angles = np.asarray(angles, dtype=np.float64).ravel()
    betas, gammas = split_angles_batch(angles, schedule.beta_counts())
    return [chunk[:, 0] for chunk in betas], gammas[:, 0]
