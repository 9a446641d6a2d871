"""Per-layer mixer schedules.

The paper's ``simulate()`` accepts either a single mixer, an array of ``p``
mixers (a different mixer in each round), or — for multi-angle QAOA — nested
arrays of mixers with nested angle arrays.  :class:`MixerSchedule` normalizes
those input shapes into one object the simulator can iterate over, and keeps
track of how many angles each layer consumes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import Mixer

__all__ = ["MixerSchedule", "as_schedule"]


class MixerSchedule:
    """An ordered list of per-round mixers with per-round angle counts.

    Parameters
    ----------
    mixers:
        Either a single :class:`~repro.mixers.base.Mixer` (reused every round)
        or a sequence of mixers, one per round.
    rounds:
        Number of QAOA rounds ``p``.  Required when a single mixer is given;
        otherwise inferred from the sequence length.
    """

    def __init__(self, mixers: Mixer | Sequence[Mixer], rounds: int | None = None):
        if isinstance(mixers, Mixer):
            if rounds is None:
                raise ValueError("rounds must be given when a single mixer is supplied")
            if rounds < 1:
                raise ValueError("a QAOA needs at least one round")
            layer_list = [mixers] * rounds
        else:
            layer_list = list(mixers)
            if not layer_list:
                raise ValueError("the mixer schedule must contain at least one mixer")
            if rounds is not None and rounds != len(layer_list):
                raise ValueError(
                    f"rounds={rounds} does not match the {len(layer_list)} mixers supplied"
                )
            for m in layer_list:
                if not isinstance(m, Mixer):
                    raise TypeError(f"expected Mixer instances, got {type(m).__name__}")
        dims = {m.dim for m in layer_list}
        if len(dims) != 1:
            raise ValueError("all mixers in a schedule must act on the same space")
        self.layers: tuple[Mixer, ...] = tuple(layer_list)

    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of rounds."""
        return len(self.layers)

    @property
    def dim(self) -> int:
        """Dimension of the space all mixers act on."""
        return self.layers[0].dim

    @property
    def space(self):
        """The feasible space of the first mixer (shared by all layers)."""
        return self.layers[0].space

    def beta_counts(self) -> list[int]:
        """Number of beta angles consumed by each round (1, or the number of
        terms for a multi-angle layer)."""
        return [mixer.num_angles for mixer in self.layers]

    @property
    def total_betas(self) -> int:
        """Total number of beta angles across all rounds."""
        return sum(self.beta_counts())

    def split_betas(self, betas: np.ndarray) -> list[np.ndarray]:
        """Split a flat beta vector into per-round angle chunks (the beta part
        of :func:`~repro.core.simulator.split_angles_batch`)."""
        from ..core.simulator import split_angles_batch  # core builds on this module

        betas = np.asarray(betas, dtype=np.float64).ravel()
        if betas.size != self.total_betas:
            raise ValueError(f"expected {self.total_betas} beta angles, got {betas.size}")
        rounds, _ = split_angles_batch(np.append(betas, np.zeros(self.p)), self.beta_counts())
        return [chunk[:, 0] for chunk in rounds]

    def initial_state(self, dtype=np.complex128) -> np.ndarray:
        """Initial state proposed by the first mixer in the schedule."""
        return self.layers[0].initial_state(dtype=dtype)

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return self.p

    def __getitem__(self, index: int) -> Mixer:
        return self.layers[index]


def as_schedule(
    mixer: Mixer | Sequence[Mixer] | MixerSchedule,
    p: int | None = None,
    num_angles: int | None = None,
) -> MixerSchedule:
    """A mixer, per-round mixer list or schedule as a :class:`MixerSchedule`.

    A single mixer without ``p`` runs ``num_angles // 2`` rounds (one beta
    and one gamma each); an odd ``num_angles`` cannot be split that way.
    """
    if isinstance(mixer, MixerSchedule):
        return mixer
    if isinstance(mixer, Mixer) and p is None and num_angles is not None:
        if num_angles % 2:
            raise ValueError("cannot infer p from an odd-length angle vector; pass p explicitly")
        p = num_angles // 2
    return MixerSchedule(mixer, rounds=p)
