"""Circuit container for the baseline circuit simulators."""

from __future__ import annotations

from typing import Iterable, Iterator

from .gates import Gate

__all__ = ["Circuit"]


class Circuit:
    """An ordered list of gates on ``n`` qubits.

    This deliberately mirrors the minimal surface a QAOA needs from a circuit
    framework: append gates, iterate them in order, count them and compose
    circuits.  There is no transpilation or optimization — the point of the
    baselines is to measure what a *generic* circuit pipeline costs.
    """

    def __init__(self, n: int, gates: Iterable[Gate] | None = None):
        if n < 1:
            raise ValueError("a circuit needs at least one qubit")
        self.n = int(n)
        self._gates: list[Gate] = []
        if gates is not None:
            for gate in gates:
                self.append(gate)

    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "Circuit":
        """Append a gate (validating qubit indices); returns self for chaining."""
        if not isinstance(gate, Gate):
            raise TypeError(f"expected a Gate, got {type(gate).__name__}")
        for qubit in gate.qubits:
            if not 0 <= qubit < self.n:
                raise ValueError(f"gate {gate.name} targets qubit {qubit} outside 0..{self.n - 1}")
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """Append several gates."""
        for gate in gates:
            self.append(gate)
        return self

    def compose(self, other: "Circuit") -> "Circuit":
        """A new circuit running ``self`` then ``other``."""
        if other.n != self.n:
            raise ValueError("cannot compose circuits with different qubit counts")
        return Circuit(self.n, list(self._gates) + list(other._gates))

    # ------------------------------------------------------------------
    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates, in application order."""
        return tuple(self._gates)

    @property
    def num_gates(self) -> int:
        """Total number of gates."""
        return len(self._gates)

    def num_two_qubit_gates(self) -> int:
        """Number of gates acting on two or more qubits."""
        return sum(1 for g in self._gates if g.num_qubits >= 2)

    def gate_counts(self) -> dict[str, int]:
        """Histogram of gate names."""
        counts: dict[str, int] = {}
        for gate in self._gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        return counts

    def depth(self) -> int:
        """Circuit depth (longest chain of gates sharing qubits)."""
        busy_until = [0] * self.n
        depth = 0
        for gate in self._gates:
            if gate.num_qubits == 0:
                continue
            start = max(busy_until[q] for q in gate.qubits)
            finish = start + 1
            for q in gate.qubits:
                busy_until[q] = finish
            depth = max(depth, finish)
        return depth

    def inverse(self) -> "Circuit":
        """The adjoint circuit (gates reversed and conjugated)."""
        return Circuit(self.n, [g.dagger() for g in reversed(self._gates)])

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Circuit(n={self.n}, gates={self.num_gates}, depth={self.depth()})"
