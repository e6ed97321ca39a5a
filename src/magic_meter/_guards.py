"""Capacity guards: every size limit of the brute-force kernels and the one
check that enforces them before anything large is allocated."""
from __future__ import annotations

STATEVECTOR_QUBIT_GUARD = 12  # statevectors, pure-state Pauli spectra, 2 x N-qubit Bell registers
DENSITY_QUBIT_GUARD = 8  # density matrices, their Pauli spectra and mixed Bell sampling
UNITARY_QUBIT_GUARD = 10  # dense 2^N x 2^N unitaries: 16 MB at the guard
BELL_MAGIC_QUBIT_GUARD = 8
STABILIZER_ENUM_GUARD = 3
GAMMA_COPY_GUARD = 4  # moment index n of the dense 2n-copy moment operator


class CapacityError(ValueError):
    """The request exceeds the configured brute-force size guards."""


def check_capacity(value: int, limit: int, what: str) -> None:
    """Raise CapacityError naming ``what`` and ``limit`` when value > limit."""
    if value > limit:
        raise CapacityError(f"{what}: {value} requested, guarded to {limit}")
