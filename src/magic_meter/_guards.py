"""Argument guards: every size limit of the brute-force kernels and the one
check that enforces them before anything large is allocated, the one integer
rule and its check, and the finite-real predicate."""
from __future__ import annotations

import math
import numbers

STATEVECTOR_QUBIT_GUARD = 12  # statevectors, pure-state Pauli spectra and Bell distributions (4^N outcomes)
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


def is_integer(value) -> bool:
    """The one integer rule: an integral number, numpy's included; a bool or
    an integral float such as 3.0 is no integer."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer(value, name: str, least: int, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless value is an integer
    (``is_integer``) of at least ``least``."""
    if not (is_integer(value) and value >= least):
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")


def finite_real(value) -> bool:
    """A real number, not a bool, that a float holds finitely."""
    try:
        return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False
