"""Every size guard raises CapacityError one step past its limit, before
any large allocation.

The arguments are built before allocations are traced; the guarded call may
then allocate at most 1 MB, where most over-guard objects take from 2 MB (a
9-qubit Pauli spectrum) to 1 GB (a 2 x 13-qubit Bell register)."""
import tracemalloc

import numpy as np
import pytest

from magic_meter.circuits import Circuit, apply_circuit, circuit_unitary
from magic_meter.estimators import bell_distribution
from magic_meter.hamiltonians import Evolver, PauliSum
from magic_meter.noise import NoiseKind, NoiseModel, noisy_circuit_state
from magic_meter.oracles import (
    BELL_MAGIC_QUBIT_GUARD,
    GAMMA_COPY_GUARD,
    STABILIZER_ENUM_GUARD,
    bell_magic,
    enumerate_stabilizer_states,
    moment_operator,
    pauli_moment,
)
from magic_meter.paulis import SPECTRUM_QUBIT_GUARD, CapacityError, PauliString, all_expectations
from magic_meter.states import DENSITY_QUBIT_GUARD, STATEVECTOR_QUBIT_GUARD, UNITARY_QUBIT_GUARD


def _vector(n):
    return np.zeros(1 << n, dtype=complex)


def _matrix(n):
    return np.zeros((1 << n, 1 << n), dtype=complex)


# entry point -> (guard, function, its arguments at a given width)
OVER_GUARD = {
    "apply_circuit": (STATEVECTOR_QUBIT_GUARD, apply_circuit, lambda n: (Circuit(n),)),
    "circuit_unitary": (UNITARY_QUBIT_GUARD, circuit_unitary, lambda n: (Circuit(n),)),
    "noisy_circuit_state": (
        DENSITY_QUBIT_GUARD,
        noisy_circuit_state,
        lambda n: (Circuit(n), NoiseModel(NoiseKind.DEPHASING, 0.1)),
    ),
    "all_expectations": (SPECTRUM_QUBIT_GUARD, all_expectations, lambda n: (_vector(n),)),
    "pauli_moment_pure": (SPECTRUM_QUBIT_GUARD, pauli_moment, lambda n: (_vector(n), 2)),
    "pauli_moment_density": (DENSITY_QUBIT_GUARD, pauli_moment, lambda n: (_matrix(n), 2)),
    "bell_distribution_pure": (
        STATEVECTOR_QUBIT_GUARD,
        bell_distribution,
        lambda n: (_vector(n), _vector(n)),
    ),
    "bell_distribution_mixed": (
        DENSITY_QUBIT_GUARD,
        bell_distribution,
        lambda n: (_matrix(n), _matrix(n)),
    ),
    "bell_magic": (BELL_MAGIC_QUBIT_GUARD, bell_magic, lambda n: (_vector(n),)),
    "pauli_to_matrix": (
        UNITARY_QUBIT_GUARD,
        PauliString.to_matrix,
        lambda n: (PauliString(0, 1, n),),
    ),
    "evolver": (
        UNITARY_QUBIT_GUARD,
        Evolver,
        lambda n: (PauliSum(((1.0, PauliString(0, 1, n)),), n),),
    ),
    "enumerate_stabilizer_states": (
        STABILIZER_ENUM_GUARD,
        enumerate_stabilizer_states,
        lambda n: (n,),
    ),
    "moment_operator": (GAMMA_COPY_GUARD, moment_operator, lambda n: (n,)),
}


@pytest.mark.parametrize("entry", sorted(OVER_GUARD))
def test_guard_plus_one_raises_capacity_error_before_allocating(entry):
    guard, function, arguments = OVER_GUARD[entry]
    args = arguments(guard + 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=str(guard)):
            function(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
