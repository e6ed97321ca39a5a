"""Every size guard raises CapacityError one step past its limit, before
any large allocation.

The arguments are built before allocations are traced; the guarded call may
then allocate at most 1 MB, where most over-guard objects take from 2 MB (a
9-qubit Pauli spectrum) to 1 GB (a 2 x 13-qubit Bell register)."""
import tracemalloc

import numpy as np
import pytest

from magic_meter import CapacityError, _guards
from magic_meter.circuits import Circuit, apply_circuit, circuit_unitary
from magic_meter.estimators import bell_distribution
from magic_meter.hamiltonians import Evolver, PauliSum
from magic_meter.noise import NoiseKind, NoiseModel, noisy_circuit_state
from magic_meter.oracles import (
    bell_magic,
    enumerate_stabilizer_states,
    moment_operator,
    pauli_moment,
)
from magic_meter.paulis import PauliString, all_expectations


def _vector(n):
    return np.zeros(1 << n, dtype=complex)


def _matrix(n):
    return np.zeros((1 << n, 1 << n), dtype=complex)


# guard name -> entry point -> (function, its arguments at a given width,
# a word the error message must contain)
OVER_GUARD = {
    "STATEVECTOR_QUBIT_GUARD": {
        "apply_circuit": (apply_circuit, lambda n: (Circuit(n),), "statevector"),
        "all_expectations": (all_expectations, lambda n: (_vector(n),), "Pauli spectrum"),
        "pauli_moment_pure": (pauli_moment, lambda n: (_vector(n), 2), "Pauli spectrum"),
        "bell_distribution_pure": (
            bell_distribution,
            lambda n: (_vector(n), _vector(n)),
            "Bell register",
        ),
    },
    "DENSITY_QUBIT_GUARD": {
        "noisy_circuit_state": (
            noisy_circuit_state,
            lambda n: (Circuit(n), NoiseModel(NoiseKind.DEPHASING, 0.1)),
            "density-matrix",
        ),
        "all_expectations_density": (all_expectations, lambda n: (_matrix(n),), "density-matrix"),
        "pauli_moment_density": (pauli_moment, lambda n: (_matrix(n), 2), "density-matrix"),
        "bell_distribution_mixed": (
            bell_distribution,
            lambda n: (_matrix(n), _matrix(n)),
            "density-matrix",
        ),
    },
    "UNITARY_QUBIT_GUARD": {
        "circuit_unitary": (circuit_unitary, lambda n: (Circuit(n),), "unitaries"),
        # far past the guard: a 20-qubit unitary would take 16 TB
        "circuit_unitary_20_qubits": (circuit_unitary, lambda n: (Circuit(20),), "unitaries"),
        "pauli_to_matrix": (
            PauliString.to_matrix,
            lambda n: (PauliString(0, 1, n),),
            "Pauli matrices",
        ),
        "evolver": (
            Evolver,
            lambda n: (PauliSum(((1.0, PauliString(0, 1, n)),), n),),
            "evolution",
        ),
    },
    "BELL_MAGIC_QUBIT_GUARD": {
        "bell_magic": (bell_magic, lambda n: (_vector(n),), "Bell magic"),
    },
    "STABILIZER_ENUM_GUARD": {
        "enumerate_stabilizer_states": (
            enumerate_stabilizer_states,
            lambda n: (n,),
            "enumeration",
        ),
    },
    "GAMMA_COPY_GUARD": {
        "moment_operator": (moment_operator, lambda n: (n,), "moment operator"),
    },
}

ENTRIES = {
    entry: (name, *call) for name, calls in OVER_GUARD.items() for entry, call in calls.items()
}


def test_every_guard_has_an_entry():
    limits = {name for name in vars(_guards) if name.endswith("_GUARD")}
    assert set(OVER_GUARD) == limits


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_guard_plus_one_raises_capacity_error_before_allocating(entry):
    name, function, arguments, word = ENTRIES[entry]
    guard = getattr(_guards, name)
    args = arguments(guard + 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as raised:
            function(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word in str(raised.value)
    assert f"guarded to {guard}" in str(raised.value)
    assert peak < 1 << 20
