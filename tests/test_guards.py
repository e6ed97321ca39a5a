"""Every size guard raises CapacityError one step past its limit, before
any large allocation, and every integer argument refuses a float, a bool and
a value below its least.

The arguments are built before allocations are traced; the guarded call may
then allocate at most 1 MB, where most over-guard objects take from 2 MB (a
9-qubit Pauli spectrum) to 1 GB (a 2 x 13-qubit Bell register)."""
import tracemalloc
from argparse import Namespace

import numpy as np
import pytest

from magic_meter import CapacityError, _guards
from magic_meter.circuits import Circuit, apply_circuit, circuit_unitary, random_rotation_circuit
from magic_meter.cli import _resolve_state
from magic_meter.estimators import (
    bell_distribution,
    estimate_bell_magic,
    estimate_flatness,
    estimate_moment_bell,
    estimate_moment_conjugate,
    estimate_moment_gradient,
    estimate_participation,
    exact_moment_gradient,
    renyi_precision_budget,
)
from magic_meter.experiments import ExperimentConfig, _resolve, haar_reference
from magic_meter.hamiltonians import (
    Evolver,
    PauliSum,
    gue_hamiltonian,
    ising_hamiltonian,
    random_pauli_hamiltonian,
)
from magic_meter.noise import NoiseKind, NoiseModel, noisy_circuit_state
from magic_meter.oracles import (
    bell_magic,
    bounds_from_moment,
    enumerate_stabilizer_states,
    moment_operator,
    otoc,
    pauli_moment,
)
from magic_meter.paulis import PauliString, all_expectations, pauli_from_index
from magic_meter.states import haar_random_state, plus_state, t_state, zero_state


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


_ROTATIONS = random_rotation_circuit(2, 1, 0)

# entry point -> (function of the integer argument, argument name, least value)
_INTEGER_ARGUMENTS = {
    "estimate_moment_bell-n": (lambda v: estimate_moment_bell(t_state(1), v, 10, 0), "n", 1),
    "estimate_moment_gradient-n": (lambda v: estimate_moment_gradient(_ROTATIONS, 0, v, 10, 0), "n", 1),
    "exact_moment_gradient-n": (lambda v: exact_moment_gradient(_ROTATIONS, 0, v), "n", 1),
    "moment_operator-n": (moment_operator, "n", 1),
    "otoc-n": (lambda v: otoc(np.eye(2), PauliString(0, 1, 1), PauliString(1, 0, 1), v), "n", 1),
    "estimate_moment_conjugate-n": (lambda v: estimate_moment_conjugate(t_state(1), v, 10, 0), "n", 2),
    "renyi_precision_budget-n": (lambda v: renyi_precision_budget(0.1, v, 0.01), "n", 2),
    "bounds_from_moment-n": (lambda v: bounds_from_moment(0.5, v), "n", 2),
    "estimate_moment_bell-repetitions": (lambda v: estimate_moment_bell(t_state(1), 3, v, 0), "repetitions", 1),
    "estimate_moment_conjugate-repetitions": (
        lambda v: estimate_moment_conjugate(t_state(1), 2, v, 0), "repetitions", 1,
    ),
    "estimate_moment_gradient-repetitions": (
        lambda v: estimate_moment_gradient(_ROTATIONS, 0, 3, v, 0), "repetitions", 1,
    ),
    "estimate_bell_magic-repetitions": (lambda v: estimate_bell_magic(t_state(1), v, 0), "repetitions", 1),
    "estimate_participation-q": (lambda v: estimate_participation(t_state(1), v, 10, 0), "q", 2),
    "estimate_participation-shots": (lambda v: estimate_participation(t_state(1), 2, v, 0), "shots", 2),
    # the whole budget is named, not the half that a participation estimator gets
    "estimate_flatness-shots": (lambda v: estimate_flatness(t_state(1), v, 0), "shots", 6),
    "random_pauli_hamiltonian-n_terms": (lambda v: random_pauli_hamiltonian(2, v, 0), "n_terms", 1),
    "random_pauli_hamiltonian-n_qubits": (lambda v: random_pauli_hamiltonian(v, 1, 0), "n_qubits", 1),
    "gue_hamiltonian-n_qubits": (lambda v: gue_hamiltonian(v, 0), "n_qubits", 1),
    "ising_hamiltonian-n_qubits": (lambda v: ising_hamiltonian(v, 0.2, 1.0, 0), "n_qubits", 2),
    "haar_reference-n": (lambda v: haar_reference(2, v, 10, 0), "n", 2),
    "haar_reference-samples": (lambda v: haar_reference(2, 2, v, 0), "samples", 2),
    "zero_state-n_qubits": (zero_state, "n_qubits", 1),
    "plus_state-n_qubits": (plus_state, "n_qubits", 1),
    "t_state-n_qubits": (t_state, "n_qubits", 1),
    "haar_random_state-n_qubits": (lambda v: haar_random_state(v, 0), "n_qubits", 1),
    "PauliString-z": (lambda v: PauliString(v, 0, 1), "z", 0),
    "PauliString-x": (lambda v: PauliString(0, v, 1), "x", 0),
    "PauliString-n_qubits": (lambda v: PauliString(0, 0, v), "n_qubits", 1),
    "pauli_from_index-index": (lambda v: pauli_from_index(v, 1), "index", 0),
    "pauli_from_index-n_qubits": (lambda v: pauli_from_index(0, v), "n_qubits", 1),
    "config-instances": (
        lambda v: _resolve(ExperimentConfig("gue_time_sweep", params={"instances": v})), "instances", 1,
    ),
    "config-tgates": (
        lambda v: _resolve(ExperimentConfig("scrambling_depth_sweep", params={"tgates": (0, v)})), "tgates", 0,
    ),
    "cli-qubits": (
        lambda v: _resolve_state(Namespace(circuit=None, state="zero", qubits=v, seed=0)), "--qubits", 1,
    ),
}


@pytest.mark.parametrize("value", [2.5, 3.0, True, "least - 1"])
@pytest.mark.parametrize("entry", sorted(_INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_floats_bools_and_values_below_their_least(entry, value):
    # unchecked, most of these leaked a numpy TypeError or named no argument
    function, name, least = _INTEGER_ARGUMENTS[entry]
    value = least - 1 if value == "least - 1" else value
    with pytest.raises(ValueError, match=f"{name} must be an integer of at least {least}, got {value!r}"):
        function(value)
