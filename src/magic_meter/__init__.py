"""magic-meter: stabilizer entropies, Bell-measurement estimators and
nonstabilizerness diagnostics for small quantum systems."""

from ._guards import CapacityError
from .circuits import (
    Circuit,
    Gate,
    apply_circuit,
    circuit_from_json,
    circuit_from_text,
    circuit_to_json,
    circuit_to_text,
    circuit_unitary,
    doped_clifford_state,
    doped_layered_circuit,
    load_circuit,
    random_clifford_circuit,
    random_rotation_circuit,
)
from .estimators import (
    EstimatorResult,
    bell_distribution,
    estimate_bell_magic,
    estimate_flatness,
    estimate_moment_bell,
    estimate_moment_conjugate,
    estimate_moment_gradient,
    estimate_participation,
    estimate_purity,
    exact_moment_gradient,
    hoeffding_budget,
    renyi_precision_budget,
)
from .experiments import (
    ExperimentConfig,
    RecordRow,
    haar_reference,
    run_preset,
)
from .hamiltonians import (
    PauliSum,
    gue_hamiltonian,
    ising_hamiltonian,
    random_pauli_hamiltonian,
)
from .noise import (
    NoiseKind,
    NoiseModel,
    apply_channel,
    estimate_p_from_purity,
    mitigate_moment,
    mitigate_renyi,
    noisy_circuit_state,
    relative_error_study,
)
from .oracles import (
    BoundsReport,
    bell_magic,
    bounds_report,
    clifford_average_flatness,
    clifford_average_otoc,
    d_min,
    enumerate_stabilizer_states,
    flatness,
    moment_operator,
    otoc,
    participation_entropy,
    pauli_moment,
    renyi_stabilizer_entropy,
    stabilizer_fidelity,
    tsallis_stabilizer_entropy,
    von_neumann_stabilizer_entropy,
)
from .paulis import (
    PauliSpectrum,
    PauliString,
    expectation,
    pauli_from_bits,
    pauli_from_index,
    pauli_from_string,
    pauli_spectrum,
)
from .states import (
    choi_state,
    density_of,
    haar_random_state,
    plus_state,
    purity,
    t_state,
    zero_state,
)

__version__ = "0.1.0"
