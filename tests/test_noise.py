import numpy as np
import pytest

from magic_meter.circuits import doped_layered_circuit, random_clifford_circuit
from magic_meter.noise import (
    NoiseKind,
    NoiseModel,
    apply_channel,
    estimate_p_from_purity,
    mitigate_moment,
    mitigate_renyi,
    mitigate_tsallis,
    noisy_circuit_state,
    relative_error_study,
)
from magic_meter.oracles import pauli_moment, renyi_stabilizer_entropy, tsallis_stabilizer_entropy
from magic_meter.states import (
    basis_state,
    density_of,
    haar_random_state,
    purity,
    random_density_matrix,
    t_state,
)

ALL_KINDS = [
    NoiseKind.GLOBAL_DEPOLARIZING,
    NoiseKind.LOCAL_DEPOLARIZING,
    NoiseKind.DEPHASING,
    NoiseKind.AMPLITUDE_DAMPING,
]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_channels_trace_and_positivity(kind):
    rng = np.random.default_rng(0)
    rho = random_density_matrix(3, rng)
    out = apply_channel(rho, NoiseModel(kind, 0.3))
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(out - out.conj().T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(out)) > -1e-9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_zero_strength_is_identity(kind):
    rng = np.random.default_rng(1)
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply_channel(rho, NoiseModel(kind, 0.0)), rho, atol=1e-12)


def test_global_depolarizing_purity_formula():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        psi = haar_random_state(n, rng)
        for p in (0.05, 0.2, 0.6):
            rho = apply_channel(density_of(psi), NoiseModel(NoiseKind.GLOBAL_DEPOLARIZING, p))
            expected = (1 - p) ** 2 + (2 * (1 - p) * p + p**2) / 2**n
            assert purity(rho) == pytest.approx(expected, abs=1e-10)


def test_dephasing_matches_formula():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(1, rng)
    p = 0.25
    z = np.diag([1.0, -1.0]).astype(complex)
    ref = (1 - p) * rho + p * z @ rho @ z
    assert np.allclose(apply_channel(rho, NoiseModel(NoiseKind.DEPHASING, p)), ref, atol=1e-12)


def test_local_depolarizing_single_qubit_replacement():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(1, rng)
    p = 0.3
    ref = (1 - p) * rho + p * np.eye(2) / 2
    out = apply_channel(rho, NoiseModel(NoiseKind.LOCAL_DEPOLARIZING, p))
    assert np.allclose(out, ref, atol=1e-12)


def test_amplitude_damping_full_decay():
    one = density_of(basis_state(1, 1))
    out = apply_channel(one, NoiseModel(NoiseKind.AMPLITUDE_DAMPING, 1.0))
    assert np.allclose(out, density_of(basis_state(0, 1)), atol=1e-12)


def test_channel_on_selected_qubits_only():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(2, rng)
    out = apply_channel(rho, NoiseModel(NoiseKind.DEPHASING, 0.4), qubits=[2])
    # dephasing qubit 2 must keep the reduced state of qubit 1 intact
    red1 = out.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    ref1 = rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    assert np.allclose(red1, ref1, atol=1e-12)
    with pytest.raises(ValueError):
        apply_channel(rho, NoiseModel(NoiseKind.DEPHASING, 0.4), qubits=[3])


def test_noisy_circuit_state_noiseless_matches_pure():
    rng = np.random.default_rng(6)
    circ = random_clifford_circuit(3, 4, rng)
    rho = noisy_circuit_state(circ, NoiseModel(NoiseKind.DEPHASING, 0.0))
    from magic_meter.circuits import apply_circuit

    psi = apply_circuit(circ)
    assert np.allclose(rho, density_of(psi), atol=1e-10)


def test_noisy_circuit_purity_decreases_with_p():
    rng = np.random.default_rng(7)
    circ = random_clifford_circuit(3, 5, rng)
    purities = [
        purity(noisy_circuit_state(circ, NoiseModel(NoiseKind.LOCAL_DEPOLARIZING, p)))
        for p in (0.01, 0.05, 0.1)
    ]
    assert purities[0] > purities[1] > purities[2]
    moment = pauli_moment(noisy_circuit_state(circ, NoiseModel(NoiseKind.DEPHASING, 0.05)), 2)
    assert moment <= 1.0 + 1e-12


def test_estimate_p_round_trip():
    rng = np.random.default_rng(8)
    psi = haar_random_state(3, rng)
    for p in (0.0, 0.1, 0.45):
        rho = apply_channel(density_of(psi), NoiseModel(NoiseKind.GLOBAL_DEPOLARIZING, p))
        assert estimate_p_from_purity(purity(rho), 3) == pytest.approx(p, abs=1e-10)
    assert estimate_p_from_purity(1.0, 4) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        estimate_p_from_purity(2.0**-3, 3)


def test_mitigation_identity_at_zero_noise():
    assert mitigate_moment(0.42, 0.0, 2, 3) == pytest.approx(0.42)
    assert mitigate_tsallis(0.1, 0.0, 2, 3) == pytest.approx(0.1)


def depolarized_moment(moment_pure: float, p: float, n: int, n_qubits: int) -> float:
    """Forward map: the moment of (1-p) psi + p I/2^N given the pure moment."""
    shrink = (1.0 - p) ** (2 * n)
    return shrink * moment_pure + (1.0 - shrink) / 2**n_qubits


def test_mitigation_round_trip_exact():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        psi = haar_random_state(3, rng)
        m_pure = pauli_moment(psi, n)
        for p in (0.05, 0.1, 0.2):
            rho = apply_channel(density_of(psi), NoiseModel(NoiseKind.GLOBAL_DEPOLARIZING, p))
            m_noisy = pauli_moment(rho, n)
            assert m_noisy == pytest.approx(depolarized_moment(m_pure, p, n, 3), abs=1e-12)
            assert mitigate_moment(m_noisy, p, n, 3) == pytest.approx(m_pure, abs=1e-10)


def test_mitigate_t_state_example():
    rho = apply_channel(density_of(t_state()), NoiseModel(NoiseKind.GLOBAL_DEPOLARIZING, 0.1))
    noisy = pauli_moment(rho, 2)
    assert mitigate_moment(noisy, 0.1, 2, 1) == pytest.approx(0.75, abs=1e-12)


def test_mitigate_tsallis_and_renyi_consistency():
    rng = np.random.default_rng(10)
    psi = haar_random_state(2, rng)
    p, n = 0.15, 3
    rho = apply_channel(density_of(psi), NoiseModel(NoiseKind.GLOBAL_DEPOLARIZING, p))
    t_noisy = tsallis_stabilizer_entropy(rho, n)
    assert mitigate_tsallis(t_noisy, p, n, 2) == pytest.approx(
        tsallis_stabilizer_entropy(psi, n), abs=1e-10
    )
    m_noisy = pauli_moment(rho, n)
    assert mitigate_renyi(m_noisy, p, n, 2) == pytest.approx(
        renyi_stabilizer_entropy(psi, n), abs=1e-10
    )


def test_mitigate_renyi_flags_nonpositive_moment():
    assert mitigate_renyi(0.01, 0.5, 3, 2) is None


def test_mitigation_rejects_p_one():
    with pytest.raises(ValueError):
        mitigate_moment(0.5, 1.0, 2, 2)


def test_relative_error_study_global_noise_is_exact():
    rng = np.random.default_rng(11)
    circs = [doped_layered_circuit(3, 4, 3, rng) for _ in range(3)]
    # under the true global model the mitigation is exact: ratio ~ 0
    records = []
    for inst, c in enumerate(circs):
        from magic_meter.circuits import apply_circuit

        psi = apply_circuit(c)
        m_pure = renyi_stabilizer_entropy(psi, 2)
        rho = apply_channel(density_of(psi), NoiseModel(NoiseKind.GLOBAL_DEPOLARIZING, 0.1))
        m_unmtg = renyi_stabilizer_entropy(rho, 2)
        p_hat = estimate_p_from_purity(purity(rho), 3)
        m_mtg = mitigate_renyi(pauli_moment(rho, 2), p_hat, 2, 3)
        assert abs(m_mtg - m_pure) < 1e-8
        assert abs(m_unmtg - m_pure) > 1e-3
        records.append(inst)


def test_noise_study_csv_columns():
    from magic_meter.noise import NOISE_STUDY_CSV_HEADER, noise_study_csv

    rng = np.random.default_rng(13)
    circs = [doped_layered_circuit(2, 3, 1, rng)]
    records = relative_error_study(circs, NoiseKind.AMPLITUDE_DAMPING, [0.01], n=2)
    text = noise_study_csv(records)
    lines = text.strip().splitlines()
    assert lines[0] == NOISE_STUDY_CSV_HEADER == "model,p,N,n,instance,impurity,err_unmtg,err_mtg,ratio"
    assert lines[1].startswith("amplitude_damping,0.01,2,2,0,")
    assert len(lines[1].split(",")) == 9


def test_relative_error_study_records():
    rng = np.random.default_rng(12)
    circs = [doped_layered_circuit(3, 4, 3, rng) for _ in range(2)]
    records = relative_error_study(circs, NoiseKind.DEPHASING, [0.0, 0.002, 0.01], n=2)
    assert len(records) == 6
    for rec in records:
        if rec.p == 0.0:
            assert rec.ratio is None  # both errors vanish
        else:
            assert rec.impurity > 0
            assert rec.ratio is not None
    improved = [r for r in records if r.ratio is not None]
    assert any(r.ratio < 1 for r in improved)
