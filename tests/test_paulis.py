import re

import numpy as np
import pytest

from magic_meter._guards import DENSITY_QUBIT_GUARD
from magic_meter.paulis import (
    all_expectations,
    expectation,
    pauli_from_bits,
    pauli_from_index,
    pauli_from_string,
    pauli_spectrum,
)
from magic_meter.states import haar_random_state, t_state, zero_state
from references import commutes, random_density_matrix

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
_MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(text: str) -> np.ndarray:
    mat = np.array([[1.0]], dtype=complex)
    for c in text:
        mat = np.kron(mat, _MATS[c])
    return mat


def test_bit_pair_convention():
    assert str(pauli_from_bits([0, 0])) == "I"
    assert str(pauli_from_bits([1, 0, 1, 1])) == "ZY"
    assert np.allclose(pauli_from_bits([0, 1]).to_matrix(), X)


@pytest.mark.parametrize(
    "bits, defect",
    [
        ([0, 1, 0], "even length"),
        ([], "even length"),
        ([0, 2], "got 2"),
        # cast to int before the check, these once gave Z and X
        ([1, 0.5], "got 0.5"),
        ([0.7, 1], "got 0.7"),
        ([1.0, 0], "got 1.0"),
        ([True, 0], "got True"),
    ],
)
def test_from_bits_rejects_bad_input(bits, defect):
    with pytest.raises(ValueError, match=re.escape(defect)):
        pauli_from_bits(bits)


def test_string_roundtrip_and_index():
    for text in ("XZI", "Y", "IZYX"):
        p = pauli_from_string(text)
        assert str(p) == text
        assert pauli_from_index(p.index, p.n_qubits) == p
        assert np.allclose(p.to_matrix(), dense(text))


def test_index_ordering_matches_base4_digits():
    # qubit 1 is the most significant base-4 digit with I=0, X=1, Z=2, Y=3
    assert pauli_from_string("I").index == 0
    assert pauli_from_string("X").index == 1
    assert pauli_from_string("Z").index == 2
    assert pauli_from_string("Y").index == 3
    assert pauli_from_string("XZ").index == 4 * 1 + 2


def test_expectation_basics():
    zero = zero_state(1)
    assert expectation(zero, pauli_from_string("Z")) == pytest.approx(1.0)
    assert expectation(zero, pauli_from_string("X")) == pytest.approx(0.0)
    assert expectation(t_state(), pauli_from_string("X")) == pytest.approx(1 / np.sqrt(2))


def test_expectation_density_matches_pure():
    rng = np.random.default_rng(5)
    psi = haar_random_state(2, rng)
    rho = np.outer(psi, psi.conj())
    for idx in range(16):
        p = pauli_from_index(idx, 2)
        assert expectation(rho, p) == pytest.approx(expectation(psi, p), abs=1e-12)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(zero_state(2), pauli_from_string("X"))


def test_product_law_exhaustive_two_qubits():
    # bits XOR must reproduce the dense product up to a global phase
    for i in range(16):
        for j in range(16):
            a, b = pauli_from_index(i, 2), pauli_from_index(j, 2)
            prod = (a * b).to_matrix()
            ref = a.to_matrix() @ b.to_matrix()
            overlap = np.trace(prod.conj().T @ ref) / 4
            assert abs(abs(overlap) - 1) < 1e-12


def test_commutes_matches_dense_exhaustive_two_qubits():
    for i in range(16):
        for j in range(16):
            a, b = pauli_from_index(i, 2), pauli_from_index(j, 2)
            comm = a.to_matrix() @ b.to_matrix() - b.to_matrix() @ a.to_matrix()
            assert commutes(a, b) == (np.max(np.abs(comm)) < 1e-12)


def test_commutes_examples():
    assert not commutes(pauli_from_string("X"), pauli_from_string("Z"))
    assert commutes(pauli_from_string("XX"), pauli_from_string("ZZ"))
    assert commutes(pauli_from_string("IY"), pauli_from_string("ZY"))


def _per_string(state, nq):
    return [expectation(state, pauli_from_index(idx, nq)) for idx in range(4**nq)]


def test_all_expectations_against_direct_loop():
    rng = np.random.default_rng(11)
    for nq in (1, 2, 3):
        for _ in range(5):
            psi = haar_random_state(nq, rng)
            np.testing.assert_allclose(
                all_expectations(psi), _per_string(psi, nq), rtol=0, atol=1e-13
            )


def test_all_expectations_density_input():
    rng = np.random.default_rng(12)
    for nq in (1, 2, 3):
        for rank in sorted({1, 2, 1 << nq}):
            for _ in range(3):
                rho = random_density_matrix(nq, rng, rank=rank)
                np.testing.assert_allclose(
                    all_expectations(rho), _per_string(rho, nq), rtol=0, atol=1e-13
                )


def _real_states(nq: int) -> dict[str, np.ndarray]:
    """A float64 statevector, an integer basis-state vector and, up to the
    density guard, a real density matrix of nq qubits."""
    rng = np.random.default_rng(nq)
    dim = 1 << nq
    vector = rng.normal(size=dim)
    basis = np.zeros(dim, dtype=np.int64)
    basis[rng.integers(dim)] = 1
    states = {"float": vector / np.linalg.norm(vector), "integer": basis}
    if nq <= DENSITY_QUBIT_GUARD:
        g = rng.normal(size=(dim, dim))
        rho = g @ g.T
        states["density"] = rho / np.trace(rho)
    return states


@pytest.mark.parametrize("nq", range(1, 10))
def test_real_and_integer_states_give_their_complex_copys_spectrum(nq):
    # up to 8 qubits a one-block chunk was transformed in the array its rows
    # call returned, so a real state raised a complex -> float64 cast error and
    # an integer one a kron_products dtype error
    for kind, state in _real_states(nq).items():
        spectrum = all_expectations(state)
        assert np.array_equal(spectrum, all_expectations(state.astype(complex))), kind


def test_spectrum_zero_state():
    spec = pauli_spectrum(zero_state(1))
    assert spec[pauli_from_string("I")] == pytest.approx(0.5)
    assert spec[pauli_from_string("Z")] == pytest.approx(0.5)
    assert spec[pauli_from_string("X")] == pytest.approx(0.0)
    assert spec[pauli_from_string("Y")] == pytest.approx(0.0)


def test_spectrum_t_state():
    spec = pauli_spectrum(t_state())
    assert spec[pauli_from_string("I")] == pytest.approx(0.5)
    assert spec[pauli_from_string("X")] == pytest.approx(0.25)
    assert spec[pauli_from_string("Y")] == pytest.approx(0.25)
    assert spec[pauli_from_string("Z")] == pytest.approx(0.0, abs=1e-12)


def test_spectrum_reads_a_string_of_its_width_or_an_index_in_range():
    spec = pauli_spectrum(t_state(2))
    assert spec[pauli_from_string("IX")] == pytest.approx(0.125)
    assert spec[pauli_from_string("IX").index] == pytest.approx(0.125)
    assert spec[np.int64(15)] == spec.probability(pauli_from_string("YY"))


@pytest.mark.parametrize(
    "key, words",
    [
        (pauli_from_string("X"), "X has 1 qubits, the spectrum 2"),  # once read as IX
        (pauli_from_string("XXX"), "XXX has 3 qubits"),
        (-1, r"integer in \[0, 16\), got -1"),  # once the last entry
        (True, "got True"),  # once index 1
        (16, "got 16"),  # once numpy's IndexError
        (1.0, "got 1.0"),
        ("1", "got '1'"),
    ],
)
def test_spectrum_refuses_a_key_of_another_width_or_out_of_range(key, words):
    spec = pauli_spectrum(t_state(2))
    with pytest.raises(ValueError, match=words):
        spec.probability(key)
    with pytest.raises(ValueError, match=words):
        spec[key]


def test_spectrum_stabilizer_support():
    # stabilizer states put weight 2^-N on exactly 2^N strings
    from magic_meter.circuits import apply_circuit, random_clifford_circuit

    rng = np.random.default_rng(21)
    for nq in (1, 2, 3):
        psi = apply_circuit(random_clifford_circuit(nq, 2 * nq, rng))
        probs = pauli_spectrum(psi).probabilities
        heavy = probs > 1e-10
        assert heavy.sum() == 2**nq
        assert np.allclose(probs[heavy], 2.0**-nq, atol=1e-10)


def test_spectrum_normalization_random_states():
    rng = np.random.default_rng(7)
    for _ in range(200):
        nq = int(rng.integers(1, 6))
        spec = pauli_spectrum(haar_random_state(nq, rng))
        assert spec.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(spec.probabilities >= 0)


def test_purity_identity_mixed_states():
    rng = np.random.default_rng(8)
    for nq in (1, 2, 3):
        rho = random_density_matrix(nq, rng)
        table = all_expectations(rho)
        assert np.sum(table**2) / 2**nq == pytest.approx(
            float(np.real(np.trace(rho @ rho))), abs=1e-9
        )
