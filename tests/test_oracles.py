import numpy as np
import pytest

from magic_meter.circuits import (
    SINGLE_QUBIT_CLIFFORDS,
    Circuit,
    apply_circuit,
    circuit_unitary,
    gate_t,
    random_clifford_circuit,
    random_rotation_circuit,
)
from magic_meter.estimators import bell_distribution, estimate_moment_conjugate, estimate_participation
from magic_meter.oracles import (
    bell_magic,
    bounds_from_moment,
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
from magic_meter.paulis import expectation, pauli_from_index, pauli_from_string, pauli_spectrum
from magic_meter.states import choi_state, haar_random_state, n_qubits_of, t_state, zero_state
from references import commutes

RNG = np.random.default_rng(20)


def brute_force_moment(psi: np.ndarray, n: int) -> float:
    """Literal 4^N-term sum via single-string expectation values."""
    nq = int(np.log2(psi.shape[0]))
    total = 0.0
    for idx in range(4**nq):
        total += expectation(psi, pauli_from_index(idx, nq)) ** (2 * n)
    return total / 2**nq


def test_moment_matches_literal_sum():
    for nq in (1, 2, 3):
        psi = haar_random_state(nq, RNG)
        for n in (1, 2, 3):
            assert pauli_moment(psi, n) == pytest.approx(brute_force_moment(psi, n), abs=1e-10)


def test_moment_stabilizer_states():
    for n in (1, 2, 3, 4):
        assert pauli_moment(zero_state(3), n) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(1)
    psi = apply_circuit(random_clifford_circuit(4, 8, rng))
    assert pauli_moment(psi, 3) == pytest.approx(1.0, abs=1e-10)


def test_moment_t_state_values():
    # <X> = <Y> = 2^-1/2, so A_n = (1 + 2 (1/2)^n) / 2
    assert pauli_moment(t_state(), 2) == pytest.approx(3 / 4, abs=1e-12)
    assert pauli_moment(t_state(), 3) == pytest.approx(5 / 8, abs=1e-12)
    assert pauli_moment(t_state(), 4) == pytest.approx(9 / 16, abs=1e-12)


def test_moment_multiplicative_under_tensor():
    psi = np.kron(t_state(), zero_state(1))
    assert pauli_moment(psi, 2) == pytest.approx(3 / 4, abs=1e-12)
    a = haar_random_state(2, RNG)
    b = haar_random_state(1, RNG)
    for n in (2, 3):
        assert pauli_moment(np.kron(a, b), n) == pytest.approx(
            pauli_moment(a, n) * pauli_moment(b, n), abs=1e-9
        )


def test_moment_monotone_in_n():
    psi = haar_random_state(3, RNG)
    values = [pauli_moment(psi, n) for n in (1, 2, 3, 4)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_entropies_t_state():
    assert renyi_stabilizer_entropy(t_state(), 2) == pytest.approx(np.log(4 / 3), abs=1e-12)
    assert tsallis_stabilizer_entropy(t_state(), 2) == pytest.approx(0.25, abs=1e-12)


def test_entropies_zero_for_stabilizers():
    rng = np.random.default_rng(2)
    psi = apply_circuit(random_clifford_circuit(3, 6, rng))
    for n in (1, 2, 3):
        assert renyi_stabilizer_entropy(psi, n) == pytest.approx(0.0, abs=1e-10)
        assert tsallis_stabilizer_entropy(psi, n) == pytest.approx(0.0, abs=1e-10)


def test_renyi_tsallis_relation():
    psi = haar_random_state(2, RNG)
    for n in (2, 3, 4):
        m = renyi_stabilizer_entropy(psi, n)
        t = tsallis_stabilizer_entropy(psi, n)
        assert m == pytest.approx(np.log(1 + (1 - n) * t) / (1 - n), abs=1e-10)


def test_renyi_additive():
    a, b = haar_random_state(2, RNG), haar_random_state(2, RNG)
    for n in (2, 3):
        assert renyi_stabilizer_entropy(np.kron(a, b), n) == pytest.approx(
            renyi_stabilizer_entropy(a, n) + renyi_stabilizer_entropy(b, n), abs=1e-9
        )


def test_von_neumann_limit():
    psi = haar_random_state(2, RNG)
    # n -> 1 limit of the Renyi curve approaches the von Neumann value
    vn = von_neumann_stabilizer_entropy(psi)
    near = renyi_stabilizer_entropy(psi, 1.001)
    assert abs(vn - near) < 5e-3
    assert von_neumann_stabilizer_entropy(zero_state(2)) == pytest.approx(0.0, abs=1e-12)


def test_clifford_invariance_of_moment():
    rng = np.random.default_rng(3)
    for _ in range(100):
        nq = int(rng.integers(1, 5))
        psi = haar_random_state(nq, rng)
        circ = random_clifford_circuit(nq, 6, rng)
        for n in (2, 3):
            assert pauli_moment(apply_circuit(circ, psi), n) == pytest.approx(
                pauli_moment(psi, n), abs=1e-9
            )


def test_moment_operator_spectra():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1
    assert np.allclose(moment_operator(1), swap, atol=1e-12)
    ev2 = np.linalg.eigvalsh(moment_operator(2))
    assert np.all(np.minimum(np.abs(ev2), np.abs(ev2 - 2)) < 1e-9)
    ev3 = np.linalg.eigvalsh(moment_operator(3))
    assert np.all(np.abs(np.abs(ev3) - 1) < 1e-9)


def test_moment_operator_builds_moment():
    # per-site expectation over 2n copies reproduces the moment (N = 1)
    psi = haar_random_state(1, RNG)
    for n in (1, 2):
        copies = psi
        for _ in range(2 * n - 1):
            copies = np.kron(copies, psi)
        val = np.real(np.vdot(copies, moment_operator(n) @ copies))
        assert val == pytest.approx(pauli_moment(psi, n), abs=1e-10)


def test_participation_and_flatness():
    assert participation_entropy(zero_state(3), 2) == pytest.approx(1.0)
    assert flatness(zero_state(3)) == pytest.approx(0.0, abs=1e-12)
    plus = np.full(8, 8**-0.5, dtype=complex)
    assert participation_entropy(plus, 2) == pytest.approx(1 / 8)
    assert participation_entropy(plus, 3) == pytest.approx(1 / 64)
    assert flatness(plus) == pytest.approx(0.0, abs=1e-12)
    tilted = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)], dtype=complex)
    assert participation_entropy(tilted, 2) == pytest.approx(0.75, abs=1e-12)
    assert participation_entropy(tilted, 3) == pytest.approx(0.625, abs=1e-12)
    assert flatness(tilted) == pytest.approx(0.0625, abs=1e-12)


def test_flatness_is_the_difference_of_participation_entropies_bit_for_bit():
    for nq in (1, 4, 8):
        psi = haar_random_state(nq, np.random.default_rng(40 + nq))
        assert flatness(psi) == participation_entropy(psi, 3) - participation_entropy(psi, 2) ** 2


def test_clifford_average_flatness_formula():
    assert clifford_average_flatness(zero_state(2)) == pytest.approx(0.0, abs=1e-12)
    assert clifford_average_flatness(t_state()) == pytest.approx(1 / 24, abs=1e-12)


def test_clifford_average_flatness_exact_group_average():
    # single-qubit group is small enough to average exactly
    psi = t_state()
    vals = [flatness(u @ psi) for u in SINGLE_QUBIT_CLIFFORDS]
    assert np.mean(vals) == pytest.approx(1 / 24, abs=1e-12)
    psi2 = haar_random_state(1, RNG)
    vals2 = [flatness(u @ psi2) for u in SINGLE_QUBIT_CLIFFORDS]
    assert np.mean(vals2) == pytest.approx(clifford_average_flatness(psi2), abs=1e-12)


def test_otoc_basics():
    x1 = pauli_from_string("XI")
    z1 = pauli_from_string("ZI")
    eye = np.eye(4, dtype=complex)
    assert otoc(eye, x1, x1, 2) == pytest.approx(1.0)
    assert otoc(eye, x1, z1, 2) == pytest.approx(0.0, abs=1e-12)
    # identity on one side vanishes for nonidentity other side
    rng = np.random.default_rng(4)
    u = circuit_unitary(random_rotation_circuit(2, 3, rng))
    ident = pauli_from_string("II")
    assert otoc(u, x1, ident, 2) == pytest.approx(0.0, abs=1e-12)
    assert otoc(u, ident, x1, 2) == pytest.approx(0.0, abs=1e-12)
    assert otoc(u, ident, ident, 2) == pytest.approx(1.0, abs=1e-12)


def test_clifford_average_otoc_identity_unitary():
    assert clifford_average_otoc(np.eye(4), 2) == pytest.approx(1 / 15, abs=1e-12)
    rng = np.random.default_rng(5)
    u = circuit_unitary(random_clifford_circuit(2, 8, rng))
    assert clifford_average_otoc(u, 2) == pytest.approx(1 / 15, abs=1e-12)


def test_clifford_average_otoc_exact_single_qubit_group():
    # average over the full 24^2 Clifford pairs reproduces the formula exactly
    u = circuit_unitary(Circuit(1, (gate_t(1),)))
    sx, sz = pauli_from_string("X"), pauli_from_string("Z")
    total = 0.0
    for c1 in SINGLE_QUBIT_CLIFFORDS:
        for c2 in SINGLE_QUBIT_CLIFFORDS:
            total += otoc(c1 @ u @ c2, sx, sz, 2)
    avg = total / 24**2
    assert avg == pytest.approx(clifford_average_otoc(u, 2), abs=1e-12)


def pauli_average_otoc(u: np.ndarray, n: int) -> float:
    """otoc_4n averaged over all 4^N x 4^N Pauli pairs by the literal double
    sum, an independent check of its closed form, A_n of the Choi state."""
    nq = n_qubits_of(u)
    total = 0.0
    for i in range(4**nq):
        for j in range(4**nq):
            total += otoc(u, pauli_from_index(i, nq), pauli_from_index(j, nq), n)
    return total / 4**nq


def test_pauli_average_otoc_is_choi_moment():
    rng = np.random.default_rng(6)
    assert pauli_average_otoc(np.eye(4), 2) == pytest.approx(1.0, abs=1e-12)
    u_t = circuit_unitary(Circuit(1, (gate_t(1),)))
    assert pauli_average_otoc(u_t, 2) == pytest.approx(3 / 4, abs=1e-12)
    for _ in range(20):
        u = circuit_unitary(random_rotation_circuit(2, 2, rng))
        assert pauli_average_otoc(u, 2) == pytest.approx(
            pauli_moment(choi_state(u), 2), abs=1e-9
        )


def test_stabilizer_enumeration_counts():
    assert enumerate_stabilizer_states(1).shape[0] == 6
    assert enumerate_stabilizer_states(2).shape[0] == 60
    assert enumerate_stabilizer_states(3).shape[0] == 1080


def test_enumerated_states_are_stabilizer():
    for psi in enumerate_stabilizer_states(2):
        assert pauli_moment(psi, 2) == pytest.approx(1.0, abs=1e-10)


def test_single_qubit_enumeration_is_pauli_eigenstates():
    table = enumerate_stabilizer_states(1)
    expected = [
        np.array([1, 0]), np.array([0, 1]),
        np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2),
        np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2),
    ]
    for target in expected:
        overlaps = np.abs(table.conj() @ target)
        assert np.max(overlaps) == pytest.approx(1.0, abs=1e-9)


def test_stabilizer_fidelity_values():
    assert stabilizer_fidelity(zero_state(2)) == pytest.approx(1.0, abs=1e-12)
    assert d_min(zero_state(2)) == pytest.approx(0.0, abs=1e-12)
    assert stabilizer_fidelity(t_state()) == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)


def test_stabilizer_fidelity_clifford_invariant():
    rng = np.random.default_rng(7)
    psi = haar_random_state(2, rng)
    circ = random_clifford_circuit(2, 6, rng)
    assert stabilizer_fidelity(apply_circuit(circ, psi)) == pytest.approx(
        stabilizer_fidelity(psi), abs=1e-9
    )


def test_bounds_report_t_state():
    rep = bounds_report(t_state(), 2)
    assert rep.fstab_lower == pytest.approx(0.5, abs=1e-12)
    assert rep.fstab_upper == pytest.approx(0.75**0.25, abs=1e-12)
    assert rep.xi_lower == pytest.approx(0.75**-0.25, abs=1e-12)
    assert rep.robustness_lower == pytest.approx(0.75**-0.5, abs=1e-12)
    assert rep.d_min_upper == pytest.approx(-np.log(0.75) / 4, abs=1e-12)
    assert not rep.fstab_lower_vacuous
    true_f = stabilizer_fidelity(t_state())
    assert rep.fstab_lower <= true_f <= rep.fstab_upper


def test_bounds_report_stabilizer_state():
    rep = bounds_report(zero_state(2), 3)
    assert rep.fstab_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.fstab_upper == pytest.approx(1.0, abs=1e-12)


def test_bounds_sandwich_random_states():
    rng = np.random.default_rng(8)
    for _ in range(200):
        nq = int(rng.integers(1, 4))
        psi = haar_random_state(nq, rng)
        f = stabilizer_fidelity(psi)
        for n in (2, 3):
            rep = bounds_report(psi, n)
            assert rep.fstab_lower <= f + 1e-9
            assert f <= rep.fstab_upper + 1e-9


def test_bounds_json_fields():
    doc = bounds_from_moment(0.75, 2).to_json()
    assert '"n": 2' in doc and '"fstab_upper"' in doc


def test_bell_sampling_distribution_t_state():
    # P = (1/4, 1/2, 1/4, 0) over (I, X, Z, Y) for |T>
    p = bell_distribution(t_state(), t_state())
    assert np.allclose(p, [0.25, 0.5, 0.25, 0.0], atol=1e-12)


def test_bell_magic_values():
    b, badd = bell_magic(t_state())
    assert b == pytest.approx(0.5, abs=1e-12)
    assert badd == pytest.approx(1.0, abs=1e-12)
    b0, _ = bell_magic(zero_state(2))
    assert b0 == pytest.approx(0.0, abs=1e-12)


def test_bell_magic_brute_force_cross_check():
    rng = np.random.default_rng(9)
    psi = haar_random_state(2, rng)
    p = bell_distribution(psi, psi)
    q = np.zeros_like(p)
    for r in range(16):
        for s in range(16):
            q[r ^ s] += p[r] * p[s]
    b_ref = 0.0
    for r in range(16):
        for s in range(16):
            if not commutes(pauli_from_index(r, 2), pauli_from_index(s, 2)):
                b_ref += 2.0 * q[r] * q[s]
    b, _ = bell_magic(psi)
    assert b == pytest.approx(b_ref, abs=1e-12)


def test_bell_magic_stabilizer_zero_and_clifford_invariance():
    rng = np.random.default_rng(10)
    for psi in enumerate_stabilizer_states(1):
        assert bell_magic(psi)[0] == pytest.approx(0.0, abs=1e-12)
    psi = haar_random_state(2, rng)
    circ = random_clifford_circuit(2, 6, rng)
    assert bell_magic(apply_circuit(circ, psi))[0] == pytest.approx(
        bell_magic(psi)[0], abs=1e-9
    )


# -- state validation ---------------------------------------------------------

def test_pauli_moment_refuses_an_unnormalized_state():
    # unchecked, <I> = <Z> = 4 would give the moment (4^4 + 4^4) / 2 = 256
    with pytest.raises(ValueError, match="norm 2"):
        pauli_moment([2, 0], 2)
    with pytest.raises(ValueError, match="trace"):
        pauli_moment(np.eye(2), 2)
    with pytest.raises(ValueError, match="norm"):
        renyi_stabilizer_entropy([2, 0], 2)


def test_pauli_moment_refuses_a_non_hermitian_or_non_positive_matrix():
    # unchecked, the first failed late on an imaginary residue and the second
    # gave the moment 8.5, above its bound of 1
    with pytest.raises(ValueError, match="Hermitian"):
        pauli_moment(np.array([[0.5, 0.3], [0.1, 0.5]]), 2)
    with pytest.raises(ValueError, match="not positive"):
        pauli_moment(np.array([[1.5, 0.0], [0.0, -0.5]]), 2)


@pytest.mark.parametrize(
    "state, defect",
    [
        ([2, 0], "norm 2"),
        ([np.nan, 0], "non-finite"),
        (np.eye(2) / 2, r"{name} takes a statevector, got shape \(2, 2\)"),
    ],
    ids=["unnormalized", "nan", "mixed"],
)
@pytest.mark.parametrize(
    "oracle, name",
    [
        (stabilizer_fidelity, "stabilizer_fidelity"),
        (d_min, "stabilizer_fidelity"),
        (flatness, "flatness"),
        (lambda s: participation_entropy(s, 2), "participation_entropy"),
        (pauli_spectrum, "pauli_spectrum"),
        (lambda s: estimate_moment_conjugate(s, 2, 10, 0), "estimate_moment_conjugate"),
        (lambda s: estimate_participation(s, 2, 10, 0), "estimate_participation"),
    ],
    ids=["fstab", "d_min", "flatness", "participation", "pauli_spectrum", "conjugate_estimate", "participation_estimate"],
)
def test_statevector_oracles_refuse_an_invalid_state(oracle, name, state, defect):
    # unchecked, [2, 0] gave F_STAB = 4.0 and D_min = -1.386; the maximally
    # mixed qubit gave F_STAB 0.25 where max <phi|rho|phi> is 0.5, and the
    # density matrix of |T> gave I_2 = 0.25 where its statevector gives 0.5;
    # a refused density matrix is refused by the function that was called
    # (d_min by stabilizer_fidelity), in one message for all of them
    with pytest.raises(ValueError, match=defect.format(name=name)):
        oracle(np.array(state))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0, -1.5, True])
@pytest.mark.parametrize("oracle, name", [(pauli_moment, "moment index n"), (participation_entropy, "q")])
def test_real_indices_must_be_finite_and_positive(oracle, name, value):
    # once pauli_moment raised OverflowError at inf and named no argument at
    # nan, and participation_entropy returned nan at nan
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        oracle(t_state(), value)


def test_flatness_refuses_an_unnormalized_state():
    # unchecked, I_3 - I_2^2 would be 4^3 - (4^2)^2 = -192
    with pytest.raises(ValueError, match="norm 2"):
        flatness([2, 0, 0, 0])


@pytest.mark.parametrize(
    "oracle",
    [
        lambda s: pauli_moment(s, 2),
        von_neumann_stabilizer_entropy,
        lambda s: participation_entropy(s, 2),
        flatness,
    ],
)
def test_oracles_refuse_a_non_finite_state(oracle):
    with pytest.raises(ValueError, match="non-finite"):
        oracle(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        oracle(np.array([[np.inf, 0.0], [0.0, 0.0]]))
