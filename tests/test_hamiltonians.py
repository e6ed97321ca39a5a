import numpy as np
import pytest

from magic_meter.hamiltonians import (
    Evolver,
    PauliSum,
    dense_of,
    gue_hamiltonian,
    ising_hamiltonian,
    random_pauli_hamiltonian,
)
from magic_meter.paulis import pauli_from_string
from magic_meter.states import haar_random_state, plus_state


def test_gue_hermitian_and_scale():
    rng = np.random.default_rng(0)
    h = gue_hamiltonian(4, rng)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    traces = []
    extremes = []
    for _ in range(100):
        h = gue_hamiltonian(6, rng)
        traces.append(np.real(np.trace(h @ h)) / 2**6)
        ev = np.linalg.eigvalsh(h)
        extremes.append(max(abs(ev[0]), abs(ev[-1])))
    assert abs(np.mean(traces) - 1.0) < 0.15
    assert max(extremes) < 2.5


def test_random_pauli_hamiltonian_normalization():
    rng = np.random.default_rng(1)
    h = random_pauli_hamiltonian(3, 10, rng)
    dense = h.to_dense()
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-12
    # normalized trace of H^2 equals 1, the GUE energy scale
    assert np.real(np.trace(dense @ dense)) / 2**3 == pytest.approx(1.0, abs=1e-10)


def test_random_pauli_single_term():
    rng = np.random.default_rng(2)
    h = random_pauli_hamiltonian(2, 1, rng)
    (coeff, sigma), = h.terms
    assert abs(coeff) == pytest.approx(1.0, abs=1e-12)
    assert not sigma.is_identity


@pytest.mark.parametrize("delta, disorder, word", [
    (float("nan"), 1.0, "delta"), (float("inf"), 1.0, "delta"), (True, 1.0, "delta"),
    (0.2, -1.0, "disorder"), (0.2, float("nan"), "disorder"), (0.2, float("inf"), "disorder"),
])
def test_ising_chain_names_a_bad_delta_or_disorder(delta, disorder, word):
    # unchecked, these leaked numpy's "high - low < 0", an OverflowError or
    # "coefficients must be finite"
    with pytest.raises(ValueError, match=f"{word} must be finite"):
        ising_hamiltonian(3, delta, disorder, np.random.default_rng(0))


def test_random_pauli_too_many_terms():
    with pytest.raises(ValueError):
        random_pauli_hamiltonian(1, 4, np.random.default_rng(0))


def test_many_term_pauli_dynamics_matches_gue():
    # with ~70 random strings at N = 4 the flatness dynamics is GUE-like,
    # while a sparse Hamiltonian (K = 8) departs at late times
    from magic_meter.oracles import flatness
    from magic_meter.states import zero_state

    nq, instances = 4, 200
    psi0 = zero_state(nq)
    tgrid = (1.0, 3.0, 100.0)

    def mean_curve(factory):
        vals = np.zeros((instances, len(tgrid)))
        for i in range(instances):
            ev = Evolver(factory(np.random.default_rng([55, i])))
            for j, t in enumerate(tgrid):
                vals[i, j] = flatness(ev.evolve(t, psi0))
        return vals.mean(axis=0), vals.std(axis=0, ddof=1) / np.sqrt(instances)

    gue, gue_se = mean_curve(lambda rng: gue_hamiltonian(nq, rng))
    dense, dense_se = mean_curve(lambda rng: random_pauli_hamiltonian(nq, 70, rng))
    sparse, _ = mean_curve(lambda rng: random_pauli_hamiltonian(nq, 8, rng))
    for g, gs, d, ds in zip(gue, gue_se, dense, dense_se):
        assert abs(g - d) <= max(4 * np.hypot(gs, ds), 0.1 * g)
    assert abs(sparse[-1] - gue[-1]) > 5 * abs(dense[-1] - gue[-1])


def test_ising_two_site_spectrum():
    h = ising_hamiltonian(2, 0.2, 0.0, np.random.default_rng(0))
    ev = np.sort(np.linalg.eigvalsh(h.to_dense()))
    assert np.allclose(ev, sorted([-2.2, 0.2, 0.2, 1.8]), atol=1e-12)


def test_ising_total_z_conserved():
    rng = np.random.default_rng(3)
    h = ising_hamiltonian(3, 0.7, 1.5, rng).to_dense()
    total_z = sum(pauli_from_string(s).to_matrix() for s in ("ZII", "IZI", "IIZ"))
    assert np.max(np.abs(h @ total_z - total_z @ h)) < 1e-12


def test_evolve_basics():
    rng = np.random.default_rng(4)
    psi = haar_random_state(3, rng)
    h = gue_hamiltonian(3, rng)
    assert np.allclose(Evolver(h).evolve(0.0, psi), psi)
    out = Evolver(h).evolve(2.7, psi)
    assert abs(np.linalg.norm(out) - 1) < 1e-10


def test_evolve_z_rotation():
    # exp(-i Z pi/2)|+> = -i|-> up to the global phase
    out = Evolver(np.diag([1.0, -1.0]).astype(complex)).evolve(np.pi / 2, plus_state(1))
    minus = np.array([1, -1]) / np.sqrt(2)
    assert abs(abs(np.vdot(minus, out)) - 1) < 1e-12


def test_evolver_unitary_consistency():
    rng = np.random.default_rng(5)
    h = gue_hamiltonian(2, rng)
    ev = Evolver(h)
    psi = haar_random_state(2, rng)
    assert np.allclose(ev.unitary(1.3) @ psi, ev.evolve(1.3, psi), atol=1e-10)


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        Evolver(np.array([[0, 1], [0, 0]], dtype=complex))


def test_dense_of_pauli_sum_matches_matrices():
    terms = ((0.5, pauli_from_string("XY")), (-1.1, pauli_from_string("ZI")))
    h = PauliSum(terms, 2)
    ref = 0.5 * pauli_from_string("XY").to_matrix() - 1.1 * pauli_from_string("ZI").to_matrix()
    assert np.allclose(h.to_dense(), ref, atol=1e-12)
    assert np.allclose(dense_of(h), ref, atol=1e-12)
