"""Property tests of the Bell distributions, the Pauli-spectrum moments and
the Tsallis entropy.

The mixed-state Bell distribution is the symplectic Fourier transform of the
product of two Pauli spectra.  Its reference below is the literal mixture:
the pure-state Bell circuit run on every pair of eigenvectors, weighted by
the product of their eigenvalues.  The moments A_n are checked against the
paper's invariants: Clifford invariance, the bounds 2^-N <= A_n <= 1, and
the global-depolarizing map that mitigate_moment inverts.  The Tsallis
entropy T_2 does not grow on average under a computational-basis
measurement of some qubits.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magic_meter.circuits import apply_circuit, random_clifford_circuit
from magic_meter.estimators import bell_distribution
from magic_meter.noise import NoiseKind, NoiseModel, apply_channel, mitigate_moment
from magic_meter.oracles import pauli_moment, tsallis_stabilizer_entropy
from magic_meter.paulis import all_expectations
from magic_meter.states import density_of, haar_random_state, t_state, zero_state
from references import random_density_matrix, tsallis_monotonicity_gap

PROPERTY = settings(max_examples=25, deadline=None, database=None)

qubits = st.integers(min_value=1, max_value=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def bell_distribution_by_eigenpairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_{i,j} w_i v_j P(a_i, b_j) over the eigenpairs of both copies."""
    vals_a, vecs_a = np.linalg.eigh(a)
    vals_b, vecs_b = np.linalg.eigh(b)
    dist = np.zeros(a.shape[0] ** 2)
    for wa, va in zip(vals_a, vecs_a.T):
        if wa < 1e-12:
            continue
        for wb, vb in zip(vals_b, vecs_b.T):
            if wb < 1e-12:
                continue
            dist += wa * wb * bell_distribution(va, vb)
    return dist


def _density(n: int, seed: int, rank_draw: int) -> np.ndarray:
    """Random density matrix whose rank runs over 1..2^n with rank_draw."""
    return random_density_matrix(n, np.random.default_rng(seed), rank=1 + rank_draw % (1 << n))


@PROPERTY
@given(n=qubits, seed=seeds, mixed=st.booleans(), ranks=st.tuples(seeds, seeds))
def test_bell_distribution_is_a_probability_vector(n, seed, mixed, ranks):
    if mixed:
        a, b = _density(n, seed, ranks[0]), _density(n, seed + 1, ranks[1])
    else:
        rng = np.random.default_rng(seed)
        a, b = haar_random_state(n, rng), haar_random_state(n, rng)
    dist = bell_distribution(a, b)
    assert dist.shape == (4**n,)
    assert np.all(dist >= 0.0)
    assert dist.sum() == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=12, deadline=None, database=None)
@given(n=st.integers(min_value=1, max_value=6), seed=seeds)
def test_conjugate_bell_distribution_is_the_pauli_spectrum(n, seed):
    # Bell sampling (psi*, psi) draws sigma with probability <sigma>^2 / 2^N
    psi = haar_random_state(n, np.random.default_rng(seed))
    dist = bell_distribution(psi.conj(), psi)
    np.testing.assert_allclose(dist, all_expectations(psi) ** 2 / 2**n, rtol=0, atol=1e-14)
    assert dist.sum() == pytest.approx(1.0, abs=1e-13)


@PROPERTY
@given(n=qubits, seed=seeds, ranks=st.tuples(seeds, seeds))
def test_mixed_bell_distribution_equals_the_eigenpair_mixture(n, seed, ranks):
    a, b = _density(n, seed, ranks[0]), _density(n, seed + 1, ranks[1])
    np.testing.assert_allclose(
        bell_distribution(a, b), bell_distribution_by_eigenpairs(a, b), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("ranks", [(None, None), (2, 1), (1, 3)])
def test_mixed_bell_distribution_matches_the_reference(n, ranks):
    rng = np.random.default_rng([n, 7])
    a, b = (
        random_density_matrix(n, rng, rank=None if r is None else min(r, 1 << n)) for r in ranks
    )
    np.testing.assert_allclose(
        bell_distribution(a, b), bell_distribution_by_eigenpairs(a, b), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("n", [7, 8])
def test_mixed_bell_distribution_runs_up_to_the_density_guard(n):
    rng = np.random.default_rng(n)
    dist = bell_distribution(random_density_matrix(n, rng), random_density_matrix(n, rng, rank=2))
    assert np.all(dist >= 0.0)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


moments = st.integers(min_value=1, max_value=4)


@settings(max_examples=15, deadline=None, database=None)
@given(n=qubits, seed=seeds, depth=st.integers(min_value=1, max_value=4), index=moments)
def test_moment_is_clifford_invariant(n, seed, depth, index):
    rng = np.random.default_rng(seed)
    psi = haar_random_state(n, rng)
    moved = apply_circuit(random_clifford_circuit(n, depth, rng), psi)
    assert pauli_moment(moved, index) == pytest.approx(pauli_moment(psi, index), rel=1e-10)


@PROPERTY
@given(n=qubits, seed=seeds, mixed=st.booleans(), rank_draw=seeds, index=moments)
def test_moment_lies_between_two_to_the_minus_n_and_one(n, seed, mixed, rank_draw, index):
    # the identity string alone gives 2^-N; |<sigma>|^{2n} <= <sigma>^2 gives 1
    state = _density(n, seed, rank_draw) if mixed else haar_random_state(n, np.random.default_rng(seed))
    assert 2.0**-n - 1e-12 <= pauli_moment(state, index) <= 1.0 + 1e-12


@settings(max_examples=15, deadline=None, database=None)
@given(n=qubits, seed=seeds, index=moments, p=st.floats(min_value=0.0, max_value=0.5))
def test_mitigate_moment_inverts_global_depolarizing(n, seed, index, p):
    psi = haar_random_state(n, np.random.default_rng(seed))
    rho = apply_channel(density_of(psi), NoiseModel(NoiseKind.GLOBAL_DEPOLARIZING, p))
    assert mitigate_moment(pauli_moment(rho, index), p, index, n) == pytest.approx(
        pauli_moment(psi, index), abs=1e-9
    )


def test_tsallis_monotonicity_gap_values():
    assert tsallis_monotonicity_gap(zero_state(3), [1, 2], 2) == pytest.approx(0.0, abs=1e-12)
    tt = np.kron(t_state(), t_state())
    gap = tsallis_monotonicity_gap(tt, [2], 2)
    expected = tsallis_stabilizer_entropy(tt, 2) - tsallis_stabilizer_entropy(t_state(), 2)
    assert gap == pytest.approx(expected, abs=1e-10)
    assert gap == pytest.approx(7 / 16 - 1 / 4, abs=1e-10)


def test_tsallis_monotonicity_random_sweep():
    rng = np.random.default_rng(11)
    worst = np.inf
    for _ in range(100):
        nq = int(rng.integers(2, 5))
        psi = haar_random_state(nq, rng)
        k = int(rng.integers(1, nq))
        subset = list(rng.choice(np.arange(1, nq + 1), size=k, replace=False))
        worst = min(worst, tsallis_monotonicity_gap(psi, subset, 2))
    assert worst >= -1e-9
