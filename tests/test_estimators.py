import gc
import tracemalloc

import numpy as np
import pytest

from magic_meter.circuits import Circuit, apply_circuit, gate_h, gate_rz
from magic_meter.estimators import (
    EstimatorResult,
    bell_distribution,
    estimate_bell_magic,
    estimate_moment_bell,
    estimate_moment_conjugate,
    estimate_moment_gradient,
    estimate_flatness,
    estimate_participation,
    estimate_purity,
    exact_moment_gradient,
    expected_parity_value,
    hoeffding_budget,
    renyi_precision_budget,
    sample_bell,
)
from magic_meter.oracles import bell_magic, pauli_moment
from magic_meter.paulis import all_expectations, pauli_spectrum
from magic_meter.states import density_of, haar_random_state, plus_state, t_state, zero_state
from references import choice_sample_bell, conjugate_state, reference_pauli_transform


def test_bell_distribution_zero_state():
    # per-qubit marginals {00: 1/2, 10: 1/2}; X/Y outcomes never appear
    p = bell_distribution(zero_state(1), zero_state(1))
    assert np.allclose(p, [0.5, 0.0, 0.5, 0.0], atol=1e-12)
    p2 = bell_distribution(zero_state(2), zero_state(2))
    support = {i for i in range(16) if p2[i] > 1e-12}
    assert support == {0, 2, 8, 10}  # tensor combinations of I and Z


def test_bell_distribution_conjugate_is_pauli_spectrum():
    rng = np.random.default_rng(0)
    for nq in (1, 2, 3):
        psi = haar_random_state(nq, rng)
        dist = bell_distribution(conjugate_state(psi), psi)
        assert np.allclose(dist, pauli_spectrum(psi).probabilities, atol=1e-10)


def _same_copy_bell_from_pauli_algebra(psi):
    """P(r) = 2^-N |<psi|sigma_r|psi*>|^2 from the full-row Pauli transform of
    the rows conj(psi[k]) conj(psi[k ^ x]), which are not Hermitian under
    k -> k ^ x: an independent route to bell_distribution(psi, psi)."""
    conj = psi.conj()
    nq = int(np.log2(psi.size))
    return reference_pauli_transform(
        nq, lambda x, k: conj[k] * conj[k ^ x], lambda v: np.abs(v) ** 2 / 2**nq
    )


def test_bell_distribution_same_copy_matches_oracle():
    rng = np.random.default_rng(1)
    for nq in range(1, 7):
        psi = haar_random_state(nq, rng)
        assert np.allclose(
            bell_distribution(psi, psi), _same_copy_bell_from_pauli_algebra(psi), rtol=0, atol=1e-15
        )


def test_bell_distribution_real_states_coincide():
    psi = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
    assert np.allclose(
        bell_distribution(psi, psi), bell_distribution(conjugate_state(psi), psi), atol=1e-12
    )


def test_bell_distribution_mixed_matches_pure():
    rng = np.random.default_rng(2)
    psi = haar_random_state(2, rng)
    pure = bell_distribution(psi, psi)
    mixed = bell_distribution(density_of(psi), density_of(psi))
    assert np.allclose(pure, mixed, atol=1e-10)


def test_bell_distribution_errors():
    with pytest.raises(ValueError):
        bell_distribution(zero_state(1), zero_state(2))


@pytest.mark.parametrize("state", [np.array(1.0), np.array([1.0]), [1]], ids=["0-d", "length-1", "list"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda s: bell_distribution(s, s),
        lambda s: pauli_moment(s, 2),
        lambda s: estimate_moment_bell(s, 3, 10, 0),
        lambda s: bell_magic(s),
        lambda s: pauli_spectrum(s),
        lambda s: all_expectations(s),
    ],
    ids=["bell_distribution", "pauli_moment", "estimate_moment_bell", "bell_magic", "pauli_spectrum", "all_expectations"],
)
def test_zero_qubit_states_are_refused_with_their_shape(entry, state):
    # unchecked, a 0-d array leaked IndexError, [1] numpy's "negative shift
    # count", and estimate_moment_bell returned 1.0 for a 0-qubit state
    with pytest.raises(ValueError, match=r"got shape \((1,)?\)"):
        entry(state)


@pytest.mark.parametrize(
    "dist, size, defect",
    [
        (-bell_distribution(t_state(2), t_state(2)), 3, "nonnegative entries"),
        (np.array([0.5, np.nan, 0.5, 0.0]), 3, "nonnegative entries"),
        (np.array([0.5, np.inf, 0.5, 0.0]), 3, "positive sum"),
        (np.zeros(4), 3, "positive sum"),
        (np.full(4, 0.25), -1, "sample size"),
        (np.full(4, 0.25), (2, -1), "sample size"),
        (np.full(4, 0.25), 2.5, "sample size"),
        (np.full((4, 4), 1 / 16), 3, r"1-D array, got shape \(4, 4\)"),
    ],
    ids=["negated", "nan", "inf", "zero-sum", "negative-size", "negative-axis", "float-size", "2-d"],
)
def test_sample_bell_refuses_a_bad_distribution_or_size(dist, size, defect):
    # unchecked, the negated distribution was sampled as if positive, a zero
    # sum warned of a divide and a negative size leaked "negative dimensions"
    with pytest.raises(ValueError, match=defect):
        sample_bell(dist, size, np.random.default_rng(0))


def _assert_draws_equal_choice(dist):
    # The blockwise draw returns choice's indices bit for bit, leaves the
    # generator where choice leaves it, and only reads the distribution.
    before = dist.copy()
    for seed in range(5):
        for size in [7, (1000, 3), 0, (0, 3), ()]:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = sample_bell(dist, size, ours), choice_sample_bell(dist, size, theirs)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            assert ours.random() == theirs.random()
    np.testing.assert_array_equal(dist, before)


@pytest.mark.parametrize("nq", [1, 2, 3, 4, 5, 6, 10])  # 4^10 outcomes span 8 blocks
def test_sample_bell_draws_what_generator_choice_draws(nq):
    psi = haar_random_state(nq, np.random.default_rng(nq))
    _assert_draws_equal_choice(bell_distribution(psi, psi))
    _assert_draws_equal_choice(bell_distribution(psi.conj(), psi))


def test_sample_bell_draws_what_generator_choice_draws_past_an_empty_block():
    psi = haar_random_state(10, np.random.default_rng(10))
    dist = bell_distribution(psi, psi)
    dist[3 * 2**17 : 4 * 2**17] = 0.0  # the whole fourth block
    _assert_draws_equal_choice(dist)
    assert not np.any(sample_bell(dist, 2000, 0) // 2**17 == 3)
    last = np.zeros(4**3)
    last[-1] = 2.0  # all the mass on the last index
    _assert_draws_equal_choice(last)
    np.testing.assert_array_equal(sample_bell(last.tolist(), 50, 0), np.full(50, 63))


def test_sample_bell_holds_no_full_size_copy():
    # Generator.choice held the normalized 8 MB distribution and its running
    # sum, a 16 MB peak; the blockwise draw holds one 1 MB block.
    psi = haar_random_state(10, np.random.default_rng(10))
    dist = bell_distribution(psi, psi)
    sample_bell(dist, 2000, np.random.default_rng(0))
    gc.collect()
    tracemalloc.start()
    try:
        sample_bell(dist, 2000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_parity_estimator_is_unbiased_infinite_shots():
    # XOR-convolution expectation of the parity estimator equals the moment
    rng = np.random.default_rng(3)
    for nq in (1, 2, 3):
        psi = haar_random_state(nq, rng)
        dist = bell_distribution(psi, psi)
        for n in (1, 2, 3, 4):
            val = expected_parity_value([dist] * n, n, nq)
            assert val == pytest.approx(pauli_moment(psi, n), abs=1e-9)


def test_bell_estimator_stabilizer_state_deterministic():
    res = estimate_moment_bell(zero_state(3), 3, 50, np.random.default_rng(4))
    assert res.value == 1.0
    assert res.std_error == 0.0


def test_bell_estimator_t_state_three_sigma():
    res = estimate_moment_bell(t_state(), 3, 10_000, np.random.default_rng(5))
    assert abs(res.value - 5 / 8) < 3 * res.std_error
    assert res.copies_consumed == 2 * 3 * 10_000


def test_bell_estimator_purity_mode():
    res = estimate_moment_bell(t_state(), 1, 4000, np.random.default_rng(6))
    assert abs(res.value - 1.0) <= 3 * max(res.std_error, 1e-3)
    rho = 0.5 * density_of(zero_state(1)) + 0.5 * density_of(plus_state(1))
    res_mixed = estimate_purity(rho, 20_000, np.random.default_rng(7))
    true_purity = float(np.real(np.trace(rho @ rho)))
    assert abs(res_mixed.value - true_purity) < 3 * res_mixed.std_error


def test_bell_estimator_even_refused_without_flag():
    with pytest.raises(ValueError):
        estimate_moment_bell(t_state(), 2, 100, np.random.default_rng(8))
    res = estimate_moment_bell(t_state(), 2, 20_000, np.random.default_rng(8), allow_even=True)
    assert abs(res.value - 0.75) < 4 * res.std_error


def test_bell_estimator_per_repetition_range():
    rng = np.random.default_rng(9)
    psi = haar_random_state(2, rng)
    res_odd = estimate_moment_bell(psi, 3, 500, rng)
    assert -1.0 <= res_odd.value <= 1.0
    res_even = estimate_moment_bell(psi, 2, 500, rng, allow_even=True)
    assert 0.0 <= res_even.value <= 4.0  # per-repetition values in {0, 2^N}


def test_conjugate_estimator_stabilizer_deterministic():
    res = estimate_moment_conjugate(zero_state(3), 2, 100, np.random.default_rng(10))
    assert res.value == 1.0 and res.std_error == 0.0


@pytest.mark.parametrize("n,target", [(2, 3 / 4), (3, 5 / 8), (4, 9 / 16)])
def test_conjugate_estimator_t_state(n, target):
    res = estimate_moment_conjugate(t_state(), n, 10_000, np.random.default_rng(11 + n))
    assert abs(res.value - target) < 3 * res.std_error


def test_conjugate_estimator_needs_n_at_least_two():
    with pytest.raises(ValueError):
        estimate_moment_conjugate(t_state(), 1, 10, np.random.default_rng(0))


def test_estimators_deterministic_under_seed():
    a = estimate_moment_bell(t_state(), 3, 200, np.random.default_rng(12), seed=12)
    b = estimate_moment_bell(t_state(), 3, 200, np.random.default_rng(12), seed=12)
    assert a == b
    assert a.to_json() == b.to_json()


def test_unbiasedness_over_many_runs():
    rng = np.random.default_rng(13)
    psi = haar_random_state(2, rng)
    exact = pauli_moment(psi, 3)
    values, errors = [], []
    for k in range(60):
        res = estimate_moment_bell(psi, 3, 400, np.random.default_rng(1000 + k))
        values.append(res.value)
        errors.append(res.std_error)
    pooled_se = np.sqrt(np.sum(np.square(errors))) / len(values)
    assert abs(np.mean(values) - exact) < 4 * pooled_se


def test_renyi_from_estimate_with_propagated_error():
    rng = np.random.default_rng(40)
    psi = haar_random_state(2, rng)
    n = 3
    from magic_meter.oracles import renyi_stabilizer_entropy

    exact = renyi_stabilizer_entropy(psi, n)
    res = estimate_moment_bell(psi, n, 20_000, rng)
    est = np.log(res.value) / (1 - n)
    propagated = res.std_error / ((n - 1) * res.value)
    assert abs(est - exact) <= 3 * propagated


def _phase_circuit(theta: float) -> Circuit:
    return Circuit(1, (gate_h(1), gate_rz(1, theta)))


def test_exact_gradient_matches_closed_form():
    # moment A_2(theta) = (1 + cos^4 + sin^4)/2 so dA_2/dtheta = -sin(4 theta)/2
    for theta in (np.pi / 8, 0.0, 1.1):
        grad = exact_moment_gradient(_phase_circuit(theta), 0, 2)
        assert grad == pytest.approx(-np.sin(4 * theta) / 2, abs=1e-9)
    assert exact_moment_gradient(_phase_circuit(np.pi / 8), 0, 2) == pytest.approx(-0.5, abs=1e-9)


def test_exact_gradient_matches_finite_difference():
    rng = np.random.default_rng(14)
    h = 1e-4
    for _ in range(5):
        nq = int(rng.integers(1, 3))
        from magic_meter.circuits import random_rotation_circuit

        circ = random_rotation_circuit(nq, 2, rng)
        k = int(rng.integers(len(circ.rotation_indices())))
        for n in (2, 3):
            up = pauli_moment(apply_circuit(circ.shifted(k, h)), n)
            down = pauli_moment(apply_circuit(circ.shifted(k, -h)), n)
            fd = (up - down) / (2 * h)
            assert exact_moment_gradient(circ, k, n) == pytest.approx(fd, abs=1e-6)


def test_sampled_gradient_three_sigma():
    circ = _phase_circuit(np.pi / 8)
    res = estimate_moment_gradient(circ, 0, 2, 40_000, np.random.default_rng(15), allow_even=True)
    assert abs(res.value - (-0.5)) < 3 * res.std_error
    res0 = estimate_moment_gradient(_phase_circuit(0.0), 0, 2, 20_000, np.random.default_rng(16), allow_even=True)
    assert abs(res0.value) < 3 * max(res0.std_error, 1e-4)


def test_gradient_of_irrelevant_parameter_is_zero():
    # second rotation acts on an eigenstate axis, so the state ignores it
    circ = Circuit(1, (gate_h(1), gate_rz(1, 0.4), gate_h(1), gate_rz(1, 0.9)))
    # make a circuit where parameter 1 rotates around Z on |0>-like state:
    circ2 = Circuit(1, (gate_rz(1, 0.7), gate_h(1), gate_rz(1, 0.3)))
    grad = estimate_moment_gradient(circ2, 0, 3, 4000, np.random.default_rng(17))
    assert abs(grad.value) <= 3 * max(grad.std_error, 1e-4)


def test_gradient_index_validation():
    with pytest.raises(ValueError):
        estimate_moment_gradient(_phase_circuit(0.1), 3, 3, 10, np.random.default_rng(0))


@pytest.mark.parametrize("repetitions", [0, -1, 2.5, 10.0, True])
@pytest.mark.parametrize(
    "estimate",
    [
        lambda reps: estimate_moment_bell(t_state(), 3, reps, np.random.default_rng(0)),
        lambda reps: estimate_moment_conjugate(t_state(), 2, reps, np.random.default_rng(0)),
        lambda reps: estimate_bell_magic(t_state(), reps, np.random.default_rng(0)),
        lambda reps: estimate_moment_gradient(_phase_circuit(0.1), 0, 3, reps, np.random.default_rng(0)),
    ],
    ids=["bell", "conjugate", "bell_magic", "gradient"],
)
def test_repetitions_below_one_are_value_errors(estimate, repetitions):
    with pytest.raises(ValueError, match="repetitions"):
        estimate(repetitions)


@pytest.mark.parametrize(
    "state,defect",
    [(np.array([2.0, 0.0]), "norm 2"), (np.array([np.nan, 0.0]), "non-finite")],
    ids=["unnormalized", "nan"],
)
@pytest.mark.parametrize(
    "estimate",
    [
        lambda s: estimate_moment_bell(s, 1, 50, np.random.default_rng(0)),
        lambda s: estimate_moment_conjugate(s, 2, 50, np.random.default_rng(0)),
        lambda s: estimate_purity(s, 50, np.random.default_rng(0)),
        lambda s: estimate_bell_magic(s, 50, np.random.default_rng(0)),
        lambda s: estimate_participation(s, 2, 50, np.random.default_rng(0)),
    ],
    ids=["alg1", "alg2", "purity", "bellmagic", "participation"],
)
def test_estimators_refuse_an_unnormalized_or_non_finite_state(estimate, state, defect):
    # unchecked, [2, 0] estimated its normalized version: 1.0 from alg1 and
    # participation, 0.0 from bellmagic
    with pytest.raises(ValueError, match=defect):
        estimate(state)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda s: estimate_participation(s, 2, 50, np.random.default_rng(0)),
        lambda s: estimate_flatness(s, 50, np.random.default_rng(0)),
    ],
    ids=["participation", "flatness"],
)
def test_basis_sampling_estimators_refuse_a_density_matrix(estimate):
    # unchecked, both leaked numpy's "p must be 1-dimensional"
    with pytest.raises(ValueError, match=r"statevector, got shape \(2, 2\)"):
        estimate(density_of(t_state()))


@pytest.mark.parametrize(
    "q, shots, name",
    [(2.0, 10, "q"), (True, 10, "q"), (1, 10, "q"), (2, 10.5, "shots"), (2, 10.0, "shots"), (3, 2, "shots")],
)
def test_participation_counts_must_be_integers(q, shots, name):
    # unchecked, a float q or shots leaked numpy's TypeError from rng.choice
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        estimate_participation(t_state(), q, shots, np.random.default_rng(0))


def test_participation_estimator():
    res = estimate_participation(zero_state(2), 2, 1000, np.random.default_rng(18))
    assert res.value == 1.0 and res.std_error == 0.0
    res_plus = estimate_participation(plus_state(1), 2, 20_000, np.random.default_rng(19))
    assert abs(res_plus.value - 0.5) < 3 * res_plus.std_error
    with pytest.raises(ValueError):
        estimate_participation(zero_state(1), 3, 2, np.random.default_rng(0))


def test_flatness_composite_estimator():
    from magic_meter.oracles import flatness

    res = estimate_flatness(zero_state(2), 2000, np.random.default_rng(30))
    assert res.value == 0.0 and res.std_error == 0.0
    rng = np.random.default_rng(31)
    for k in range(5):
        psi = haar_random_state(2, rng)
        res = estimate_flatness(psi, 60_000, np.random.default_rng([32, k]))
        assert abs(res.value - flatness(psi)) <= 3 * res.std_error
        assert res.value > -3 * res.std_error  # nonnegative within noise


def test_bell_magic_estimator():
    res0 = estimate_bell_magic(zero_state(2), 400, np.random.default_rng(20))
    assert res0.value == 0.0 and res0.std_error == 0.0
    exact, _ = bell_magic(t_state())
    res = estimate_bell_magic(t_state(), 20_000, np.random.default_rng(21))
    assert abs(res.value - exact) < 3 * res.std_error
    assert 0.0 <= res.value <= 2.0


def test_hoeffding_budget_values():
    assert hoeffding_budget(0.05, 0.05, 2.0) == 2952
    # halving epsilon quadruples the budget
    small = hoeffding_budget(0.05, 0.1, 2.0)
    large = hoeffding_budget(0.025, 0.1, 2.0)
    assert abs(large - 4 * small) <= 4
    with pytest.raises(ValueError):
        hoeffding_budget(0.0, 0.05, 2.0)
    with pytest.raises(ValueError):
        hoeffding_budget(0.05, 0.05, -1.0)


def test_renyi_precision_budget():
    eps, shots = renyi_precision_budget(0.0, 3, 0.01)
    assert eps == pytest.approx(2 * 0.01)
    eps2, _ = renyi_precision_budget(np.log(2), 2, 0.01)
    assert eps2 == pytest.approx(0.005)
    assert shots == hoeffding_budget(eps, 0.05, 2.0)
    # a derived precision outside (0, 1) names the inputs it came from
    for target, eps_m in [(0.1, 5.0), (1e6, 0.01)]:
        with pytest.raises(ValueError, match=rf"renyi_target={target!r} and epsilon_m={eps_m!r} give"):
            renyi_precision_budget(target, 2, eps_m)


def test_estimator_result_json_roundtrip():
    res = EstimatorResult(0.5, 0.01, 100, 600, "bell_parity", 3, 7)
    doc = res.to_json()
    assert '"algorithm": "bell_parity"' in doc and '"seed": 7' in doc
