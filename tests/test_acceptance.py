"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s or -rA to see them).  Tolerances are fixed here and
must not be loosened; every expected value traces to an exact oracle or a
frozen closed form."""
import numpy as np
import pytest

from magic_meter.circuits import (
    Circuit,
    apply_circuit,
    circuit_unitary,
    doped_clifford_state,
    doped_layered_gate_layers,
    gate_h,
    gate_rz,
    gate_t,
    random_clifford_circuit,
    random_rotation_circuit,
)
from magic_meter.estimators import (
    estimate_bell_magic,
    estimate_moment_bell,
    estimate_moment_conjugate,
    estimate_moment_gradient,
    estimate_participation,
    exact_moment_gradient,
)
from magic_meter.experiments import (
    ExperimentConfig,
    haar_reference,
    rows_to_csv,
    run_preset,
)
from magic_meter.hamiltonians import Evolver, gue_hamiltonian
from magic_meter.noise import (
    NoiseKind,
    NoiseModel,
    apply_channel,
    mitigate_moment,
    relative_error_study,
)
from magic_meter.oracles import (
    bell_magic,
    bounds_report,
    clifford_average_flatness,
    clifford_average_otoc,
    d_min,
    enumerate_stabilizer_states,
    flatness,
    moment_operator,
    otoc,
    pauli_moment,
    renyi_stabilizer_entropy,
    stabilizer_fidelity,
    tsallis_stabilizer_entropy,
)
from magic_meter.paulis import pauli_from_index, pauli_from_string
from magic_meter.states import (
    choi_state,
    density_of,
    haar_random_state,
    t_state,
    zero_state,
)


def _report(num: int, name: str) -> None:
    print(f"[ACCEPTANCE] criterion {num:2d} ({name}): PASS")


def test_criterion_01_faithfulness():
    for nq in (1, 2):
        for psi in enumerate_stabilizer_states(nq):
            for n in (2, 3):
                assert abs(renyi_stabilizer_entropy(psi, n)) < 1e-10
                assert abs(tsallis_stabilizer_entropy(psi, n)) < 1e-10
    rng = np.random.default_rng(101)
    for _ in range(200):
        nq = int(rng.integers(1, 7))
        psi = apply_circuit(random_clifford_circuit(nq, 2 * nq, rng))
        for n in (2, 3):
            assert abs(renyi_stabilizer_entropy(psi, n)) < 1e-10
            assert abs(tsallis_stabilizer_entropy(psi, n)) < 1e-10
    for _ in range(200):
        nq = int(rng.integers(3, 7))
        psi = haar_random_state(nq, rng)
        assert renyi_stabilizer_entropy(psi, 2) > 1e-3
    _report(1, "faithfulness")


def test_criterion_02_bell_parity_estimator_doped_sweep():
    nq, n, shots, instances, seed = 3, 3, 1000, 6, 2026
    grid = range(7)
    exact_by_point, est_by_point = [], []
    for sweep_idx, n_t in enumerate(grid):
        exact_vals, est_vals, shot_ses = [], [], []
        for i in range(instances):
            rng = np.random.default_rng([seed, sweep_idx, i])
            psi = doped_clifford_state(nq, n_t, rng)
            exact_vals.append(tsallis_stabilizer_entropy(psi, n))
            res = estimate_moment_bell(psi, n, shots, rng)
            est_vals.append((res.value - 1.0) / (1 - n))
            shot_ses.append(res.std_error / (n - 1))
        diff = np.mean(est_vals) - np.mean(exact_vals)
        combined_se = np.sqrt(np.sum(np.square(shot_ses))) / instances
        assert abs(diff) <= 3 * combined_se + 1e-12
        exact_by_point.append(exact_vals)
        est_by_point.append(est_vals)
    means = [np.mean(v) for v in exact_by_point]
    assert means[0] == pytest.approx(0.0, abs=1e-10)
    assert means[6] > means[0] + 0.1  # rises from zero toward the plateau
    ref = haar_reference(nq, n, 2000, np.random.default_rng([seed, 999]))
    ensemble_std = np.std(exact_by_point[6], ddof=1)
    assert abs(np.mean(exact_by_point[6]) - ref["tsallis_mean"]) <= 2 * ensemble_std
    _report(2, "two-copy Bell estimator on the doped-Clifford sweep")


def test_criterion_03_conjugate_estimator():
    rng_master = np.random.default_rng(314)
    for case in range(20):
        nq = int(rng_master.integers(1, 4))
        psi = haar_random_state(nq, rng_master)
        for n in (2, 3, 4):
            exact = pauli_moment(psi, n)
            res = estimate_moment_conjugate(psi, n, 10_000, np.random.default_rng([314, case, n]))
            assert abs(res.value - exact) <= 3 * res.std_error
    psi_fix = t_state(2)
    exact_fix = pauli_moment(psi_fix, 2)
    covered = 0
    for k in range(200):
        res = estimate_moment_conjugate(psi_fix, 2, 10_000, np.random.default_rng([315, k]))
        covered += abs(res.value - exact_fix) <= 2 * res.std_error
    assert covered >= 0.90 * 200
    _report(3, "conjugate-sampling estimator and coverage")


def test_criterion_04_moment_operator_spectra():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.max(np.abs(moment_operator(1) - swap)) < 1e-12
    ev2 = np.linalg.eigvalsh(moment_operator(2))
    assert np.all(np.minimum(np.abs(ev2), np.abs(ev2 - 2.0)) < 1e-9)
    ev3 = np.linalg.eigvalsh(moment_operator(3))
    assert np.all(np.abs(np.abs(ev3) - 1.0) < 1e-9)
    _report(4, "replica moment-operator spectra")


def test_criterion_05_bound_sandwich():
    rng = np.random.default_rng(505)
    for _ in range(1000):
        nq = int(rng.integers(1, 4))
        psi = haar_random_state(nq, rng)
        f = stabilizer_fidelity(psi)
        for n in (2, 3):
            rep = bounds_report(psi, n)
            assert rep.fstab_lower <= f + 1e-9
            assert f <= rep.fstab_upper + 1e-9
    rep = bounds_report(t_state(), 2)
    triple = (rep.fstab_lower, stabilizer_fidelity(t_state()), rep.fstab_upper)
    for got, want in zip(triple, (0.5, 0.85355, 0.93060)):
        assert got == pytest.approx(want, abs=1e-4)
    _report(5, "stabilizer-fidelity sandwich")


def test_criterion_06_clifford_average_identities():
    nq = 2
    u_fixed = circuit_unitary(Circuit(nq, (gate_h(1), gate_t(1), gate_t(2))))
    for n in (2, 3):
        rhs = clifford_average_otoc(u_fixed, n)
        rng = np.random.default_rng([316, n])
        vals = []
        for _ in range(200):
            c1 = circuit_unitary(random_clifford_circuit(nq, 20, rng))
            c2 = circuit_unitary(random_clifford_circuit(nq, 20, rng))
            sigma = pauli_from_index(int(rng.integers(1, 16)), nq)
            sigma_p = pauli_from_index(int(rng.integers(1, 16)), nq)
            vals.append(otoc(c1 @ u_fixed @ c2, sigma, sigma_p, n))
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - rhs) <= 3 * se
    psi = np.kron(t_state(), zero_state(1))
    rhs_flat = clifford_average_flatness(psi)
    assert rhs_flat == pytest.approx(1 / 60, abs=1e-12)  # moment 3/4 at N = 2
    rng = np.random.default_rng(317)
    vals = [flatness(apply_circuit(random_clifford_circuit(nq, 20, rng), psi)) for _ in range(500)]
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - rhs_flat) <= 3 * se
    # the 1-qubit analogue admits an exact group average
    vals_exact = clifford_average_flatness(t_state())
    assert vals_exact == pytest.approx(1 / 24, abs=1e-12)
    _report(6, "Clifford-averaged OTOC and flatness identities")


def test_criterion_07_mitigation():
    rng = np.random.default_rng(700)
    for case in range(20):
        psi = haar_random_state(3, rng)
        for n in (2, 3):
            pure = pauli_moment(psi, n)
            for p in (0.05, 0.1, 0.2):
                rho = apply_channel(density_of(psi), NoiseModel(NoiseKind.GLOBAL_DEPOLARIZING, p))
                noisy = pauli_moment(rho, n)
                assert abs(mitigate_moment(noisy, p, n, 3) - pure) < 1e-10
    for case in range(20):
        psi = haar_random_state(3, np.random.default_rng([318, case]))
        pure = pauli_moment(psi, 3)
        for p in (0.05, 0.1, 0.2):
            rho = apply_channel(density_of(psi), NoiseModel(NoiseKind.GLOBAL_DEPOLARIZING, p))
            res = estimate_moment_bell(rho, 3, 10_000, np.random.default_rng([319, case, int(p * 100)]))
            mitigated = mitigate_moment(res.value, p, 3, 3)
            sigma = res.std_error / (1 - p) ** 6
            assert abs(mitigated - pure) <= 3 * sigma
    _report(7, "global-depolarizing mitigation, analytic and sampled")


NOISE_GRIDS = {
    NoiseKind.LOCAL_DEPOLARIZING: (2.5e-5, 1e-4, 4e-4, 9e-4),
    NoiseKind.DEPHASING: (2e-5, 8e-5, 3e-4, 7e-4),
    NoiseKind.AMPLITUDE_DAMPING: (3.5e-5, 1.5e-4, 6e-4, 1.3e-3),
}


def test_criterion_08_noise_study():
    from magic_meter.circuits import doped_layered_circuit

    nq, depth, instances = 6, 20, 20
    for family, n_t in (("clifford", 0), ("doped", nq)):
        circuits = [
            doped_layered_circuit(nq, depth, n_t, np.random.default_rng([44, n_t, i]))
            for i in range(instances)
        ]
        for kind, grid in NOISE_GRIDS.items():
            records = relative_error_study(circuits, kind, grid, n=2)
            impurities = np.array([r.impurity for r in records])
            assert impurities.min() <= 0.015 and impurities.max() >= 0.28
            ratios = np.array([r.ratio for r in records if r.ratio is not None])
            assert np.median(ratios) < 1.0, f"{family}/{kind.value}"
    _report(8, "local-noise mitigation study")


def test_criterion_09_gradients():
    rng = np.random.default_rng(909)
    h = 1e-4
    worst = 0.0
    for _ in range(10):
        nq = int(rng.integers(1, 4))
        circ = random_rotation_circuit(nq, 2, rng)
        k = int(rng.integers(len(circ.rotation_indices())))
        for n in (2, 3):
            up = pauli_moment(apply_circuit(circ.shifted(k, h)), n)
            down = pauli_moment(apply_circuit(circ.shifted(k, -h)), n)
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(exact_moment_gradient(circ, k, n) - fd))
    assert worst < 1e-6
    phase = Circuit(1, (gate_h(1), gate_rz(1, np.pi / 8)))
    res = estimate_moment_gradient(phase, 0, 2, 40_000, np.random.default_rng(910), allow_even=True)
    assert abs(res.value - (-0.5)) <= 3 * res.std_error
    _report(9, "shift-rule gradients vs finite differences")


def _layered_otoc_sweep(n_t: int, instances: int, dgrid, nq=4, dmax=40, seed=7):
    x1 = pauli_from_string("X" + "I" * (nq - 1))
    otocs = np.zeros((instances, len(dgrid)))
    rhs = np.zeros(instances)
    for i in range(instances):
        rng = np.random.default_rng([seed, n_t, i])
        layers = doped_layered_gate_layers(nq, dmax, n_t, rng)
        u = np.eye(1 << nq, dtype=complex)
        prefixes = []
        for layer in layers:
            u = circuit_unitary(Circuit(nq, tuple(layer))) @ u
            prefixes.append(u)
        for j, d in enumerate(dgrid):
            otocs[i, j] = otoc(prefixes[d - 1], x1, x1, 2)
        moment = pauli_moment(choi_state(prefixes[-1]), 2)
        d4 = 4**nq
        rhs[i] = (moment * d4 - 1.0) / (d4 - 1.0) ** 2
    return otocs, rhs


def test_criterion_10a_scrambling_depth():
    dgrid = [1, 2, 3, 5, 7, 10, 14, 20, 28, 40]
    for n_t, instances in ((0, 2000), (4, 800), (16, 800)):
        otocs, rhs = _layered_otoc_sweep(n_t, instances, dgrid)
        means = otocs.mean(axis=0)
        # trend: never a significant rise between consecutive depths
        for j in range(len(dgrid) - 1):
            step = otocs[:, j + 1] - otocs[:, j]
            se = np.std(step, ddof=1) / np.sqrt(instances)
            assert step.mean() <= 3 * se + 1e-12
        assert means[0] > means[-1]
        diff40 = otocs[:, -1] - rhs
        se40 = np.std(diff40, ddof=1) / np.sqrt(instances)
        assert abs(diff40.mean()) <= 3 * se40
        if n_t == 0:
            diff10 = otocs[:, dgrid.index(10)] - rhs
            se10 = np.std(diff10, ddof=1) / np.sqrt(instances)
            assert abs(diff10.mean()) <= 3 * se10
    _report(10, "scrambling depth sweep (part a)")


def test_criterion_10b_gue_flatness_dip():
    nq, instances = 3, 2000
    grid = np.logspace(-1, 3, 49)
    psi0 = zero_state(nq)
    flat = np.zeros((instances, len(grid)))
    formula = np.zeros(instances)
    for i in range(instances):
        rng = np.random.default_rng([123, i])
        ev = Evolver(gue_hamiltonian(nq, rng))
        for j, t in enumerate(grid):
            flat[i, j] = flatness(ev.evolve(float(t), psi0))
        late_moment = pauli_moment(ev.evolve(float(grid[-1]), psi0), 2)
        formula[i] = 2 * (1 - late_moment) / ((2**nq + 1) * (2**nq + 2))
    mean_curve = flat.mean(axis=0)
    dip_idx = int(np.argmin(np.where(grid > 1.0, mean_curve, np.inf)))
    diff = flat[:, dip_idx] - formula
    se = np.std(diff, ddof=1) / np.sqrt(instances)
    assert abs(diff.mean()) <= 3 * se
    gap = flat[:, -1] - flat[:, dip_idx]
    gap_se = np.std(gap, ddof=1) / np.sqrt(instances)
    assert gap.mean() > 3 * gap_se
    _report(10, "GUE flatness dip and late-time ramp (part b)")


def test_criterion_11_bell_magic():
    for nq in (1, 2):
        for psi in enumerate_stabilizer_states(nq):
            assert bell_magic(psi)[0] == pytest.approx(0.0, abs=1e-10)
    cases = [t_state()]
    rng = np.random.default_rng(1111)
    for _ in range(10):
        cases.append(haar_random_state(int(rng.integers(1, 4)), rng))
    for idx, psi in enumerate(cases):
        exact, _ = bell_magic(psi)
        res = estimate_bell_magic(psi, 20_000, np.random.default_rng([1112, idx]))
        assert abs(res.value - exact) <= 3 * max(res.std_error, 1e-12)
    violations = []
    rng = np.random.default_rng(1113)
    for _ in range(1000):
        nq = int(rng.integers(1, 4))
        psi = haar_random_state(nq, rng)
        lower = renyi_stabilizer_entropy(psi, 2) / 4
        if d_min(psi) < lower - 1e-6:
            violations.append((nq, d_min(psi), lower))
    assert not violations, f"soft-relation findings: {violations}"
    _report(11, "Bell magic exact, sampled, and the entropy relation")


def test_criterion_12_determinism():
    psi = t_state(2)
    pairs = []
    for make in (
        lambda s: estimate_moment_bell(psi, 3, 300, np.random.default_rng(s)),
        lambda s: estimate_moment_conjugate(psi, 2, 300, np.random.default_rng(s)),
        lambda s: estimate_bell_magic(psi, 300, np.random.default_rng(s)),
        lambda s: estimate_participation(psi, 2, 300, np.random.default_rng(s)),
    ):
        pairs.append((make(9).to_json(), make(9).to_json()))
    grad = Circuit(1, (gate_h(1), gate_rz(1, 0.3)))
    pairs.append(
        (
            estimate_moment_gradient(grad, 0, 3, 100, np.random.default_rng(9)).to_json(),
            estimate_moment_gradient(grad, 0, 3, 100, np.random.default_rng(9)).to_json(),
        )
    )
    for a, b in pairs:
        assert a == b
    cfg = ExperimentConfig(
        preset="doped_clifford_sweep",
        seed=3,
        threads=2,
        params={
            "qubits": 2, "grid": (0, 1), "instances": 2, "shots": 64, "n": (3,),
            "clifford_depth": 4, "haar_samples": 30,
        },
    )
    assert rows_to_csv(run_preset(cfg)) == rows_to_csv(run_preset(cfg))
    _report(12, "seeded determinism of estimators and presets")
