"""The benchmark's workloads: generated preset configs and the call counts a
complete trace of each must show.

A workload is a function of (size, input seed) returning the JSON config the
CLI reads. ``full`` is what the benchmark measures; ``tiny`` is the same
preset shrunk for the self-test. The library receives only the config.
"""
from __future__ import annotations

# The --seed argument n selects input seed INPUT_SEEDS[n % 8], which has a frozen
# reference CSV under reference/<size>/<workload>/seed<k>.csv. Input seed 7
# is left out: there the full `spectrum` sweep raises in the library's own
# estimator spot check (a 3.2 shot-error deviation; see NOTES.md).
INPUT_SEEDS = (0, 1, 2, 3, 4, 5, 6, 8)

# The untraced run (--trace 0) runs instance loops on one worker. With the
# default pool (one worker per core) the GIL-bound sweeps stall whenever the
# host takes either core away, and on a shared 2-vCPU machine their wall
# time spread 23-49% from run to run against 11% serial. The traced run
# (--trace 1) keeps the library default (threads = 0, one worker per core)
# so that the pool is measured; its metrics carry no bound. Results do not
# depend on the thread count.
SERIAL_THREADS = 1
DEFAULT_THREADS = 0

NOISE_MODELS = ("local_depolarizing", "dephasing", "amplitude_damping")
NOISE_P_GRID = (2e-5, 1e-4, 5e-4, 2e-3)  # the preset's default grid, written out


def scrambling(size: str, seed: int) -> dict:
    """Criterion-10a path: depth sweep of OTOCs, flatness and Choi moments
    on 16x16 unitaries."""
    if size == "tiny":
        return {"preset": "scrambling_depth_sweep", "qubits": 3, "grid": [1, 2, 5],
                "instances": 3, "tgates": [0, 4, 16], "seed": seed}
    return {"preset": "scrambling_depth_sweep", "qubits": 4,
            "grid": [1, 2, 3, 5, 7, 10, 14, 20, 28, 40], "instances": 40,
            "tgates": [0, 4, 16], "seed": seed}


def noise(size: str, seed: int) -> dict:
    """Criterion-08 path: serial density-matrix simulation under three local
    channels, four strengths each."""
    if size == "tiny":
        return {"preset": "noise_mitigation_study", "qubits": 3, "depth": 4, "instances": 1,
                "models": list(NOISE_MODELS), "grid": [1e-4, 2e-3], "n": 2, "seed": seed}
    return {"preset": "noise_mitigation_study", "qubits": 6, "depth": 20, "instances": 1,
            "models": list(NOISE_MODELS), "grid": list(NOISE_P_GRID), "n": 2, "seed": seed}


def spectrum(size: str, seed: int) -> dict:
    """The only path with 1024x1024 Walsh-Hadamard transforms, the 2^20
    Bell register, sampling and both moment estimators."""
    if size == "tiny":
        return {"preset": "doped_clifford_sweep", "qubits": 6, "grid": [0, 6], "instances": 1,
                "shots": 200, "n": [2, 3], "haar_samples": 4, "seed": seed}
    return {"preset": "doped_clifford_sweep", "qubits": 10, "grid": [0, 6], "instances": 1,
            "shots": 2000, "n": [2, 3], "haar_samples": 4, "seed": seed}


WORKLOADS = {"scrambling": scrambling, "noise": noise, "spectrum": spectrum}


def make_config(workload: str, size: str, seed: int, threads: int = SERIAL_THREADS) -> dict:
    return {**WORKLOADS[workload](size, seed), "threads": threads}


def _doped_layered_gate_count(n_qubits: int, depth: int, n_tgates: int) -> int:
    """Gates in doped_layered_circuit: per layer one Clifford per qubit and the
    N-1 CNOT chain, plus the inserted T gates."""
    return depth * (2 * n_qubits - 1) + n_tgates


# X-masks per Walsh-Hadamard call in paulis.all_expectations (its default
# chunk), so one spectrum of a q-qubit state makes ceil(2^q / 512) wht calls.
SPECTRUM_CHUNK = 512


def _spectrum_calls(state_qubits: list[int]) -> dict[str, int]:
    """all_expectations and wht counts for one full Pauli spectrum of each
    state, given the state's qubit count (pauli_moment makes one spectrum)."""
    return {
        "paulis.all_expectations.calls": len(state_qubits),
        "paulis.all_expectations.values": sum(4**q for q in state_qubits),
        "bits.wht.calls": sum(-(-(2**q) // SPECTRUM_CHUNK) for q in state_qubits),
    }


def expected_calls(config: dict) -> dict[str, int | tuple[int, int]]:
    """Call counts one sweep of the config makes, derived from the config
    alone: an exact count, or an inclusive (low, high) range where the count
    depends on sampled outcomes. A traced sweep whose counts differ missed
    (or double-wrapped) a binding, so the trace is incomplete."""
    common = {"cli.main.calls": 1, "experiments.run_preset.calls": 1}
    preset = config["preset"]
    inst = config["instances"]
    nq = config["qubits"]
    if preset == "scrambling_depth_sweep":
        depths, depth_max = len(config["grid"]), max(config["grid"])
        runs = inst * len(config["tgates"])
        otocs = 2 * depths * runs
        return {
            **common,
            "oracles.otoc.calls": otocs,
            # one per column of U and of U^dag, for each OTOC
            "paulis.apply_pauli.calls": otocs * 2 * 2**nq,
            "circuits.circuit_unitary.calls": depth_max * runs,
            "circuits.apply_gate.calls": inst * sum(
                _doped_layered_gate_count(nq, depth_max, t) for t in config["tgates"]),
            "states.choi_state.calls": runs,
            # Choi moment (2N qubits) plus clifford_average_flatness (N qubits)
            "oracles.pauli_moment.calls": 2 * runs,
            **_spectrum_calls([2 * nq] * runs + [nq] * runs),
            "circuits.apply_circuit.calls": 0,
            "paulis.expectation.calls": 0,
            "noise.noisy_circuit_state.calls": 0,
            "estimators.bell_distribution.calls": 0,
        }
    if preset == "noise_mitigation_study":
        depth = config["depth"]
        sims = inst * len(config["models"])  # per family: one pure run per model
        ps = len(config["grid"])
        families = (0, nq)  # T gates: clifford and doped
        gates = [_doped_layered_gate_count(nq, depth, t) for t in families]
        moments = len(families) * sims * (1 + ps)
        return {
            **common,
            "noise.noisy_circuit_state.calls": len(families) * sims * ps,
            "noise.apply_channel.calls": sum(gates) * sims * ps,
            "circuits.apply_circuit.calls": len(families) * sims,
            # once per gate of each pure run, twice (rho U^dag, then U) per
            # gate of each noisy run
            "circuits.apply_gate.calls": sum(gates) * sims * (1 + 2 * ps),
            "oracles.pauli_moment.calls": moments,
            **_spectrum_calls([nq] * moments),
            "circuits.circuit_unitary.calls": 0,
            "paulis.apply_pauli.calls": 0,
            "paulis.expectation.calls": 0,
            "estimators.bell_distribution.calls": 0,
        }
    if preset == "doped_clifford_sweep":
        grid, ns = config["grid"], config["n"]
        points = len(grid) * inst
        odd = sum(1 for n in ns if n % 2)
        conjugate = points * (len(ns) - odd)
        # pauli_moment, tsallis and renyi per n, plus the Haar reference samples
        moments = 3 * points * len(ns) + config["haar_samples"] * len(ns)
        # doped_clifford_state: n_t + 1 Clifford blocks of the default proxy
        # depth (10 N layers), with one T gate between consecutive blocks
        block = 10 * nq * (2 * nq - 1)
        # one expectation, hence one apply_pauli, per distinct sampled Pauli
        # string: at least one and at most `shots` per conjugate estimate
        sampled = (conjugate, conjugate * config["shots"])
        return {
            **common,
            "estimators.estimate_moment_bell.calls": points * odd,
            "estimators.estimate_moment_conjugate.calls": conjugate,
            "estimators.bell_distribution.calls": points * len(ns),
            "estimators.sample_bell.calls": points * len(ns),
            "paulis.expectation.calls": sampled,
            "paulis.apply_pauli.calls": sampled,
            "circuits.apply_circuit.calls": inst * sum(t + 1 for t in grid),
            "circuits.apply_gate.calls": inst * sum((t + 1) * block + t for t in grid),
            "oracles.pauli_moment.calls": moments,
            **_spectrum_calls([nq] * moments),
            "experiments.haar_reference.calls": len(ns),
            "circuits.circuit_unitary.calls": 0,
            "noise.noisy_circuit_state.calls": 0,
        }
    raise ValueError(f"no expected counts for preset {preset!r}")
