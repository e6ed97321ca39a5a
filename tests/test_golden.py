"""Frozen preset output.

Every preset runs at a small config and must reproduce the rows frozen in
tests/data/golden/<name>.csv: the same rows in the same order, identical
(sweep, quantity, kind, instances), and mean/std within rtol 1e-12 plus
atol 1e-14, so that a different LAPACK build cannot make the test flaky.

Refreeze only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py
"""
from pathlib import Path

import numpy as np
import pytest

from magic_meter.experiments import PRESETS, ExperimentConfig, rows_to_csv, run_preset

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

GOLDEN_CONFIGS = {
    "doped_clifford_n3": dict(preset="doped_clifford_sweep", seed=1, params={
        "qubits": 3, "grid": (0, 1, 3), "instances": 3, "shots": 200, "n": (2, 3), "haar_samples": 20,
    }),
    "doped_clifford_n4": dict(preset="doped_clifford_sweep", seed=2, params={
        "qubits": 4, "grid": (0, 2), "instances": 2, "shots": 100, "n": (2, 3),
        "clifford_depth": 8, "haar_samples": 10,
    }),
    "scrambling_depth": dict(preset="scrambling_depth_sweep", seed=3, params={
        "qubits": 3, "grid": (1, 2, 5), "instances": 3, "tgates": (0, 4),
    }),
    "gue_time": dict(preset="gue_time_sweep", seed=4, params={
        "qubits": 2, "grid": (0.1, 1.0, 10.0), "instances": 4,
    }),
    "random_pauli": dict(preset="random_pauli_sweep", seed=5, params={
        "qubits": 3, "grid": (0.5, 5.0), "instances": 3, "k_terms": (4, 16),
    }),
    "ising": dict(preset="ising_sweep", seed=6, params={
        "qubits": 3, "grid": (0.5, 5.0), "instances": 3, "disorder": (0.5, 5.0), "delta": 0.2,
    }),
    "random_circuit_depth": dict(preset="random_circuit_depth", seed=7, params={
        "qubits": 2, "grid": (1, 3, 6), "instances": 4,
    }),
    "monotone_relation": dict(preset="monotone_relation_sweep", params={
        "grid": (0.2, 0.6, 1.0), "qubit_counts": (1, 2, 3),
    }),
    # p = 0 leaves no mitigation error to compare, so its ratio rows are absent
    "noise_mitigation": dict(preset="noise_mitigation_study", seed=9, params={
        "qubits": 3, "grid": (0.0, 1e-3, 5e-3), "instances": 2, "n": 2,
        "models": ("dephasing", "amplitude_damping", "local_depolarizing"), "depth": 4,
    }),
}


def _run(name: str, threads: int) -> str:
    return rows_to_csv(run_preset(ExperimentConfig(**GOLDEN_CONFIGS[name], threads=threads)))


def _parse(csv_text: str):
    lines = csv_text.splitlines()
    header, body = lines[0], [line.split(",") for line in lines[1:]]
    keys = [(sweep, quantity, kind, int(instances)) for sweep, quantity, _, _, instances, kind in body]
    mean = np.array([float(row[2]) for row in body])
    std = np.array([float(row[3]) for row in body])
    return header, keys, mean, std


def test_every_preset_has_a_golden_config():
    assert {cfg["preset"] for cfg in GOLDEN_CONFIGS.values()} == set(PRESETS)


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_preset_matches_golden_rows(name, threads):
    header, keys, mean, std = _parse(_run(name, threads))
    gold_header, gold_keys, gold_mean, gold_std = _parse((GOLDEN_DIR / f"{name}.csv").read_text())
    assert header == gold_header
    assert keys == gold_keys
    np.testing.assert_allclose(mean, gold_mean, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(std, gold_std, rtol=1e-12, atol=1e-14)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for config_name in GOLDEN_CONFIGS:
        (GOLDEN_DIR / f"{config_name}.csv").write_text(_run(config_name, 1))
