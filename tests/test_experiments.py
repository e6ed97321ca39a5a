import json

import numpy as np
import pytest

from magic_meter.experiments import (
    ConfigError,
    ExperimentConfig,
    haar_reference,
    load_config,
    parse_config_text,
    product_phase_state,
    product_state_d_min,
    rows_to_csv,
    rows_to_json,
    run_preset,
)
from magic_meter.oracles import d_min, renyi_stabilizer_entropy


def _rows_by_quantity(rows, quantity):
    return [r for r in rows if r.quantity == quantity]


def test_config_parsing_text():
    cfg = parse_config_text(
        """
        # comment
        preset = doped_clifford_sweep
        qubits = 3
        grid = 0,1,2
        instances = 2
        shots = 50
        n = 3
        seed = 7
        clifford_depth = 5
        """
    )
    assert cfg.preset == "doped_clifford_sweep"
    assert cfg.n_qubits == 3
    assert cfg.grid == (0, 1, 2)
    assert cfg.moment_indices == (3,)
    assert cfg.seed == 7
    assert cfg.params["clifford_depth"] == 5


def test_config_parsing_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"preset": "gue_time_sweep", "qubits": 2, "grid": [0.1, 1.0], "instances": 3}')
    cfg = load_config(str(p))
    assert cfg.preset == "gue_time_sweep"
    assert cfg.grid == (0.1, 1.0)


def test_config_missing_preset():
    with pytest.raises(ConfigError, match="preset"):
        parse_config_text("qubits = 3\n")


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        run_preset(ExperimentConfig(preset="nope"))


@pytest.mark.parametrize(
    "field, value",
    [
        ("qubits", 0),
        ("qubits", "three"),
        ("instances", 0),
        ("shots", 0),
        ("shots", -5),
        ("haar_samples", 1),
        ("grid", []),
    ],
)
def test_nonpositive_sizes_are_config_errors(capsys, tmp_path, field, value):
    from magic_meter.cli import main

    doc = {"preset": "doped_clifford_sweep", "qubits": 2, "grid": [0], "instances": 1,
           "shots": 10, "haar_samples": 2, field: value}
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(cfg), "--seed", "0"]) == 3
    assert field in capsys.readouterr().err


def test_random_pauli_sweep_runs_with_default_register():
    # the default register must hold the largest default K of 70 distinct strings
    rows = run_preset(ExperimentConfig(preset="random_pauli_sweep", grid=(1.0,), instances=1))
    assert {r.quantity for r in rows} >= {"flatness_K4", "flatness_K16", "flatness_K70"}


def test_haar_reference_scaling():
    ref = haar_reference(3, 3, 400, np.random.default_rng(0))
    assert ref["tsallis_mean"] > 0.2  # far above the stabilizer value 0
    big = haar_reference(3, 3, 1600, np.random.default_rng(1))
    # quadrupling samples should roughly halve the standard error
    assert big["tsallis_se"] < ref["tsallis_se"] * 0.7


def test_doped_clifford_sweep_structure():
    cfg = ExperimentConfig(
        preset="doped_clifford_sweep",
        n_qubits=2,
        grid=(0, 1),
        instances=2,
        shots=64,
        moment_indices=(3,),
        seed=1,
        params={"clifford_depth": 4, "haar_samples": 50},
    )
    rows = run_preset(cfg)
    t3 = _rows_by_quantity(rows, "T3_exact")
    assert [r.sweep for r in t3] == [0.0, 1.0]
    assert t3[0].mean == pytest.approx(0.0, abs=1e-10)
    assert t3[1].mean > 0 or t3[1].mean == 0.0  # single-T states can be Clifford-fixed
    assert _rows_by_quantity(rows, "fstab_exact")
    haar = _rows_by_quantity(rows, "T3_haar")
    assert len(haar) == 1 and haar[0].kind == "analytic"
    est = _rows_by_quantity(rows, "T3_est")
    assert est and all(r.kind == "estimated" for r in est)


def test_doped_sweep_estimates_track_exact():
    cfg = ExperimentConfig(
        preset="doped_clifford_sweep",
        n_qubits=3,
        grid=(0, 2, 4),
        instances=4,
        shots=1500,
        moment_indices=(3,),
        seed=3,
        params={"haar_samples": 50},
    )
    rows = run_preset(cfg)
    for sweep in (0.0, 2.0, 4.0):
        exact = next(r for r in rows if r.quantity == "T3_exact" and r.sweep == sweep)
        est = next(r for r in rows if r.quantity == "T3_est" and r.sweep == sweep)
        shot_se = next(r for r in rows if r.quantity == "T3_est_shot_se" and r.sweep == sweep)
        tol = 3 * max(shot_se.mean / np.sqrt(est.instances), 1e-12) + 1e-9
        assert abs(est.mean - exact.mean) <= tol


def test_scrambling_depth_sweep_small():
    cfg = ExperimentConfig(
        preset="scrambling_depth_sweep",
        n_qubits=2,
        grid=(1, 5, 10),
        instances=30,
        seed=4,
        params={"tgates": (0,)},
    )
    rows = run_preset(cfg)
    otoc_rows = _rows_by_quantity(rows, "otoc8_x1x1_NT0")
    assert len(otoc_rows) == 3
    assert otoc_rows[0].sweep == 1.0
    # Clifford circuits keep the Choi moment at 1: analytic value is 1/(4^N-1)
    analytic = _rows_by_quantity(rows, "cliff_avg_otoc8_NT0")[0]
    assert analytic.mean == pytest.approx(1 / 15, abs=1e-10)
    assert analytic.std == pytest.approx(0.0, abs=1e-12)
    # deep layer: same-site OTOC near the Clifford average
    deep = otoc_rows[-1]
    se = deep.std / np.sqrt(deep.instances)
    assert abs(deep.mean - 1 / 15) <= 4 * se + 1e-12


def test_gue_time_sweep_rows():
    cfg = ExperimentConfig(
        preset="gue_time_sweep",
        n_qubits=2,
        grid=(0.1, 1.0, 100.0),
        instances=40,
        seed=5,
    )
    rows = run_preset(cfg)
    flat = _rows_by_quantity(rows, "flatness")
    assert [r.sweep for r in flat] == [0.1, 1.0, 100.0]
    assert all(r.instances == 40 for r in flat)
    assert _rows_by_quantity(rows, "cliff_avg_flatness")[0].kind == "analytic"
    m2 = _rows_by_quantity(rows, "M2")
    assert m2[0].mean < m2[1].mean  # entropy grows from t=0.1 to t=1


def test_random_pauli_and_ising_sweeps_run():
    cfg = ExperimentConfig(
        preset="random_pauli_sweep",
        n_qubits=2,
        grid=(0.5, 5.0),
        instances=5,
        seed=6,
        params={"k_terms": (4,)},
    )
    rows = run_preset(cfg)
    assert _rows_by_quantity(rows, "flatness_K4")
    cfg2 = ExperimentConfig(
        preset="ising_sweep",
        n_qubits=3,
        grid=(0.5, 5.0),
        instances=4,
        seed=7,
        params={"disorder": (1.0,), "delta": 0.2},
    )
    rows2 = run_preset(cfg2)
    assert _rows_by_quantity(rows2, "flatness_W1.0")


def test_random_circuit_depth_magic_grows():
    cfg = ExperimentConfig(
        preset="random_circuit_depth",
        n_qubits=2,
        grid=(1, 6),
        instances=20,
        seed=8,
    )
    rows = run_preset(cfg)
    m2 = _rows_by_quantity(rows, "M2_choi")
    assert m2[0].mean < m2[1].mean


def test_monotone_relation_sweep():
    cfg = ExperimentConfig(
        preset="monotone_relation_sweep",
        grid=(0.2, 0.6, 1.0),
        params={"qubit_counts": (1, 2)},
    )
    rows = run_preset(cfg)
    m2 = _rows_by_quantity(rows, "M2_N2")
    assert len(m2) == 3
    assert m2[0].mean < m2[-1].mean  # grows with s
    d = _rows_by_quantity(rows, "D_min_N1")
    assert d[-1].mean == pytest.approx(d_min(product_phase_state(1, 1.0)), abs=1e-10)


def test_product_state_d_min_multiplicative_matches_enumeration():
    for nq in (2, 3):
        for s in (0.3, 0.7, 1.0):
            direct = d_min(product_phase_state(nq, s))
            assert product_state_d_min(nq, s) == pytest.approx(direct, abs=1e-9)


def test_monotone_collapse_matched_theta():
    # M2, D_min and additive Bell magic scale with s^2 N at small s:
    # curves at matched theta = s sqrt(N) agree across qubit counts
    from magic_meter.oracles import bell_magic

    theta = 0.35
    vals = {}
    for nq in (2, 4):
        s = theta / np.sqrt(nq)
        psi = product_phase_state(nq, s)
        vals[nq] = (
            renyi_stabilizer_entropy(psi, 2),
            product_state_d_min(nq, s),
            bell_magic(psi)[1],
        )
    for a, b in zip(vals[2], vals[4]):
        assert abs(a / b - 1) < 0.1


def test_noise_mitigation_preset_reduced():
    cfg = ExperimentConfig(
        preset="noise_mitigation_study",
        n_qubits=3,
        grid=(1e-3, 5e-3),
        instances=3,
        moment_indices=(2,),
        seed=9,
        params={"models": ("dephasing",), "depth": 6},
    )
    rows = run_preset(cfg)
    ratios = [r for r in rows if r.quantity.startswith("ratio_median_dephasing")]
    assert len(ratios) == 4  # 2 p-values x {clifford, doped}
    assert all(r.mean < 1.0 for r in ratios if r.quantity.endswith("doped"))


def test_preset_determinism_and_serialization():
    cfg = ExperimentConfig(
        preset="doped_clifford_sweep",
        n_qubits=2,
        grid=(0, 1),
        instances=2,
        shots=32,
        moment_indices=(3,),
        seed=11,
        params={"clifford_depth": 3, "haar_samples": 20},
    )
    rows_a = run_preset(cfg)
    rows_b = run_preset(cfg)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
    doc = rows_to_json(cfg, rows_a)
    assert '"preset": "doped_clifford_sweep"' in doc
    assert rows_to_csv(rows_a).splitlines()[0] == "sweep,quantity,mean,std,instances,kind"


def test_thread_count_does_not_change_results():
    base = dict(
        preset="gue_time_sweep", n_qubits=2, grid=(0.5, 2.0), instances=6, seed=12
    )
    rows_serial = run_preset(ExperimentConfig(**base, threads=1))
    rows_parallel = run_preset(ExperimentConfig(**base, threads=4))
    assert rows_to_csv(rows_serial) == rows_to_csv(rows_parallel)
