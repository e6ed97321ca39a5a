import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from magic_meter.experiments import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    haar_reference,
    load_config,
    parse_config_text,
    product_phase_state,
    product_state_d_min,
    rows_to_csv,
    rows_to_json,
    _resolve,
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
    assert cfg.params["qubits"] == 3
    assert cfg.params["grid"] == (0, 1, 2)
    assert _resolve(cfg).params["n"] == (3,)
    assert cfg.seed == 7
    assert cfg.params["clifford_depth"] == 5


def test_config_parsing_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"preset": "gue_time_sweep", "qubits": 2, "grid": [0.1, 1.0], "instances": 3}')
    cfg = load_config(str(p))
    assert cfg.preset == "gue_time_sweep"
    assert _resolve(cfg).params["grid"] == (0.1, 1.0)


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


_SMALL_SWEEP = {"preset": "scrambling_depth_sweep", "qubits": 2, "grid": [1], "instances": 1}
_SMALL_NOISE = {"preset": "noise_mitigation_study", "qubits": 2, "grid": [1e-3], "instances": 1,
                "depth": 2, "n": 2, "models": ["dephasing"]}
_SMALL_DOPED = {"preset": "doped_clifford_sweep", "qubits": 2, "grid": [0], "instances": 1,
                "shots": 10, "haar_samples": 2}

# config -> the key the error must name; each value was once truncated by
# int() or crashed with a traceback instead of a config error
_BAD_INTEGER_CONFIGS = {
    "float_shots": (json.dumps({**_SMALL_SWEEP, "shots": 2.5}), "shots"),
    "float_moment": (json.dumps({**_SMALL_SWEEP, "n": [2.5, 3]}), "n"),
    "float_seed": (json.dumps({**_SMALL_SWEEP, "seed": 1.5}), "seed"),
    "float_threads": (json.dumps({**_SMALL_SWEEP, "threads": 1.7}), "threads"),
    "flat_float_shots": ("preset = scrambling_depth_sweep\nqubits = 2\ngrid = 1\nshots = 10.9\n", "shots"),
    "bool_shots": (json.dumps({**_SMALL_SWEEP, "shots": True}), "shots"),
    "null_tgates": (json.dumps({**_SMALL_SWEEP, "tgates": None}), "tgates"),
    "empty_moments": (json.dumps({**_SMALL_NOISE, "n": []}), "n"),
    "zero_depth": (json.dumps({**_SMALL_NOISE, "depth": 0}), "depth"),
    "negative_clifford_depth": (json.dumps({**_SMALL_DOPED, "clifford_depth": -1}), "clifford_depth"),
    "float_tgates": (json.dumps({**_SMALL_SWEEP, "tgates": [2.5]}), "tgates"),
    "negative_tgates": (json.dumps({**_SMALL_SWEEP, "tgates": [0, -1]}), "tgates"),
    "bool_tgates": (json.dumps({**_SMALL_SWEEP, "tgates": [True]}), "tgates"),
    "flat_float_tgates": ("preset = scrambling_depth_sweep\nqubits = 2\ngrid = 1\ntgates = 0, 1.5\n", "tgates"),
    "float_k_terms": (json.dumps({**_SMALL_SWEEP, "preset": "random_pauli_sweep", "grid": [0.5],
                                  "k_terms": [3.7]}), "k_terms"),
    "zero_k_terms": (json.dumps({**_SMALL_SWEEP, "preset": "random_pauli_sweep", "grid": [0.5],
                                 "k_terms": [0]}), "k_terms"),
    "float_qubit_counts": (json.dumps({"preset": "monotone_relation_sweep", "grid": [0.5],
                                       "qubit_counts": [1, 2.5]}), "qubit_counts"),
    "zero_qubit_counts": (json.dumps({"preset": "monotone_relation_sweep", "grid": [0.5],
                                      "qubit_counts": [0]}), "qubit_counts"),
    "text_time_grid": ("preset = gue_time_sweep\ngrid = abc\n", "grid"),
    "text_delta": ("preset = ising_sweep\ndelta = x\n", "delta"),
    "text_disorder": ("preset = ising_sweep\ndisorder = y\n", "disorder"),
    "nan_time_grid": ("preset = gue_time_sweep\ngrid = 0.5, nan\n", "grid"),
    "bool_delta": (json.dumps({"preset": "ising_sweep", "delta": True}), "delta"),
    "huge_time_grid": (json.dumps({"preset": "gue_time_sweep", "grid": [10**400]}), "grid"),
    "float_tgate_grid": (json.dumps({**_SMALL_DOPED, "grid": [2.5]}), "grid"),
    "negative_tgate_grid": (json.dumps({**_SMALL_DOPED, "grid": [-1]}), "grid"),
    "first_moment_noise": (json.dumps({**_SMALL_NOISE, "n": 1}), "n"),
    "first_moment_doped": (json.dumps({**_SMALL_DOPED, "n": [1]}), "n"),
    # integral floats in an integer grid once ran as their integers
    "flat_float_depth_grid": ("preset = scrambling_depth_sweep\nqubits = 2\ngrid = 1.0, 2.0\n", "grid"),
    "flat_float_circuit_depth_grid": ("preset = random_circuit_depth\nqubits = 2\ngrid = 1.0, 2.0\n", "grid"),
    "float_tgate_count_grid": (json.dumps({**_SMALL_DOPED, "grid": [0.0]}), "grid"),
    # integers beyond the float range once resolved in an integer key
    "huge_instances": (json.dumps({**_SMALL_SWEEP, "instances": 10**400}), "instances"),
    "huge_shots": (json.dumps({**_SMALL_DOPED, "shots": 10**400}), "shots"),
    "huge_seed": (json.dumps({**_SMALL_SWEEP, "seed": 10**400}), "seed"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INTEGER_CONFIGS))
def test_integer_fields_are_checked_not_truncated(capsys, tmp_path, case):
    from magic_meter.cli import main

    text, key = _BAD_INTEGER_CONFIGS[case]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=key):
        _resolve(parse_config_text(text))
    assert main(["experiment", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("depth", [0, -1, 2.5])
@pytest.mark.parametrize("preset", ["scrambling_depth_sweep", "random_circuit_depth"])
def test_depth_grid_points_must_be_integers_of_at_least_one(preset, depth):
    with pytest.raises(ConfigError, match="grid"):
        run_preset(ExperimentConfig(preset=preset, params={"qubits": 2, "grid": (depth, 2), "instances": 1}))


@pytest.mark.parametrize("preset", ["doped_clifford_sweep", "scrambling_depth_sweep", "random_circuit_depth"])
def test_a_numpy_integer_grid_runs_as_its_integers(preset):
    # the grid keeps its numpy integers; each indexes and labels as the int does
    params = {"qubits": 2, "instances": 2}
    if preset == "doped_clifford_sweep":
        params |= {"shots": 10, "haar_samples": 2}

    def csv(grid):
        return rows_to_csv(run_preset(ExperimentConfig(preset, {**params, "grid": grid}, threads=1)))

    assert csv(np.arange(1, 4)) == csv((1, 2, 3))


# one misspelling of a key per preset; the presets without own keys get a
# misspelled common field
_MISSPELLED_KEYS = {
    "doped_clifford_sweep": "haar_sample",
    "scrambling_depth_sweep": "tgate",
    "gue_time_sweep": "instance",
    "random_pauli_sweep": "k_term",
    "ising_sweep": "disorders",
    "random_circuit_depth": "depths",
    "monotone_relation_sweep": "qubit_count",
    "noise_mitigation_study": "model",
}


@pytest.mark.parametrize("preset", PRESETS)
def test_misspelled_key_is_config_error(capsys, tmp_path, preset):
    from magic_meter.cli import main

    key = _MISSPELLED_KEYS[preset]
    with pytest.raises(ConfigError, match=f"'{key}'"):
        run_preset(ExperimentConfig(preset=preset, params={key: 4}))
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"preset": preset, key: [4]}))
    assert main(["experiment", "--config", str(cfg), "--seed", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{key}'" in err


# every key each preset reads; another preset's key, and the old config field
# names n_qubits and moment_indices, were once accepted and ignored
_READS = {
    "doped_clifford_sweep": {"qubits", "grid", "instances", "n", "shots", "clifford_depth", "haar_samples"},
    "scrambling_depth_sweep": {"qubits", "grid", "instances", "tgates"},
    "gue_time_sweep": {"qubits", "grid", "instances"},
    "random_pauli_sweep": {"qubits", "grid", "instances", "k_terms"},
    "ising_sweep": {"qubits", "grid", "instances", "disorder", "delta"},
    "random_circuit_depth": {"qubits", "grid", "instances"},
    "monotone_relation_sweep": {"grid", "qubit_counts"},
    "noise_mitigation_study": {"qubits", "grid", "instances", "n", "depth", "models"},
}
_UNREAD_KEYS = {
    f"{preset}-{key}": (json.dumps({"preset": preset, key: 2}), f"unknown key '{key}'")
    for preset, reads in _READS.items()
    for key in sorted(set().union(*_READS.values(), {"n_qubits", "moment_indices"}) - reads)
}
# the noise study reads one moment index; n = 2, 3 once ran n = 2 alone
_UNREAD_KEYS["noise_mitigation_study-n_list"] = ("preset = noise_mitigation_study\nn = 2, 3\n", "n takes one value")


@pytest.mark.parametrize("case", sorted(_UNREAD_KEYS))
def test_a_key_the_preset_does_not_read_is_config_error(capsys, tmp_path, case):
    from magic_meter.cli import main

    text, message = _UNREAD_KEYS[case]
    with pytest.raises(ConfigError, match=message):
        _resolve(parse_config_text(text))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["experiment", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_unknown_noise_model_is_config_error(capsys, tmp_path):
    from magic_meter.cli import main

    cfg = tmp_path / "noise.json"
    cfg.write_text(json.dumps({"preset": "noise_mitigation_study", "qubits": 2, "instances": 1,
                               "grid": [1e-3], "depth": 2, "models": ["dephasing", "depolarising"]}))
    assert main(["experiment", "--config", str(cfg), "--seed", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: models:") and "'depolarising'" in err


def test_flat_scalar_of_a_tuple_key_is_a_one_tuple():
    base = "preset = scrambling_depth_sweep\nqubits = 2\ngrid = 1,2\ninstances = 2\nthreads = 1\n"
    scalar = run_preset(parse_config_text(base + "tgates = 4\n"))
    assert all(r.quantity.endswith("_NT4") for r in scalar)
    assert rows_to_csv(scalar) == rows_to_csv(run_preset(parse_config_text(base + "tgates = 4,\n")))


def test_clifford_depth_zero_reaches_the_circuit_builder():
    # no Clifford layers: T gates on |0...0> leave a stabilizer state, A_2 = 1
    rows = run_preset(ExperimentConfig(
        preset="doped_clifford_sweep",
        params={
            "qubits": 2, "grid": (3,), "instances": 1, "shots": 10, "n": (2,), "clifford_depth": 0,
            "haar_samples": 2,
        },
    ))
    assert _rows_by_quantity(rows, "A2_exact")[0].mean == pytest.approx(1.0, abs=1e-12)


def test_every_benchmark_workload_config_resolves():
    # read, not edited: a tighter key check must not break the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for size in ("tiny", "full"):
            for seed in workloads.INPUT_SEEDS:
                doc = workloads.make_config(name, size, seed)
                resolved = _resolve(parse_config_text(json.dumps(doc)))
                assert resolved.preset == doc["preset"] and resolved.seed == seed


def test_every_traced_function_is_bound_in_its_module():
    # read, not edited: a moved or renamed traced function fails here, not in
    # the next traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, function, _ in tracer.TRACED:
        bound = getattr(importlib.import_module(f"magic_meter.{module}"), function, None)
        assert callable(bound), f"magic_meter.{module}.{function}"


def test_random_pauli_sweep_runs_with_default_register():
    # the default register must hold the largest default K of 70 distinct strings
    rows = run_preset(ExperimentConfig(preset="random_pauli_sweep", params={"grid": (1.0,), "instances": 1}))
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
        seed=1,
        params={
            "qubits": 2, "grid": (0, 1), "instances": 2, "shots": 64, "n": (3,),
            "clifford_depth": 4, "haar_samples": 50,
        },
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
        seed=3,
        params={
            "qubits": 3, "grid": (0, 2, 4), "instances": 4, "shots": 1500, "n": (3,),
            "haar_samples": 50,
        },
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
        seed=4,
        params={"qubits": 2, "grid": (1, 5, 10), "instances": 30, "tgates": (0,)},
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
        seed=5,
        params={"qubits": 2, "grid": (0.1, 1.0, 100.0), "instances": 40},
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
        seed=6,
        params={"qubits": 2, "grid": (0.5, 5.0), "instances": 5, "k_terms": (4,)},
    )
    rows = run_preset(cfg)
    assert _rows_by_quantity(rows, "flatness_K4")
    cfg2 = ExperimentConfig(
        preset="ising_sweep",
        seed=7,
        params={"qubits": 3, "grid": (0.5, 5.0), "instances": 4, "disorder": (1.0,), "delta": 0.2},
    )
    rows2 = run_preset(cfg2)
    assert _rows_by_quantity(rows2, "flatness_W1.0")


def test_random_circuit_depth_magic_grows():
    cfg = ExperimentConfig(
        preset="random_circuit_depth",
        seed=8,
        params={"qubits": 2, "grid": (1, 6), "instances": 20},
    )
    rows = run_preset(cfg)
    m2 = _rows_by_quantity(rows, "M2_choi")
    assert m2[0].mean < m2[1].mean


def test_monotone_relation_sweep():
    cfg = ExperimentConfig(
        preset="monotone_relation_sweep",
        params={"grid": (0.2, 0.6, 1.0), "qubit_counts": (1, 2)},
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
        seed=9,
        params={
            "qubits": 3, "grid": (1e-3, 5e-3), "instances": 3, "n": 2, "models": ("dephasing",),
            "depth": 6,
        },
    )
    rows = run_preset(cfg)
    ratios = [r for r in rows if r.quantity.startswith("ratio_median_dephasing")]
    assert len(ratios) == 4  # 2 p-values x {clifford, doped}
    assert all(r.mean < 1.0 for r in ratios if r.quantity.endswith("doped"))


def test_preset_determinism_and_serialization():
    cfg = ExperimentConfig(
        preset="doped_clifford_sweep",
        seed=11,
        params={
            "qubits": 2, "grid": (0, 1), "instances": 2, "shots": 32, "n": (3,),
            "clifford_depth": 3, "haar_samples": 20,
        },
    )
    rows_a = run_preset(cfg)
    rows_b = run_preset(cfg)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
    doc = rows_to_json(cfg, rows_a)
    assert '"preset": "doped_clifford_sweep"' in doc
    assert rows_to_csv(rows_a).splitlines()[0] == "sweep,quantity,mean,std,instances,kind"


def test_thread_count_does_not_change_results():
    base = dict(
        preset="gue_time_sweep",
        seed=12,
        params={"qubits": 2, "grid": (0.5, 2.0), "instances": 6},
    )
    rows_serial = run_preset(ExperimentConfig(**base, threads=1))
    rows_parallel = run_preset(ExperimentConfig(**base, threads=4))
    assert rows_to_csv(rows_serial) == rows_to_csv(rows_parallel)
