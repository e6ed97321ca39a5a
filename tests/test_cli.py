import json
import os
import subprocess
import sys

import numpy as np
import pytest

from magic_meter.cli import main
from magic_meter.circuits import Circuit, circuit_to_text, gate_h, gate_rz, gate_t


@pytest.fixture
def t_circuit_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(circuit_to_text(Circuit(1, (gate_h(1), gate_t(1)))))
    return str(path)


@pytest.fixture
def phase_circuit_file(tmp_path):
    path = tmp_path / "phase.txt"
    path.write_text(circuit_to_text(Circuit(1, (gate_h(1), gate_rz(1, np.pi / 8)))))
    return str(path)


HUGE_N = "1" + "0" * 400  # an integer beyond the float range


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exact_t_state_moment(capsys):
    code, out, _ = run_cli(capsys, "exact", "--state", "t", "--measure", "A_n", "--n", "2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.75, abs=1e-12)


def test_exact_zero_state_renyi(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--state", "zero", "--qubits", "4", "--measure", "M_n", "--n", "3"
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.0, abs=1e-12)


def test_exact_circuit_fstab(capsys, tmp_path):
    path = tmp_path / "cliff.txt"
    path.write_text("qubits 2\nH 1\nCNOT 1 2\nS 2\n")
    code, out, _ = run_cli(capsys, "exact", "--circuit", str(path), "--measure", "fstab")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-10)


def test_exact_bell_magic_two_lines(capsys):
    code, out, _ = run_cli(capsys, "exact", "--state", "t", "--measure", "bell_magic")
    assert code == 0
    values = [float(v) for v in out.split()]
    assert values[0] == pytest.approx(0.5, abs=1e-12)
    assert values[1] == pytest.approx(1.0, abs=1e-12)


def test_exact_otoc(capsys, t_circuit_file):
    code, out, _ = run_cli(
        capsys,
        "exact", "--circuit", t_circuit_file, "--measure", "otoc",
        "--sigma", "X", "--sigma-prime", "X", "--n", "2",
    )
    assert code == 0
    assert 0.0 <= float(out.strip()) <= 1.0


def test_exact_otoc_over_unitary_guard_exit_three(capsys, tmp_path):
    # a 13-qubit dense unitary would take 1 GB; the unitary guard (10) refuses
    # it first, not the statevector guard (12) of an unneeded simulation
    path = tmp_path / "wide.txt"
    path.write_text(circuit_to_text(Circuit(13, (gate_h(1),))))
    code, _, err = run_cli(
        capsys,
        "exact", "--circuit", str(path), "--measure", "otoc",
        "--sigma", "X" + "I" * 12, "--sigma-prime", "Z" + "I" * 12,
    )
    assert code == 3
    assert "unitaries" in err
    assert "guarded to 10" in err


def test_estimate_alg1_t_state(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate", "--state", "t", "--algorithm", "alg1", "--n", "3",
        "--shots", "10000", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 0.625) < 3 * doc["std_error"]
    assert doc["copies_consumed"] == 2 * 3 * 10000


def test_estimate_alg2_stabilizer_exact_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate", "--state", "zero", "--qubits", "3", "--algorithm", "alg2",
        "--n", "2", "--shots", "100",
    )
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_estimate_deterministic(capsys):
    args = (
        "estimate", "--state", "t", "--algorithm", "alg2", "--n", "2",
        "--shots", "500", "--seed", "42",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_estimate_even_n_refused_without_flag(capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--state", "t", "--algorithm", "alg1", "--n", "2", "--shots", "10"
    )
    assert code == 3
    assert "even" in err.lower()
    code_ok, out, _ = run_cli(
        capsys,
        "estimate", "--state", "t", "--algorithm", "alg1", "--n", "2",
        "--shots", "2000", "--allow-even",
    )
    assert code_ok == 0


def test_gradient_subcommand(capsys, phase_circuit_file):
    code, out, _ = run_cli(
        capsys,
        "gradient", "--circuit", phase_circuit_file, "--param-index", "0",
        "--n", "2", "--shots", "20000", "--seed", "3", "--allow-even",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - (-0.5)) < 3 * doc["std_error"]


def test_bounds_subcommand(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--state", "t", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["fstab_lower"] == pytest.approx(0.5, abs=1e-12)
    assert doc["fstab_upper"] == pytest.approx(0.75**0.25, abs=1e-10)


def test_budget_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "budget", "--epsilon", "0.05", "--delta", "0.05", "--delta-omega", "2",
    )
    assert code == 0
    assert "repetitions 2952" in out
    assert "copies 17712" in out  # 2 L n at the default n = 3


def test_budget_renyi_target(capsys):
    code, out, _ = run_cli(
        capsys, "budget", "--renyi-target", "0.6931471805599453", "--n", "2",
        "--epsilon-m", "0.01", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"] == pytest.approx(0.005)


@pytest.mark.parametrize(
    "argv",
    [
        ("budget", "--delta-omega", "inf"),
        ("budget", "--delta-omega", "1e200"),
        ("budget", "--delta-omega", "nan"),
        ("budget", "--epsilon", "1e-300"),
        ("budget", "--renyi-target", "-1000"),
        ("budget", "--renyi-target", "nan"),
        ("exact", "--state", "t", "--measure", "I_q", "--q", "nan"),
    ],
)
def test_a_non_finite_or_out_of_range_real_option_exits_three_naming_it(argv):
    # once the first, second, fourth and fifth ended in a traceback with exit
    # code 1, the third and sixth named no option, and the last printed nan
    proc = subprocess.run([sys.executable, "-m", "magic_meter.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert argv[-2][2:].replace("-", "_") in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, named",
    [
        (("exact", "--measure", "otoc", "--sigma", "XI", "--sigma-prime", "IZ", "--n", "0"), ["n must be"]),
        (("exact", "--measure", "otoc", "--sigma", "XI", "--sigma-prime", "IZ", "--n", "-1"), ["n must be"]),
        (("budget", "--n", "0"), ["n must be"]),
        (("budget", "--n", "-3"), ["n must be"]),
        (("budget", "--renyi-target", "0.1", "--epsilon-m", "5"), ["renyi_target=0.1", "epsilon_m=5.0"]),
        (("budget", "--renyi-target", "1e6"), ["renyi_target=1000000.0", "epsilon_m=0.01", "n=3"]),
        (("budget", "--n", HUGE_N), [f"n={HUGE_N}"]),
        (("budget", "--n", HUGE_N, "--renyi-target", "0"), [f"a float holds, got {HUGE_N}"]),
        (("budget", "--n", "1" + "0" * 40, "--epsilon", "1e-140"), ["n=1" + "0" * 40]),
        (("estimate", "--state", "t", "--algorithm", "alg1", "--n", "3", "--seed", "-1"), ["--seed"]),
    ],
)
def test_a_bad_moment_index_or_derived_precision_exits_three_naming_its_inputs(argv, named, tmp_path):
    # the otoc and --n cases once printed 1, inf, copies 0 and copies -17712
    # with exit 0; the Renyi cases named only a derived epsilon; an --n or a
    # copy count beyond the float range ended in an OverflowError traceback;
    # --seed -1 got numpy's "expected non-negative integer"
    if argv[0] == "exact":
        path = tmp_path / "bell.txt"
        path.write_text("qubits 2\nH 1\nCNOT 1 2\n")
        argv = (*argv, "--circuit", str(path))
    proc = subprocess.run([sys.executable, "-m", "magic_meter.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert all(name in proc.stderr for name in named), proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_named_state(capsys):
    code, _, err = run_cli(capsys, "exact", "--state", "bogus", "--measure", "A_n")
    assert code == 3
    assert "bogus" in err


def test_estimate_zero_shots_exit_three(capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--state", "t", "--algorithm", "alg1", "--n", "3", "--shots", "0"
    )
    assert code == 3
    assert "repetitions" in err


@pytest.mark.parametrize("qubits", ["0", "-1"])
def test_named_state_qubits_below_one_exit_three(capsys, qubits):
    code, out, err = run_cli(capsys, "exact", "--state", "zero", "--qubits", qubits, "--measure", "A_n")
    assert code == 3 and out == ""
    assert "--qubits" in err


def test_circuit_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("qubits 2\nWOBBLE 1\n")
    code, _, err = run_cli(capsys, "exact", "--circuit", str(bad), "--measure", "A_n")
    assert code == 2
    assert "parse" in err.lower()


def test_guard_violation_exit_code(capsys):
    # stabilizer fidelity enumeration is guarded to 3 qubits
    code, _, err = run_cli(
        capsys, "exact", "--state", "zero", "--qubits", "4", "--measure", "fstab"
    )
    assert code == 3


def test_experiment_subcommand(capsys, tmp_path):
    cfg = tmp_path / "exp.txt"
    out_path = tmp_path / "rows.csv"
    cfg.write_text(
        "preset = doped_clifford_sweep\n"
        "qubits = 2\n"
        "grid = 0,1\n"
        "instances = 2\n"
        "shots = 32\n"
        "n = 3\n"
        "clifford_depth = 3\n"
        "haar_samples = 20\n"
        f"output = {out_path}\n"
    )
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--seed", "5")
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == "sweep,quantity,mean,std,instances,kind"
    assert "T3_exact" in text
    # determinism: run again and compare bytes
    code2, _, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--seed", "5")
    assert out_path.read_text() == text


def test_experiment_seed_precedence(capsys, tmp_path, monkeypatch):
    # --seed, then the config's seed, then MAGIC_METER_SEED, then 0
    monkeypatch.setenv("MAGIC_METER_SEED", "77")
    base = "preset = gue_time_sweep\nqubits = 2\ngrid = 0.5\ninstances = 2\nthreads = 1\n"

    def csv_bytes(config_text, *flags):
        cfg = tmp_path / "exp.txt"
        out_path = tmp_path / "rows.csv"
        cfg.write_text(config_text)
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--output", str(out_path), *flags)
        assert code == 0
        return out_path.read_bytes()

    from_config = csv_bytes(base + "seed = 5\n")
    assert from_config == csv_bytes(base, "--seed", "5")
    assert from_config != csv_bytes(base, "--seed", "0")
    assert csv_bytes(base + "seed = 5\n", "--seed", "0") == csv_bytes(base, "--seed", "0")
    assert csv_bytes(base) == csv_bytes(base, "--seed", "77")
    monkeypatch.setenv("MAGIC_METER_SEED", "abc")  # a config's own seed never reads the variable
    assert csv_bytes(base + "seed = 5\n") == from_config


def test_experiment_json_format(capsys, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "preset": "monotone_relation_sweep",
                "grid": [0.5, 1.0],
                "qubit_counts": [1, 2],
            }
        )
    )
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["preset"] == "monotone_relation_sweep"
    assert any(r["quantity"] == "M2_N2" for r in doc["rows"])


def test_experiment_missing_preset_field(capsys, tmp_path):
    cfg = tmp_path / "broken.txt"
    cfg.write_text("qubits = 2\n")
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == 3
    assert "preset" in err


def test_experiment_unwritable_output(capsys, tmp_path):
    cfg = tmp_path / "exp.txt"
    cfg.write_text(
        "preset = monotone_relation_sweep\ngrid = 0.5\nqubit_counts = 1\n"
        "output = /nonexistent-dir/rows.csv\n"
    )
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == 4


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "magic_meter.cli", "exact", "--state", "t",
         "--measure", "T_n", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(3 / 16, abs=1e-12)


def test_argparse_usage_error_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "magic_meter.cli", "exact", "--measure", "nope"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--state", "t", "--algorithm", "alg1", "--n", "3", "--format", "csv"),
        ("gradient", "--circuit", "c.txt", "--param-index", "0", "--format", "json"),
        ("bounds", "--state", "t", "--format", "csv"),
        ("budget", "--seed", "1"),
    ],
    ids=["estimate-format", "gradient-format", "bounds-format", "budget-seed"],
)
def test_options_a_command_does_not_read_are_usage_errors(argv):
    # these commands always print JSON, and budget draws nothing at random
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("value, code", [("77", 0), ("abc", 3), ("-3", 3), ("1.5", 3)])
def test_env_seed_fallback(value, code):
    # abc and 1.5 once ended in a ValueError traceback with exit code 1, -3 in
    # numpy's "expected non-negative integer"
    args = ("estimate", "--state", "t", "--algorithm", "alg2", "--n", "2", "--shots", "200")
    env = {**os.environ, "MAGIC_METER_SEED": value}
    proc = subprocess.run([sys.executable, "-m", "magic_meter.cli", *args], capture_output=True, text=True, env=env)
    assert proc.returncode == code and "Traceback" not in proc.stderr
    if code:
        assert proc.stdout == "" and "MAGIC_METER_SEED" in proc.stderr
    else:
        assert json.loads(proc.stdout)["seed"] == 77
