import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magic_meter.circuits import (
    _GATES,
    SINGLE_QUBIT_CLIFFORDS,
    Circuit,
    CircuitParseError,
    Gate,
    apply_circuit,
    circuit_from_json,
    circuit_from_text,
    circuit_to_json,
    circuit_to_text,
    circuit_unitary,
    doped_clifford_state,
    doped_layered_circuit,
    doped_layered_gate_layers,
    gate_clifford,
    gate_cnot,
    gate_h,
    gate_ry,
    gate_rz,
    gate_t,
    load_circuit,
    random_clifford_circuit,
    random_rotation_circuit,
    random_rotation_gate_layers,
)
from magic_meter.cli import main
from magic_meter.oracles import pauli_moment
from magic_meter.paulis import expectation, pauli_from_index, pauli_from_string
from magic_meter.states import choi_state, haar_random_state, t_state
from references import conjugate_state, maximally_entangled_state, scalar_draw_doped_layers


def test_single_qubit_clifford_table():
    assert len(SINGLE_QUBIT_CLIFFORDS) == 24
    for u in SINGLE_QUBIT_CLIFFORDS:
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    # all 24 are distinct up to phase
    keys = set()
    for u in SINGLE_QUBIT_CLIFFORDS:
        lead = u.ravel()[np.argmax(np.abs(u.ravel()) > 1e-8)]
        keys.add(np.round(u / (lead / abs(lead)), 8).tobytes())
    assert len(keys) == 24


def test_hadamard_on_zero():
    psi = apply_circuit(Circuit(1, (gate_h(1),)))
    assert np.allclose(psi, np.array([1, 1]) / np.sqrt(2))


def test_t_after_h_gives_t_state():
    psi = apply_circuit(Circuit(1, (gate_h(1), gate_t(1))))
    assert abs(expectation(psi, pauli_from_string("X")) - 1 / np.sqrt(2)) < 1e-12
    assert np.allclose(np.abs(psi), np.abs(t_state()))


def test_empty_circuit_is_identity():
    psi = haar_random_state(3, np.random.default_rng(0))
    assert np.allclose(apply_circuit(Circuit(3), psi), psi)


def test_cnot_truth_table():
    u = circuit_unitary(Circuit(2, (gate_cnot(1, 2),)))
    expect = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.allclose(u, expect)
    u21 = circuit_unitary(Circuit(2, (gate_cnot(2, 1),)))
    expect21 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
    assert np.allclose(u21, expect21)


def test_rotation_convention_matches_t_gate():
    # T equals RZ(pi/4) up to global phase
    u_t = circuit_unitary(Circuit(1, (gate_t(1),)))
    u_rz = circuit_unitary(Circuit(1, (gate_rz(1, np.pi / 4),)))
    overlap = np.trace(u_t.conj().T @ u_rz) / 2
    assert abs(abs(overlap) - 1) < 1e-12


def test_rotation_general_axis():
    axis = pauli_from_string("XX")
    theta = 0.37
    u = circuit_unitary(Circuit(2, (Gate("ROT", (1, 2), angle=theta, axis=axis),)))
    ref = (
        np.cos(theta / 2) * np.eye(4)
        - 1j * np.sin(theta / 2) * axis.to_matrix()
    )
    assert np.allclose(u, ref, atol=1e-12)


def test_gate_validation():
    with pytest.raises(ValueError, match="qubit 3"):
        Circuit(2, (gate_h(3),))
    with pytest.raises(ValueError):
        Circuit(2, (gate_cnot(1, 1),))
    with pytest.raises(ValueError):
        Circuit(2, (Gate("ROT", (), angle=0.3, axis=pauli_from_string("II")),))
    with pytest.raises(ValueError, match="2-qubit axis"):  # its support fits, its width does not
        Circuit(2, (Gate("ROT", (1, 2), angle=0.3, axis=pauli_from_string("XZI")),))
    with pytest.raises(ValueError, match="at least 1 qubit"):
        Circuit(0, ())


# name -> (arguments of a Gate that is refused when it is made, a word of the error)
REFUSED_GATES = {
    "unknown_name": (("WIBBLE", (1,)), "unknown gate"),
    "missing_index": (("C1", (1,)), "needs an index"),
    "missing_angle": (("RZ", (1,)), "needs an angle"),
    "extra_angle": (("H", (1,), 0.3), "takes no angle"),
    "extra_axis": (("RZ", (1,), 0.3, pauli_from_string("Z")), "takes no axis"),
    "nan_angle": (("RZ", (1,), float("nan")), "angle nan"),
    "index_24": (("C1", (1,), None, None, 24), "index 24"),
    "index_true": (("C1", (1,), None, None, True), "index True"),
    "qubit_0": (("H", (0,)), "qubit 0"),
    # twins that compare and hash equal to qubit 1
    "qubit_true": (("H", (True,)), "qubit True"),
    "qubit_float": (("H", (1.0,)), "qubit 1.0"),
    "repeated_qubits": (("CNOT", (2, 2)), "distinct"),
    "two_qubit_h": (("H", (1, 2)), "H takes 1"),
    "identity_axis": (("ROT", (), 0.3, pauli_from_string("II")), "nonidentity"),
    "axis_off_its_qubits": (("ROT", (1,), 0.3, pauli_from_string("IX")), "support"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_GATES))
def test_a_gate_is_checked_when_it_is_made(case):
    arguments, word = REFUSED_GATES[case]
    with pytest.raises(ValueError, match=re.escape(word)):
        Gate(*arguments)


def test_circuits_take_numpy_integers():
    got = Circuit(np.int64(2), (gate_h(np.int64(1)), gate_clifford(np.int32(2), np.int64(5)), gate_cnot(np.int64(1), 2)))
    twin = Circuit(2, (gate_h(1), gate_clifford(2, 5), gate_cnot(1, 2)))
    assert got == twin and hash(got) == hash(twin)
    np.testing.assert_array_equal(circuit_unitary(got), circuit_unitary(twin))


@pytest.mark.parametrize("n, depth, n_tgates", [(3, 7, 5), (1, 13, 2), (4, 40, 16), (5, 1, 0)])
def test_one_draw_layers_equal_the_scalar_draws(n, depth, n_tgates):
    # an odd slot count leaves half of a 64-bit draw in the generator
    rng, reference = np.random.default_rng(19), np.random.default_rng(19)
    assert doped_layered_gate_layers(n, depth, n_tgates, rng) == scalar_draw_doped_layers(n, depth, n_tgates, reference)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.integers(24, size=3).tolist() == reference.integers(24, size=3).tolist()
    assert rng.uniform() == reference.uniform()


def test_random_clifford_circuit_structure():
    rng = np.random.default_rng(3)
    assert len(random_clifford_circuit(4, 0, rng)) == 0
    circ = random_clifford_circuit(4, 3, rng)
    names = [g.name for g in circ.gates]
    assert names.count("C1") == 12 and names.count("CNOT") == 9


@pytest.mark.parametrize("n, depth, seed", [(3, 5, 0), (4, 2, 7), (1, 3, 2), (5, 7, 11), (4, 0, 1)])
def test_layered_families_share_one_layer_loop(n, depth, seed):
    # an integer seed starts the same stream in each call
    assert random_clifford_circuit(n, depth, seed) == doped_layered_circuit(n, depth, 0, seed)
    layers = random_rotation_gate_layers(n, depth, seed)
    assert random_rotation_circuit(n, depth, seed) == Circuit(n, tuple(g for layer in layers for g in layer))


@pytest.mark.parametrize("depth, n_tgates", [(0, 1), (-1, 0), (-2, 3)])
def test_doped_layers_refuse_a_depth_too_small_for_their_t_gates(depth, n_tgates):
    with pytest.raises(ValueError, match="depth"):
        doped_layered_gate_layers(3, depth, n_tgates, 0)
    if n_tgates == 0:
        for family in (random_clifford_circuit, random_rotation_circuit, random_rotation_gate_layers):
            with pytest.raises(ValueError, match="depth"):
                family(3, depth, 0)


def test_clifford_circuit_output_is_stabilizer():
    rng = np.random.default_rng(4)
    for _ in range(5):
        psi = apply_circuit(random_clifford_circuit(3, 5, rng))
        assert pauli_moment(psi, 2) == pytest.approx(1.0, abs=1e-10)


def test_doped_state_moment_values():
    rng = np.random.default_rng(9)
    assert pauli_moment(doped_clifford_state(2, 0, rng), 2) == pytest.approx(1.0, abs=1e-10)
    # one T gate leaves the moment at 3/4, or 1 when it lands on a Z-eigenstate
    seen_magic = False
    for _ in range(10):
        val = pauli_moment(doped_clifford_state(3, 1, rng), 2)
        assert min(abs(val - 0.75), abs(val - 1.0)) < 1e-10
        seen_magic |= abs(val - 0.75) < 1e-10
    assert seen_magic


def test_doped_layered_circuit_tgate_count():
    rng = np.random.default_rng(10)
    circ = doped_layered_circuit(4, 7, 5, rng)
    assert sum(1 for g in circ.gates if g.name == "T") == 5
    clifford_only = doped_layered_circuit(4, 7, 0, rng)
    assert pauli_moment(choi_state(circuit_unitary(clifford_only)), 2) == pytest.approx(
        1.0, abs=1e-9
    )


def test_random_rotation_circuit_runs():
    rng = np.random.default_rng(11)
    psi = apply_circuit(random_rotation_circuit(3, 4, rng))
    assert abs(np.linalg.norm(psi) - 1) < 1e-9


def test_choi_state_identity_and_ricochet():
    phi = maximally_entangled_state(2)
    assert np.allclose(choi_state(np.eye(4)), phi)
    rng = np.random.default_rng(12)
    u = circuit_unitary(random_rotation_circuit(2, 3, rng))
    n = 2
    lhs = np.kron(np.eye(4), u.conj()) @ phi
    rhs = np.kron(u.conj().T, np.eye(4)) @ phi
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_choi_state_refuses_a_non_square_matrix():
    # read by its row count alone, a 4 x 2 matrix made an 8-entry "state"
    with pytest.raises(ValueError, match=re.escape("(4, 2)")):
        choi_state(np.eye(4)[:, :2])


def test_choi_state_refuses_a_non_unitary_matrix():
    # unchecked, 2 I gave a "state" of norm 2 that only its consumers refused
    with pytest.raises(ValueError, match="unitary"):
        choi_state(2 * np.eye(2))


@pytest.mark.parametrize("function", [apply_circuit, circuit_unitary])
def test_circuit_functions_refuse_what_is_no_circuit(function):
    # unchecked, a list leaked "'list' object has no attribute 'n_qubits'"
    with pytest.raises(TypeError, match="circuit must be a Circuit, got list"):
        function([1])


def test_choi_t_gate_moment():
    u = circuit_unitary(Circuit(1, (gate_t(1),)))
    assert pauli_moment(choi_state(u), 2) == pytest.approx(0.75, abs=1e-12)


def test_conjugate_state():
    psi = t_state()
    assert np.allclose(conjugate_state(psi), np.array([1, np.exp(-1j * np.pi / 4)]) / np.sqrt(2))
    assert np.allclose(conjugate_state(conjugate_state(psi)), psi)
    real = np.array([0.6, 0.8], dtype=complex)
    assert np.allclose(conjugate_state(real), real)


def test_text_serialization_roundtrip():
    rng = np.random.default_rng(13)
    circ = Circuit(
        3,
        (
            gate_h(1),
            gate_cnot(1, 2),
            gate_t(3),
            gate_rz(2, 0.785398),
            Gate("ROT", (1, 2), angle=-1.25, axis=pauli_from_string("XZI")),
        ),
    )
    parsed = circuit_from_text(circuit_to_text(circ))
    assert np.allclose(circuit_unitary(parsed), circuit_unitary(circ))
    parsed_json = circuit_from_json(circuit_to_json(circ))
    assert np.allclose(circuit_unitary(parsed_json), circuit_unitary(circ))


def test_text_parse_errors():
    with pytest.raises(CircuitParseError):
        circuit_from_text("H 1\n")  # missing qubits directive
    with pytest.raises(CircuitParseError):
        circuit_from_text("qubits 2\nWIBBLE 1\n")
    with pytest.raises(CircuitParseError):
        circuit_from_text("qubits 2\nCNOT 1\n")
    with pytest.raises(CircuitParseError, match="line 3: C1 index 24"):
        circuit_from_text("qubits 2\nH 1\nC1 1 24\n")
    with pytest.raises(CircuitParseError, match="at least 1 qubit"):
        circuit_from_text("qubits 0\n")
    with pytest.raises(CircuitParseError, match="at least 1 qubit"):
        circuit_from_json('{"n_qubits": 0, "gates": []}')


def test_shifted_angles():
    circ = Circuit(1, (gate_h(1), gate_rz(1, 0.3)))
    shifted = circ.shifted(0, np.pi / 2)
    assert shifted.gates[1].angle == pytest.approx(0.3 + np.pi / 2)
    assert circ.gates[1].angle == pytest.approx(0.3)


def test_normalization_preserved():
    rng = np.random.default_rng(14)
    circ = doped_layered_circuit(4, 10, 6, rng)
    psi = apply_circuit(circ)
    assert abs(np.linalg.norm(psi) - 1) < 1e-9


@st.composite
def table_gates(draw, n: int, name: str) -> Gate:
    """A valid gate of one _GATES entry on n qubits, its operands drawn by kind."""
    kinds = _GATES[name][0]
    qubits = draw(st.permutations(range(1, n + 1)))[: kinds.count("qubit")]
    named = {
        "angle": draw(st.floats(allow_nan=False, allow_infinity=False)) if "angle" in kinds else None,
        "axis": pauli_from_index(draw(st.integers(1, 4**n - 1)), n) if "axis" in kinds else None,
        "index": draw(st.integers(0, 23)) if "index" in kinds else None,
    }
    if named["axis"] is not None:  # the axis support gives the qubits
        qubits = [j + 1 for j, c in enumerate(str(named["axis"])) if c != "I"]
    return Gate(name, tuple(qubits), named["angle"], named["axis"], named["index"])


@pytest.mark.parametrize("name", sorted(_GATES))
@settings(max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_every_table_gate_round_trips(name, data):
    arity = {g: max(1, _GATES[g][0].count("qubit")) for g in _GATES}
    n = data.draw(st.integers(arity[name], 4))
    names = data.draw(st.lists(st.sampled_from(sorted(_GATES)), max_size=4))
    gates = [data.draw(table_gates(n, g)) for g in [name] + names if arity[g] <= n]
    circ = Circuit(n, tuple(gates))
    text = circuit_to_text(circ)
    assert circuit_from_text(text) == circ
    assert circuit_to_text(circuit_from_text(text)) == text
    assert circuit_from_json(circuit_to_json(circ)) == circ


MALFORMED_CIRCUITS = {
    "text_h_two_qubits": ("qubits 2\nH 1 2\n", "H takes 1"),
    "text_cnot_three_qubits": ("qubits 2\nCNOT 1 2 1\n", "CNOT takes 2"),
    "json_h_two_qubits": ('{"n_qubits": 2, "gates": [{"gate": "H", "qubits": [1, 2]}]}', "[1, 2]"),
    "json_float_qubit": ('{"n_qubits": 2, "gates": [{"gate": "H", "qubits": [1.9]}]}', "1.9"),
    "json_float_width": ('{"n_qubits": 2.7, "gates": [{"gate": "H", "qubits": [1]}]}', "2.7"),
    "text_nan_angle": ("qubits 1\nRZ 1 nan\n", "nan"),
    "text_inf_angle": ("qubits 1\nRZ 1 inf\n", "inf"),
    "text_rx_two_qubits": ("qubits 2\nRX 1 2 0.3\n", "RX takes 2"),
    "json_rx_two_qubits": (
        '{"n_qubits": 2, "gates": [{"gate": "RX", "qubits": [1, 2], "angle": 0.3}]}', "[1, 2]"
    ),
    "text_t_with_angle": ("qubits 1\nT 1 0.3\n", "T takes 1"),
    "json_t_with_angle": ('{"n_qubits": 1, "gates": [{"gate": "T", "qubits": [1], "angle": 0.3}]}', "angle"),
    "text_c1_index_24": ("qubits 2\nH 1\nC1 1 24\n", "line 3"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CIRCUITS))
def test_malformed_circuit_is_a_parse_error(name, tmp_path, capsys):
    text, operand = MALFORMED_CIRCUITS[name]
    path = tmp_path / "bad.circ"
    path.write_text(text)
    with pytest.raises(CircuitParseError, match=re.escape(operand)):
        load_circuit(str(path))
    assert main(["exact", "--circuit", str(path), "--measure", "A_n"]) == 2
    assert operand in capsys.readouterr().err
