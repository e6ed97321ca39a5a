"""Quantum circuits: gate set, application to states, circuit families and
text/JSON serialization.

Gate qubit indices are 1-based, matching the circuit file format (`H 1`,
`CNOT 1 2`, `T 3`, `RZ 2 0.785398`).  Pauli rotations use the convention
ROT(sigma, theta) = exp(-i theta/2 sigma), so the T gate equals RZ(pi/4) up
to a global phase.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from ._guards import STATEVECTOR_QUBIT_GUARD, UNITARY_QUBIT_GUARD, check_capacity
from .paulis import PauliString, apply_pauli, pauli_from_string
from .states import zero_state

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _canonical_phase(mat: np.ndarray) -> bytes:
    flat = mat.ravel()
    lead = flat[np.argmax(np.abs(flat) > 1e-8)]
    rounded = np.round(flat / (lead / abs(lead)), 9) + 0.0  # drop negative zeros
    return rounded.tobytes()


def _build_single_qubit_cliffords() -> list[np.ndarray]:
    """The 24 single-qubit Clifford unitaries (up to phase), from <H, S>."""
    found: dict[bytes, np.ndarray] = {_canonical_phase(_I2): _I2}
    frontier = [_I2]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (_H, _S):
                v = g @ u
                key = _canonical_phase(v)
                if key not in found:
                    found[key] = v
                    nxt.append(v)
        frontier = nxt
    mats = list(found.values())
    if len(mats) != 24:
        raise RuntimeError(f"expected 24 single-qubit Cliffords, got {len(mats)}")
    return mats


SINGLE_QUBIT_CLIFFORDS: list[np.ndarray] = _build_single_qubit_cliffords()


class CircuitParseError(ValueError):
    """A circuit file or gate line could not be parsed."""


@dataclass(frozen=True)
class Gate:
    """One gate: name in {H, S, T, CNOT, C1, RX, RY, RZ, ROT}.

    C1 carries the index of a single-qubit Clifford; rotations carry an angle,
    and ROT additionally a full-width Pauli axis.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None
    axis: PauliString | None = None
    clifford_index: int | None = None


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"a circuit needs at least 1 qubit, got {self.n_qubits}")
        for g in self.gates:
            _validate_gate(g, self.n_qubits)

    def __len__(self) -> int:
        return len(self.gates)

    def rotation_indices(self) -> list[int]:
        """Positions of parameterized rotation gates within the gate list."""
        return [i for i, g in enumerate(self.gates) if g.name in ("RX", "RY", "RZ", "ROT")]

    def angles(self) -> np.ndarray:
        return np.array([self.gates[i].angle for i in self.rotation_indices()])

    def with_angles(self, thetas) -> "Circuit":
        idx = self.rotation_indices()
        thetas = np.asarray(thetas, dtype=float)
        if thetas.shape != (len(idx),):
            raise ValueError("angle vector length differs from rotation count")
        gates = list(self.gates)
        for pos, theta in zip(idx, thetas):
            gates[pos] = replace(gates[pos], angle=float(theta))
        return Circuit(self.n_qubits, tuple(gates))

    def shifted(self, k: int, delta: float) -> "Circuit":
        """Copy with the k-th rotation angle shifted by delta."""
        thetas = self.angles()
        thetas[k] += delta
        return self.with_angles(thetas)


def _validate_gate(g: Gate, n: int) -> None:
    for q in g.qubits:
        if not (1 <= q <= n):
            raise ValueError(f"gate {g.name} qubit {q} outside [1, {n}]")
    if g.name == "CNOT":
        if len(g.qubits) != 2 or g.qubits[0] == g.qubits[1]:
            raise ValueError("CNOT needs two distinct qubits")
    elif g.name == "C1":
        if g.clifford_index is None or not (0 <= g.clifford_index < 24):
            raise ValueError("C1 needs a Clifford index in [0, 24)")
    elif g.name == "ROT":
        if g.axis is None or g.axis.n_qubits != n:
            raise ValueError("ROT needs a full-width Pauli axis")
        if g.axis.is_identity:
            raise ValueError("rotation axis must be nonidentity")
        if g.angle is None:
            raise ValueError("ROT needs an angle")
    elif g.name in ("RX", "RY", "RZ"):
        if g.angle is None:
            raise ValueError(f"{g.name} needs an angle")
    elif g.name not in ("H", "S", "T"):
        raise ValueError(f"unknown gate {g.name!r}")


def gate_h(q: int) -> Gate:
    return Gate("H", (q,))


def gate_s(q: int) -> Gate:
    return Gate("S", (q,))


def gate_t(q: int) -> Gate:
    return Gate("T", (q,))


def gate_cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def gate_clifford(q: int, index: int) -> Gate:
    return Gate("C1", (q,), clifford_index=index)


def gate_rotation(axis: PauliString, angle: float) -> Gate:
    qubits = tuple(
        j + 1 for j in range(axis.n_qubits)
        if ((axis.z >> (axis.n_qubits - 1 - j)) | (axis.x >> (axis.n_qubits - 1 - j))) & 1
    )
    return Gate("ROT", qubits, angle=float(angle), axis=axis)


def gate_rz(q: int, angle: float) -> Gate:
    return Gate("RZ", (q,), angle=float(angle))


def gate_ry(q: int, angle: float) -> Gate:
    return Gate("RY", (q,), angle=float(angle))


_AXIS_CHAR = {"RX": "X", "RY": "Y", "RZ": "Z"}


def _rotation_axis(g: Gate, n: int) -> PauliString:
    if g.name == "ROT":
        return g.axis
    chars = ["I"] * n
    chars[g.qubits[0] - 1] = _AXIS_CHAR[g.name]
    return pauli_from_string("".join(chars))


def _apply_single(psi: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    """Apply a 2x2 matrix on 1-based qubit q of a statevector, or columnwise
    on a (2^n, m) matrix, as one product on the (2, M) block of that bit."""
    block = psi.reshape(1 << (q - 1), 2, -1).transpose(1, 0, 2)
    out = mat @ block.reshape(2, -1)
    return out.reshape(block.shape).transpose(1, 0, 2).reshape(psi.shape)


def _apply_cnot(psi: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    tail = psi.shape[1] if psi.ndim == 2 else 1
    tensor = psi.reshape([2] * n + [tail]).copy()
    c, t = control - 1, target - 1
    sel = [slice(None)] * n
    sel[c] = 1
    sub = tensor[tuple(sel)]
    tensor[tuple(sel)] = np.flip(sub, axis=t if t < c else t - 1)
    return tensor.reshape(psi.shape)


def apply_gate(gate: Gate, psi: np.ndarray, n: int) -> np.ndarray:
    if psi.shape[0] != 1 << n:
        raise ValueError(f"array dimension {psi.shape[0]} differs from 2^{n}")
    if gate.name == "H":
        return _apply_single(psi, _H, gate.qubits[0])
    if gate.name == "S":
        return _apply_single(psi, _S, gate.qubits[0])
    if gate.name == "T":
        return _apply_single(psi, _T, gate.qubits[0])
    if gate.name == "C1":
        return _apply_single(psi, SINGLE_QUBIT_CLIFFORDS[gate.clifford_index], gate.qubits[0])
    if gate.name == "CNOT":
        return _apply_cnot(psi, gate.qubits[0], gate.qubits[1], n)
    axis = _rotation_axis(gate, n)
    half = gate.angle / 2.0
    return np.cos(half) * psi - 1j * np.sin(half) * apply_pauli(axis, psi)


def apply_circuit(circuit: Circuit, psi: np.ndarray | None = None) -> np.ndarray:
    """Run the circuit on the given statevector (default |0...0>)."""
    n = circuit.n_qubits
    check_capacity(n, STATEVECTOR_QUBIT_GUARD, "qubits in statevector simulation")
    psi = zero_state(n) if psi is None else np.asarray(psi, dtype=complex)
    if psi.shape[0] != 1 << n:
        raise ValueError("state dimension differs from circuit width")
    for gate in circuit.gates:
        psi = apply_gate(gate, psi, n)
    return psi


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (columns = images of basis states)."""
    n = circuit.n_qubits
    check_capacity(n, UNITARY_QUBIT_GUARD, "qubits in dense unitaries")
    u = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        u = apply_gate(gate, u, n)
    return u


# -- circuit families ---------------------------------------------------------

def _cnot_chain(n_qubits: int) -> list[Gate]:
    """The entangling chain on bonds (1,2), ..., (N-1,N), control on the
    higher-numbered qubit.  This direction keeps X on qubit 1 invariant under
    the chain and propagates operators one bond per layer, giving layered
    circuits a light cone from qubit N toward qubit 1.
    """
    return [gate_cnot(q + 1, q) for q in range(1, n_qubits)]


def random_clifford_circuit(n_qubits: int, depth: int, rng) -> Circuit:
    """d layers of uniform single-qubit Cliffords followed by the CNOT chain
    (1,2), (2,3), ..., (N-1, N)."""
    rng = np.random.default_rng(rng)
    gates: list[Gate] = []
    for _ in range(depth):
        for q in range(1, n_qubits + 1):
            gates.append(gate_clifford(q, int(rng.integers(24))))
        gates += _cnot_chain(n_qubits)
    return Circuit(n_qubits, tuple(gates))


def clifford_proxy_depth(n_qubits: int) -> int:
    """Default layer count standing in for a uniform random Clifford unitary."""
    return 10 * n_qubits


def doped_clifford_state(
    n_qubits: int, n_tgates: int, rng, clifford_depth: int | None = None
) -> np.ndarray:
    """Random Clifford blocks interleaved with T gates on random qubits,
    applied to |0...0>."""
    rng = np.random.default_rng(rng)
    depth = clifford_proxy_depth(n_qubits) if clifford_depth is None else clifford_depth
    psi = zero_state(n_qubits)
    for _ in range(n_tgates):
        psi = apply_circuit(random_clifford_circuit(n_qubits, depth, rng), psi)
        psi = apply_gate(gate_t(int(rng.integers(n_qubits)) + 1), psi, n_qubits)
    return apply_circuit(random_clifford_circuit(n_qubits, depth, rng), psi)


def doped_layered_gate_layers(n_qubits: int, depth: int, n_tgates: int, rng) -> list[list[Gate]]:
    """Layer-wise gate lists of the fixed-depth doped Clifford circuit: each
    layer is single-qubit Cliffords plus the CNOT chain, with T gates inserted
    at uniformly random (layer, qubit) slots."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rng = np.random.default_rng(rng)
    slots = rng.integers(0, depth * n_qubits, size=n_tgates)
    layers: list[list[Gate]] = []
    for layer in range(depth):
        gates: list[Gate] = []
        for q in range(1, n_qubits + 1):
            gates.append(gate_clifford(q, int(rng.integers(24))))
            for s in slots:
                if s == layer * n_qubits + (q - 1):
                    gates.append(gate_t(q))
        gates += _cnot_chain(n_qubits)
        layers.append(gates)
    return layers


def doped_layered_circuit(n_qubits: int, depth: int, n_tgates: int, rng) -> Circuit:
    """Fixed-depth layered Clifford circuit with T gates inserted at uniformly
    random (layer, qubit) slots."""
    layers = doped_layered_gate_layers(n_qubits, depth, n_tgates, rng)
    return Circuit(n_qubits, tuple(g for layer in layers for g in layer))


def random_rotation_gate_layers(n_qubits: int, depth: int, rng) -> list[list[Gate]]:
    """Layer-wise gates of d layers of Haar-random single-qubit rotations
    (z-y-z Euler angles) plus the nearest-neighbor CNOT chain."""
    rng = np.random.default_rng(rng)
    layers: list[list[Gate]] = []
    for _ in range(depth):
        gates: list[Gate] = []
        for q in range(1, n_qubits + 1):
            a, c = rng.uniform(0, 2 * np.pi, size=2)
            b = 2.0 * np.arccos(np.sqrt(rng.uniform()))
            gates += [gate_rz(q, a), gate_ry(q, b), gate_rz(q, c)]
        gates += _cnot_chain(n_qubits)
        layers.append(gates)
    return layers


def random_rotation_circuit(n_qubits: int, depth: int, rng) -> Circuit:
    """d layers of Haar-random single-qubit rotations plus the CNOT chain."""
    layers = random_rotation_gate_layers(n_qubits, depth, rng)
    return Circuit(n_qubits, tuple(g for layer in layers for g in layer))


# -- serialization ------------------------------------------------------------

def gate_to_text(gate: Gate) -> str:
    if gate.name in ("H", "S", "T"):
        return f"{gate.name} {gate.qubits[0]}"
    if gate.name == "CNOT":
        return f"CNOT {gate.qubits[0]} {gate.qubits[1]}"
    if gate.name == "C1":
        return f"C1 {gate.qubits[0]} {gate.clifford_index}"
    if gate.name == "ROT":
        return f"ROT {gate.axis} {gate.angle!r}"
    return f"{gate.name} {gate.qubits[0]} {gate.angle!r}"


def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits}"]
    lines += [gate_to_text(g) for g in circuit.gates]
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    n_qubits = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0].upper()
        try:
            if op == "QUBITS":
                n_qubits = int(parts[1])
                continue
            if n_qubits is None:
                raise ValueError("first directive must be 'qubits N'")
            if op in ("H", "S", "T"):
                gates.append(Gate(op, (int(parts[1]),)))
            elif op == "CNOT":
                gates.append(gate_cnot(int(parts[1]), int(parts[2])))
            elif op == "C1":
                gates.append(gate_clifford(int(parts[1]), int(parts[2])))
            elif op in ("RX", "RY", "RZ"):
                gates.append(Gate(op, (int(parts[1]),), angle=float(parts[2])))
            elif op == "ROT":
                gates.append(gate_rotation(pauli_from_string(parts[1]), float(parts[2])))
            else:
                raise ValueError(f"unknown gate {op!r}")
        except (IndexError, ValueError) as exc:
            raise CircuitParseError(f"line {lineno}: {exc}") from exc
    if n_qubits is None:
        raise CircuitParseError("missing 'qubits N' directive")
    try:
        return Circuit(n_qubits, tuple(gates))
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from exc


def circuit_to_json(circuit: Circuit) -> str:
    entries = []
    for g in circuit.gates:
        e: dict = {"gate": g.name, "qubits": list(g.qubits)}
        if g.angle is not None:
            e["angle"] = g.angle
        if g.axis is not None:
            e["axis"] = str(g.axis)
        if g.clifford_index is not None:
            e["index"] = g.clifford_index
        entries.append(e)
    return json.dumps({"n_qubits": circuit.n_qubits, "gates": entries}, indent=2)


def circuit_from_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
        n = int(doc["n_qubits"])
        gates = []
        for e in doc["gates"]:
            name = e["gate"].upper()
            if name == "ROT":
                gates.append(gate_rotation(pauli_from_string(e["axis"]), float(e["angle"])))
            elif name == "C1":
                gates.append(gate_clifford(int(e["qubits"][0]), int(e["index"])))
            elif name in ("RX", "RY", "RZ"):
                gates.append(Gate(name, (int(e["qubits"][0]),), angle=float(e["angle"])))
            else:
                gates.append(Gate(name, tuple(int(q) for q in e["qubits"])))
        return Circuit(n, tuple(gates))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CircuitParseError(f"bad circuit JSON: {exc}") from exc


def load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return circuit_from_json(text)
    return circuit_from_text(text)
