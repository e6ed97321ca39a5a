"""Quantum circuits: gate set, application to states, circuit families and
text/JSON serialization.

Gate qubit indices are 1-based, matching the circuit file format (`H 1`,
`CNOT 1 2`, `T 3`, `RZ 2 0.785398`).  Pauli rotations use the convention
ROT(sigma, theta) = exp(-i theta/2 sigma), so the T gate equals RZ(pi/4) up
to a global phase.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._guards import STATEVECTOR_QUBIT_GUARD, UNITARY_QUBIT_GUARD, check_capacity, check_integer, is_integer
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


def orbit(start: np.ndarray, moves) -> list[np.ndarray]:
    """Breadth-first closure of ``start`` under the callables ``moves``,
    deduplicated up to global phase, in the order the arrays are first found."""
    found: dict[bytes, np.ndarray] = {_canonical_phase(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for move in moves:
                v = move(u)
                key = _canonical_phase(v)
                if key not in found:
                    found[key] = v
                    nxt.append(v)
        frontier = nxt
    return list(found.values())


# The 24 single-qubit Clifford unitaries (up to phase), from <H, S>.
SINGLE_QUBIT_CLIFFORDS: list[np.ndarray] = orbit(_I2, (_H.__matmul__, _S.__matmul__))


class CircuitParseError(ValueError):
    """A circuit file or gate line could not be parsed."""


# The gate set: name -> (operand kinds in text-form order, 2x2 matrix of a
# fixed single-qubit gate).  A "qubit" is 1-based, an "index" picks one of the
# SINGLE_QUBIT_CLIFFORDS, and an "angle" makes the gate the rotation
# exp(-i angle/2 sigma) about its full-width Pauli "axis", whose support gives
# the qubits, or about the Pauli its name ends in.  Two qubits make a CNOT.
_GATES: dict[str, tuple[tuple[str, ...], np.ndarray | None]] = {
    "H": (("qubit",), _H),
    "S": (("qubit",), _S),
    "T": (("qubit",), _T),
    "CNOT": (("qubit", "qubit"), None),
    "C1": (("qubit", "index"), None),
    "RX": (("qubit", "angle"), None),
    "RY": (("qubit", "angle"), None),
    "RZ": (("qubit", "angle"), None),
    "ROT": (("axis", "angle"), None),
}


@dataclass(frozen=True)
class Gate:
    """One gate of the _GATES table, carrying the operands its entry names:
    ``clifford_index`` for an index, and ``angle`` and ``axis`` for theirs.
    A gate checks itself when it is made: a finite angle, an axis and a
    Clifford index in [0, 24) exactly where the entry has one, and distinct
    integer qubits of at least 1, one per qubit operand or the support of the
    nonidentity axis.  A Circuit checks what needs its width."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None
    axis: PauliString | None = None
    clifford_index: int | None = None

    def __post_init__(self):
        kinds = _kinds(self.name)
        for kind, value in _named(self).items():
            if (kind in kinds) != (value is not None):
                raise ValueError(f"{self.name} {'needs an' if value is None else 'takes no'} {kind}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.name} angle {self.angle!r} is not finite")
        index = self.clifford_index
        if index is not None and not (is_integer(index) and 0 <= index < 24):
            raise ValueError(f"{self.name} index {index!r} is not an integer in [0, 24)")
        if self.axis is not None and (self.axis.is_identity or self.qubits != _support(self.axis)):
            raise ValueError(f"{self.name} needs a nonidentity axis whose support is its qubits, "
                             f"got axis {self.axis} on qubits {list(self.qubits)}")
        if self.axis is None and len(self.qubits) != kinds.count("qubit"):
            raise ValueError(f"{self.name} takes {kinds.count('qubit')} qubit(s), got {list(self.qubits)}")
        for q in self.qubits:
            if not (is_integer(q) and q >= 1):
                raise ValueError(f"gate {self.name} qubit {q!r} is not an integer of at least 1")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} needs distinct qubits, got {list(self.qubits)}")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        n = self.n_qubits
        if not is_integer(n) or n < 1:
            raise ValueError(f"a circuit needs an integer of at least 1 qubit, got {n!r}")
        for g in self.gates:  # each gate checked itself when it was made
            if max(g.qubits) > n:
                raise ValueError(f"gate {g.name} qubit {max(g.qubits)} is not in [1, {n}]")
            if g.axis is not None and g.axis.n_qubits != n:
                raise ValueError(f"{g.name} needs a {n}-qubit axis, got axis {g.axis}")

    def __len__(self) -> int:
        return len(self.gates)

    def rotation_indices(self) -> list[int]:
        """Positions of parameterized rotation gates within the gate list."""
        return [i for i, g in enumerate(self.gates) if "angle" in _GATES[g.name][0]]

    def shifted(self, k: int, delta: float) -> "Circuit":
        """Copy with the k-th rotation angle shifted by delta."""
        pos = self.rotation_indices()[k]
        gates = list(self.gates)
        gates[pos] = replace(gates[pos], angle=float(gates[pos].angle + delta))
        return Circuit(self.n_qubits, tuple(gates))


def _kinds(name: str) -> tuple[str, ...]:
    if name not in _GATES:
        raise ValueError(f"unknown gate {name!r}")
    return _GATES[name][0]


def _named(g: Gate) -> dict:
    """A gate's operands other than its qubits, keyed by kind."""
    return {"angle": g.angle, "axis": g.axis, "index": g.clifford_index}


def _support(axis: PauliString) -> tuple[int, ...]:
    """The 1-based qubits on which a Pauli string acts nontrivially."""
    n = axis.n_qubits
    return tuple(j + 1 for j in range(n) if ((axis.z | axis.x) >> (n - 1 - j)) & 1)


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


def gate_rz(q: int, angle: float) -> Gate:
    return Gate("RZ", (q,), angle=float(angle))


def gate_ry(q: int, angle: float) -> Gate:
    return Gate("RY", (q,), angle=float(angle))


def _apply_single(psi: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    """Apply a 2x2 matrix on 1-based qubit q of a statevector, or columnwise
    on a (2^n, m) matrix, as one product on the (2, M) block of that bit."""
    block = psi.reshape(1 << (q - 1), 2, -1).transpose(1, 0, 2)
    out = mat @ block.reshape(2, -1)
    return out.reshape(block.shape).transpose(1, 0, 2).reshape(psi.shape)


# room for every CNOT placement on one register up to the statevector guard
@lru_cache(maxsize=STATEVECTOR_QUBIT_GUARD * (STATEVECTOR_QUBIT_GUARD - 1))
def _cnot_rows(control: int, target: int, n: int) -> np.ndarray:
    """CNOT as a row permutation, built once per (control, target, n) and
    read-only: row k takes row k with the target bit flipped where the
    control bit of k is set."""
    k = np.arange(1 << n)
    rows = k ^ (((k >> (n - control)) & 1) << (n - target))
    rows.flags.writeable = False
    return rows


def apply_gate(gate: Gate, psi: np.ndarray, n: int) -> np.ndarray:
    """Apply one gate to a statevector, or columnwise to a (2^n, m) matrix."""
    if psi.shape[0] != 1 << n:
        raise ValueError(f"array dimension {psi.shape[0]} differs from 2^{n}")
    index = gate.clifford_index
    mat = _GATES[gate.name][1] if index is None else SINGLE_QUBIT_CLIFFORDS[index]
    if mat is not None:
        return _apply_single(psi, mat, gate.qubits[0])
    if gate.angle is None:
        return psi[_cnot_rows(*gate.qubits, n)]
    q = gate.qubits[0]
    axis = gate.axis or pauli_from_string("I" * (q - 1) + gate.name[-1] + "I" * (n - q))
    half = gate.angle / 2.0
    return np.cos(half) * psi - 1j * np.sin(half) * apply_pauli(axis, psi)


def _width(circuit: Circuit) -> int:
    """The qubit count of a Circuit; anything else is a TypeError naming it."""
    if not isinstance(circuit, Circuit):
        raise TypeError(f"circuit must be a Circuit, got {type(circuit).__name__}")
    return circuit.n_qubits


def apply_circuit(circuit: Circuit, psi: np.ndarray | None = None) -> np.ndarray:
    """Run the circuit on the given statevector (default |0...0>)."""
    n = _width(circuit)
    check_capacity(n, STATEVECTOR_QUBIT_GUARD, "qubits in statevector simulation")
    psi = zero_state(n) if psi is None else np.asarray(psi, dtype=complex)
    if psi.shape[0] != 1 << n:
        raise ValueError("state dimension differs from circuit width")
    for gate in circuit.gates:
        psi = apply_gate(gate, psi, n)
    return psi


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (columns = images of basis states)."""
    n = _width(circuit)
    check_capacity(n, UNITARY_QUBIT_GUARD, "qubits in dense unitaries")
    u = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        u = apply_gate(gate, u, n)
    return u


# -- circuit families ---------------------------------------------------------

def _layered_gate_layers(n_qubits: int, depth: int, draw, t_counts=()) -> list[list[Gate]]:
    """``depth`` layers: on each qubit q in order the gates ``draw(q)``, then
    as many T gates as the next entry of ``t_counts`` (one per (layer, qubit)
    slot; none if left out), then the CNOT chain on bonds (1,2), ...,
    (N-1,N), control on the higher-numbered qubit.  This direction keeps X on
    qubit 1 invariant under the chain and propagates operators one bond per
    layer, giving layered circuits a light cone from qubit N toward qubit 1.
    A negative depth is refused before any draw."""
    check_integer(depth, "depth", 0)
    chain = [gate_cnot(q + 1, q) for q in range(1, n_qubits)]
    t_gates = [gate_t(q) for q in range(1, n_qubits + 1)]
    counts = iter(t_counts or [0] * (depth * n_qubits))
    return [
        [g for q in range(1, n_qubits + 1) for g in draw(q) + [t_gates[q - 1]] * next(counts)] + chain
        for _ in range(depth)
    ]


def _flatten(n_qubits: int, layers: list[list[Gate]]) -> Circuit:
    return Circuit(n_qubits, tuple(g for layer in layers for g in layer))


def random_clifford_circuit(n_qubits: int, depth: int, rng) -> Circuit:
    """d layers of uniform single-qubit Cliffords followed by the CNOT chain
    (1,2), (2,3), ..., (N-1, N)."""
    return doped_layered_circuit(n_qubits, depth, 0, rng)


def doped_clifford_state(
    n_qubits: int, n_tgates: int, rng, clifford_depth: int | None = None
) -> np.ndarray:
    """Random Clifford blocks interleaved with T gates on random qubits,
    applied to |0...0>; a block of ``clifford_depth`` layers, by default 10
    per qubit, stands in for a uniform random Clifford unitary."""
    rng = np.random.default_rng(rng)
    depth = 10 * n_qubits if clifford_depth is None else clifford_depth
    psi = zero_state(n_qubits)
    for _ in range(n_tgates):
        psi = apply_circuit(random_clifford_circuit(n_qubits, depth, rng), psi)
        psi = apply_gate(gate_t(int(rng.integers(n_qubits)) + 1), psi, n_qubits)
    return apply_circuit(random_clifford_circuit(n_qubits, depth, rng), psi)


def doped_layered_gate_layers(n_qubits: int, depth: int, n_tgates: int, rng) -> list[list[Gate]]:
    """Layer-wise gate lists of the fixed-depth doped Clifford circuit: each
    layer is single-qubit Cliffords plus the CNOT chain, with T gates inserted
    at uniformly random (layer, qubit) slots; depth 0 takes no T gates."""
    check_integer(depth, "depth with T gates" if n_tgates else "depth", 1 if n_tgates else 0)  # before the T slots
    rng = np.random.default_rng(rng)
    slots = rng.integers(0, depth * n_qubits, size=n_tgates)
    t_counts = np.bincount(slots, minlength=depth * n_qubits).tolist()
    # one draw for every (layer, qubit) slot, in the order the layers use them
    picks = iter(rng.integers(24, size=depth * n_qubits).tolist())
    cliffords = _clifford_gates(n_qubits)
    return _layered_gate_layers(n_qubits, depth, lambda q: [cliffords[q - 1][next(picks)]], t_counts)


@lru_cache(maxsize=STATEVECTOR_QUBIT_GUARD)
def _clifford_gates(n_qubits: int) -> tuple[tuple[Gate, ...], ...]:
    """The 24 ``gate_clifford`` gates of each qubit q at row q - 1, built, and
    so checked, once per width."""
    return tuple(tuple(gate_clifford(q, i) for i in range(24)) for q in range(1, n_qubits + 1))


def doped_layered_circuit(n_qubits: int, depth: int, n_tgates: int, rng) -> Circuit:
    """Fixed-depth layered Clifford circuit with T gates inserted at uniformly
    random (layer, qubit) slots."""
    return _flatten(n_qubits, doped_layered_gate_layers(n_qubits, depth, n_tgates, rng))


def random_rotation_gate_layers(n_qubits: int, depth: int, rng) -> list[list[Gate]]:
    """Layer-wise gates of d layers of Haar-random single-qubit rotations
    (z-y-z Euler angles) plus the nearest-neighbor CNOT chain."""
    rng = np.random.default_rng(rng)
    def euler(q: int) -> list[Gate]:
        a, c = rng.uniform(0, 2 * np.pi, size=2)
        b = 2.0 * np.arccos(np.sqrt(rng.uniform()))
        return [gate_rz(q, a), gate_ry(q, b), gate_rz(q, c)]

    return _layered_gate_layers(n_qubits, depth, euler)


def random_rotation_circuit(n_qubits: int, depth: int, rng) -> Circuit:
    """d layers of Haar-random single-qubit rotations plus the CNOT chain."""
    return _flatten(n_qubits, random_rotation_gate_layers(n_qubits, depth, rng))


# -- serialization ------------------------------------------------------------

def gate_to_text(gate: Gate) -> str:
    qubits, named = iter(gate.qubits), _named(gate)
    operands = [next(qubits) if k == "qubit" else named[k] for k in _kinds(gate.name)]
    return " ".join(str(v) for v in [gate.name, *operands])


def circuit_to_text(circuit: Circuit) -> str:
    return "\n".join([f"qubits {circuit.n_qubits}"] + [gate_to_text(g) for g in circuit.gates]) + "\n"


def _build_gate(name, operands: list | dict) -> Gate:
    """The gate `name` from its operands, listed in the order of its _GATES
    entry (text form) or keyed by "qubits" (left out or empty: the axis
    support) and each other kind (JSON form).  Values are read from their
    text, so a JSON float or bool is no integer; the Gate checks the rest."""
    name = str(name).upper()
    kinds = _kinds(name)
    if isinstance(operands, list):
        if len(operands) != len(kinds):
            raise ValueError(f"{name} takes {len(kinds)} operand(s) ({' '.join(kinds)}), got {len(operands)}")
        qubits = [a for k, a in zip(kinds, operands) if k == "qubit"]
        operands = {k: a for k, a in zip(kinds, operands) if k != "qubit"} | {"qubits": qubits}
    extra = set(operands) - {"qubits", *kinds}
    if extra:
        raise ValueError(f"{name} takes no {min(extra)}")
    cast = {"index": int, "angle": float, "axis": pauli_from_string}
    named = {k: cast[k](str(operands[k])) for k in kinds if k != "qubit"}
    qubits = operands.get("qubits") or (_support(named["axis"]) if "axis" in named else ())
    if not isinstance(qubits, (list, tuple)):
        raise ValueError(f"qubits {qubits!r} is not a list")
    return Gate(name, tuple(int(str(q)) for q in qubits), named.get("angle"), named.get("axis"), named.get("index"))


def circuit_from_text(text: str) -> Circuit:
    n_qubits = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op, *args = line.upper().split()
        try:
            if op == "QUBITS":
                n_qubits = int(" ".join(args))
                continue
            if n_qubits is None:
                raise ValueError("first directive must be 'qubits N'")
            gates.append(_build_gate(op, args))
        except ValueError as exc:
            raise CircuitParseError(f"line {lineno}: {exc}") from exc
    if n_qubits is None:
        raise CircuitParseError("missing 'qubits N' directive")
    try:
        return Circuit(n_qubits, tuple(gates))
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from exc


def circuit_to_json(circuit: Circuit) -> str:
    entries = [
        {"gate": g.name, "qubits": list(g.qubits)}
        | {k: str(v) if k == "axis" else v for k, v in _named(g).items() if v is not None}
        for g in circuit.gates
    ]
    return json.dumps({"n_qubits": circuit.n_qubits, "gates": entries}, indent=2)


def circuit_from_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
        gates = [_build_gate(e["gate"], {k: v for k, v in e.items() if k != "gate"}) for e in doc["gates"]]
        return Circuit(doc["n_qubits"], tuple(gates))
    except (KeyError, TypeError, ValueError) as exc:
        raise CircuitParseError(f"bad circuit JSON: {exc}") from exc


def load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return (circuit_from_json if text.lstrip().startswith("{") else circuit_from_text)(text)
