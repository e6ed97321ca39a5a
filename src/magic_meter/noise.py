"""Noise channels and global-depolarization error mitigation.

Channels act on density matrices.  The mitigation formulas invert a global
depolarizing model exactly; applied under other local noise they are an
approximation whose quality the relative-error study quantifies.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ._guards import DENSITY_QUBIT_GUARD, check_capacity, check_integer, finite_real
from .circuits import Circuit, Gate, apply_circuit, apply_gate
from .oracles import pauli_moment
from .states import purity, zero_state


class NoiseKind(str, Enum):
    GLOBAL_DEPOLARIZING = "global_depolarizing"
    LOCAL_DEPOLARIZING = "local_depolarizing"
    DEPHASING = "dephasing"
    AMPLITUDE_DAMPING = "amplitude_damping"


@dataclass(frozen=True)
class NoiseModel:
    kind: NoiseKind
    p: float

    def __post_init__(self):
        if not (finite_real(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"noise strength p must be a real number in [0, 1], got {self.p!r}")
        object.__setattr__(self, "kind", NoiseKind(self.kind))

    @cached_property
    def superoperator(self) -> np.ndarray:
        """Read-only 4x4 S = sum_k K (x) conj(K) over the single-qubit Kraus
        operators, built once per model: S[(r', c'), (r, c)] maps the
        (row bit, column bit) pair of rho."""
        s = sum(np.kron(k, k.conj()) for k in _kraus_for(self))
        s.flags.writeable = False
        return s


def _apply_superoperator(rho: np.ndarray, s: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply a single-qubit channel's superoperator on 1-based qubit of a
    density matrix: rho viewed as (row_hi, row_bit, row_lo, col_hi, col_bit,
    col_lo) with both bits brought to the front is one 4-row product."""
    a, b = 1 << (qubit - 1), 1 << (n - qubit)
    pairs = rho.reshape(a, 2, b, a, 2, b).transpose(1, 4, 0, 2, 3, 5).reshape(4, -1)
    out = (s @ pairs).reshape(2, 2, a, b, a, b)
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(rho.shape)


_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _kraus_for(model: NoiseModel) -> list[np.ndarray]:
    p = model.p
    if model.kind == NoiseKind.LOCAL_DEPOLARIZING:
        s = np.sqrt(p / 4)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        return [
            np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
            s * x,
            s * y,
            s * _Z,
        ]
    if model.kind == NoiseKind.DEPHASING:
        return [np.sqrt(1 - p) * np.eye(2, dtype=complex), np.sqrt(p) * _Z]
    if model.kind == NoiseKind.AMPLITUDE_DAMPING:
        k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
        return [k0, k1]
    raise ValueError(f"no Kraus decomposition for {model.kind}")


def apply_channel(rho: np.ndarray, model: NoiseModel, qubits=None) -> np.ndarray:
    """Apply the channel to the listed (1-based) qubits; global depolarizing
    ignores the qubit set."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0] if rho.ndim == 2 else 0
    if rho.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"rho must be a square 2^n x 2^n matrix with n >= 1, got shape {rho.shape}")
    n = dim.bit_length() - 1
    if model.kind == NoiseKind.GLOBAL_DEPOLARIZING:
        return (1 - model.p) * rho + model.p * np.trace(rho) * np.eye(dim) / dim
    qubits = range(1, n + 1) if qubits is None else qubits
    for q in qubits:
        check_integer(q, "qubit", 1)
        if q > n:
            raise ValueError(f"qubit {q} outside register")
        rho = _apply_superoperator(rho, model.superoperator, q, n)
    return rho


def _apply_gate_density(gate: Gate, rho: np.ndarray, n: int) -> np.ndarray:
    """rho -> U rho U^dag via two columnwise gate applications, each result
    conjugated in place (apply_gate returns a fresh array)."""
    left = apply_gate(gate, rho, n)
    out = apply_gate(gate, np.conjugate(left, out=left).T, n)
    return np.conjugate(out, out=out).T


def noisy_circuit_state(circuit: Circuit, model: NoiseModel) -> np.ndarray:
    """Density matrix after the circuit, run on |0...0>, with the channel
    applied after each gate on the qubits the gate touched."""
    n = circuit.n_qubits
    check_capacity(n, DENSITY_QUBIT_GUARD, "qubits in density-matrix simulation")
    psi = zero_state(n)
    rho = np.outer(psi, psi.conj())
    for gate in circuit.gates:
        rho = _apply_gate_density(gate, rho, n)
        if model.p > 0:
            rho = apply_channel(rho, model, gate.qubits)
    return rho


def estimate_p_from_purity(purity_value: float, n_qubits: int) -> float:
    """Invert tr(rho_dp^2) of the global-depolarizing model for p."""
    check_integer(n_qubits, "n_qubits", 1)
    dim = 2**n_qubits
    if not (1.0 / dim < purity_value <= 1.0 + 1e-12):
        raise ValueError("purity outside (2^-N, 1]")
    return float(1.0 - np.sqrt((dim * purity_value - 1.0) / (dim - 1.0)))


def mitigate_moment(moment_noisy: float, p: float, n: int, n_qubits: int) -> float:
    """Invert the global-depolarizing moment map."""
    check_integer(n, "n", 1)
    check_integer(n_qubits, "n_qubits", 1)
    if not finite_real(moment_noisy):
        raise ValueError(f"moment_noisy must be finite, got {moment_noisy!r}")
    if not (0.0 <= p < 1.0):
        raise ValueError("mitigation needs p in [0, 1)")
    shrink = (1.0 - p) ** (2 * n)
    return float(moment_noisy / shrink - (1.0 / shrink - 1.0) / 2**n_qubits)


def mitigate_renyi(moment_noisy: float, p: float, n: int, n_qubits: int) -> float | None:
    """Mitigated Renyi entropy; None when the mitigated moment is nonpositive
    (a statistical-noise artifact worth surfacing rather than clamping)."""
    check_integer(n, "n", 2)
    m = mitigate_moment(moment_noisy, p, n, n_qubits)
    if m <= 0.0:
        return None
    return float(np.log(m) / (1 - n))


@dataclass(frozen=True)
class NoiseStudyRecord:
    model: str
    p: float
    n_qubits: int
    n: int
    instance: int
    impurity: float
    err_unmitigated: float
    err_mitigated: float
    ratio: float | None


def relative_error_study(
    circuits: list[Circuit],
    model_kind: NoiseKind,
    p_values,
    n: int = 2,
) -> list[NoiseStudyRecord]:
    """Per (circuit, p): exact pure/noisy/mitigated Renyi entropies and the
    mitigated-to-unmitigated error ratio against impurity."""
    check_integer(n, "n", 2)
    records = []
    for inst, circuit in enumerate(circuits):
        nq = circuit.n_qubits
        pure = apply_circuit(circuit)
        m_pure = float(np.log(pauli_moment(pure, n)) / (1 - n))
        for p in p_values:
            model = NoiseModel(model_kind, float(p))
            rho = noisy_circuit_state(circuit, model)
            impurity = 1.0 - purity(rho)
            moment_noisy = pauli_moment(rho, n)
            m_unmtg = float(np.log(moment_noisy) / (1 - n))
            p_hat = estimate_p_from_purity(purity(rho), nq)
            m_mtg = mitigate_renyi(moment_noisy, p_hat, n, nq)
            err_u = abs(m_unmtg - m_pure)
            err_m = np.inf if m_mtg is None else abs(m_mtg - m_pure)
            ratio = None if err_u < 1e-12 else float(err_m / err_u)  # p ~ 0: both errors vanish
            records.append(
                NoiseStudyRecord(
                    model=model.kind.value,
                    p=float(p),
                    n_qubits=nq,
                    n=n,
                    instance=inst,
                    impurity=float(impurity),
                    err_unmitigated=float(err_u),
                    err_mitigated=float(err_m),
                    ratio=ratio,
                )
            )
    return records
