"""Noise channels and global-depolarization error mitigation.

Channels act on density matrices.  The mitigation formulas invert a global
depolarizing model exactly; applied under other local noise they are an
approximation whose quality the relative-error study quantifies.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuits import Circuit, Gate
from .states import DENSITY_QUBIT_GUARD, n_qubits_of, purity, zero_state


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
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("noise strength must lie in [0, 1]")
        object.__setattr__(self, "kind", NoiseKind(self.kind))


def _apply_kraus_single(rho: np.ndarray, kraus: list[np.ndarray], qubit: int, n: int) -> np.ndarray:
    """Apply a single-qubit Kraus channel on 1-based qubit of a density matrix."""
    axis_row = qubit - 1
    axis_col = n + qubit - 1
    tensor = rho.reshape([2] * (2 * n))
    out = np.zeros_like(tensor)
    for k in kraus:
        t = np.tensordot(k, tensor, axes=([1], [axis_row]))
        t = np.moveaxis(t, 0, axis_row)
        t = np.tensordot(k.conj(), t, axes=([1], [axis_col]))
        t = np.moveaxis(t, 0, axis_col)
        out += t
    return out.reshape(rho.shape)


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
    n = n_qubits_of(rho)
    if model.kind == NoiseKind.GLOBAL_DEPOLARIZING:
        dim = rho.shape[0]
        return (1 - model.p) * rho + model.p * np.trace(rho) * np.eye(dim) / dim
    qubits = range(1, n + 1) if qubits is None else qubits
    kraus = _kraus_for(model)
    for q in qubits:
        if not (1 <= q <= n):
            raise ValueError(f"qubit {q} outside register")
        rho = _apply_kraus_single(rho, kraus, q, n)
    return rho


def _apply_gate_density(gate: Gate, rho: np.ndarray, n: int) -> np.ndarray:
    """rho -> U rho U^dag via two columnwise gate applications."""
    from .circuits import apply_gate

    left = apply_gate(gate, rho, n)
    return apply_gate(gate, left.conj().T, n).conj().T


def noisy_circuit_state(circuit: Circuit, model: NoiseModel, rho=None) -> np.ndarray:
    """Density matrix after the circuit with the channel applied after each
    gate on the qubits the gate touched."""
    n = circuit.n_qubits
    if n > DENSITY_QUBIT_GUARD:
        raise ValueError(f"density-matrix simulation guarded to {DENSITY_QUBIT_GUARD} qubits")
    if rho is None:
        psi = zero_state(n)
        rho = np.outer(psi, psi.conj())
    rho = np.asarray(rho, dtype=complex)
    for gate in circuit.gates:
        rho = _apply_gate_density(gate, rho, n)
        if model.p > 0:
            rho = apply_channel(rho, model, gate.qubits)
    return rho


def estimate_p_from_purity(purity_value: float, n_qubits: int) -> float:
    """Invert tr(rho_dp^2) of the global-depolarizing model for p."""
    dim = 2**n_qubits
    if not (1.0 / dim < purity_value <= 1.0 + 1e-12):
        raise ValueError("purity outside (2^-N, 1]")
    return float(1.0 - np.sqrt((dim * purity_value - 1.0) / (dim - 1.0)))


def mitigate_moment(moment_noisy: float, p: float, n: int, n_qubits: int) -> float:
    """Invert the global-depolarizing moment map."""
    if not (0.0 <= p < 1.0):
        raise ValueError("mitigation needs p in [0, 1)")
    shrink = (1.0 - p) ** (2 * n)
    return float(moment_noisy / shrink - (1.0 / shrink - 1.0) / 2**n_qubits)


def mitigate_tsallis(tsallis_noisy: float, p: float, n: int, n_qubits: int) -> float:
    """Mitigated Tsallis entropy via the same inversion."""
    if not (0.0 <= p < 1.0):
        raise ValueError("mitigation needs p in [0, 1)")
    shrink = (1.0 - p) ** (2 * n)
    correction = (1.0 - shrink) * (2.0**-n_qubits - 1.0) / (1.0 - n)
    return float((tsallis_noisy - correction) / shrink)


def mitigate_renyi(moment_noisy: float, p: float, n: int, n_qubits: int) -> float | None:
    """Mitigated Renyi entropy; None when the mitigated moment is nonpositive
    (a statistical-noise artifact worth surfacing rather than clamping)."""
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

    def csv_row(self) -> str:
        ratio = "" if self.ratio is None else repr(self.ratio)
        return (
            f"{self.model},{self.p!r},{self.n_qubits},{self.n},{self.instance},"
            f"{self.impurity!r},{self.err_unmitigated!r},{self.err_mitigated!r},{ratio}"
        )


NOISE_STUDY_CSV_HEADER = "model,p,N,n,instance,impurity,err_unmtg,err_mtg,ratio"


def noise_study_csv(records: list["NoiseStudyRecord"]) -> str:
    return "\n".join([NOISE_STUDY_CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


def relative_error_study(
    circuits: list[Circuit],
    model_kind: NoiseKind,
    p_values,
    n: int = 2,
) -> list[NoiseStudyRecord]:
    """Per (circuit, p): exact pure/noisy/mitigated Renyi entropies and the
    mitigated-to-unmitigated error ratio against impurity."""
    from .circuits import apply_circuit
    from .oracles import pauli_moment

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
