"""Statevector and density-matrix constructors and small-system utilities.

States are plain numpy arrays: a length-2^N complex vector for pure states
(qubit 1 is the most significant bit of the basis index) or a 2^N x 2^N
matrix for mixed states.
"""
from __future__ import annotations

import numpy as np

from ._guards import check_integer


def n_qubits_of(state: np.ndarray) -> int:
    """Qubit count of a statevector or density matrix: at least 1, from a
    first axis of power-of-two length; else a ValueError naming the shape."""
    shape = np.shape(state)
    dim = shape[0] if shape else 0
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"a state needs a first axis of power-of-two length at least 2, got shape {shape}")
    return dim.bit_length() - 1


STATE_TOL = 1e-8  # allowed deviation of the norm or trace from 1, of rho from rho^dagger, and below 0


def validate_state(state) -> None:
    """Check that ``state`` is a finite statevector of unit norm or a finite
    Hermitian, positive semidefinite matrix of unit trace, of power-of-two
    dimension.  Raises ``ValueError`` naming the defect."""
    state = np.asarray(state)
    if state.ndim not in (1, 2) or state.shape[0] != state.shape[-1]:
        raise ValueError(f"a state must be a vector or a square matrix, got shape {state.shape}")
    n_qubits_of(state)
    if not np.all(np.isfinite(state)):
        raise ValueError("state has non-finite entries (NaN or infinity)")
    if state.ndim == 1:
        norm = float(np.linalg.norm(state))
        if abs(norm - 1.0) > STATE_TOL:
            raise ValueError(f"statevector has norm {norm:.12g}, not 1")
    else:
        trace = complex(np.trace(state))
        if abs(trace - 1.0) > STATE_TOL:
            raise ValueError(f"density matrix has trace {trace:.12g}, not 1")
        residual = float(np.max(np.abs(state - state.conj().T)))
        if residual > STATE_TOL:
            raise ValueError(f"density matrix is not Hermitian: |rho - rho^dagger| reaches {residual:.3g}")
        least = float(np.linalg.eigvalsh(state)[0])
        if least < -STATE_TOL:
            raise ValueError(f"density matrix is not positive: it has eigenvalue {least:.12g}")


def read_statevector(state, caller: str) -> np.ndarray:
    """``state`` as a complex128 statevector (complex input is not copied),
    checked by ``validate_state``; a density matrix is refused with a
    ``ValueError`` that names ``caller``."""
    state = np.asarray(state, dtype=complex)
    validate_state(state)
    if state.ndim != 1:
        raise ValueError(f"{caller} takes a statevector, got shape {state.shape}")
    return state


def zero_state(n_qubits: int) -> np.ndarray:
    check_integer(n_qubits, "n_qubits", 1)
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def plus_state(n_qubits: int) -> np.ndarray:
    check_integer(n_qubits, "n_qubits", 1)
    dim = 1 << n_qubits
    return np.full(dim, dim**-0.5, dtype=complex)


def product_phase_state(n_qubits: int, s: float) -> np.ndarray:
    """(|0> + e^{i pi s / 4}|1>)^{tensor N} / 2^{N/2}."""
    check_integer(n_qubits, "n_qubits", 1)
    single = np.array([1.0, np.exp(1j * np.pi * s / 4)]) / np.sqrt(2)
    psi = single
    for _ in range(n_qubits - 1):
        psi = np.kron(psi, single)
    return psi


def t_state(n_qubits: int = 1) -> np.ndarray:
    """|T>^{tensor n} with |T> = (|0> + e^{i pi/4} |1>)/sqrt(2)."""
    return product_phase_state(n_qubits, 1)


def haar_random_state(n_qubits: int, rng) -> np.ndarray:
    check_integer(n_qubits, "n_qubits", 1)
    rng = np.random.default_rng(rng)
    dim = 1 << n_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def density_of(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def choi_state(unitary: np.ndarray) -> np.ndarray:
    """(I tensor U)|Phi> for a dense unitary; a 2N-qubit statevector.

    Amplitude on |i>|j> is U[j, i] / sqrt(2^N).  A matrix with
    max |U^dagger U - I| above STATE_TOL is refused: its vector would not
    have norm 1.
    """
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"choi_state needs a square matrix, got shape {u.shape}")
    n_qubits_of(u)  # validates the dimension
    if not np.all(np.isfinite(u)):
        raise ValueError("unitary has non-finite entries (NaN or infinity)")
    residual = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if residual > STATE_TOL:
        raise ValueError(f"choi_state needs a unitary: |U^dagger U - I| reaches {residual:.3g}")
    return (u.T / np.sqrt(u.shape[0])).reshape(-1)
