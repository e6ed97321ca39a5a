"""Hamiltonians for the scrambling studies: GUE matrices, sums of random
Pauli strings, the disordered Heisenberg/Ising chain, and exact time
evolution by dense eigendecomposition."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._guards import UNITARY_QUBIT_GUARD, check_capacity, check_integer, finite_real
from .paulis import PauliString, pauli_from_index, pauli_from_string
from .states import n_qubits_of

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class PauliSum:
    """Hamiltonian sum_k g_k sigma_k with real coefficients."""

    terms: tuple[tuple[float, PauliString], ...]
    n_qubits: int

    def __post_init__(self):
        for g, sigma in self.terms:
            if not np.isfinite(g):
                raise ValueError("coefficients must be finite")
            if sigma.n_qubits != self.n_qubits:
                raise ValueError("term width differs from Hamiltonian width")

    def to_dense(self) -> np.ndarray:
        dim = 1 << self.n_qubits
        h = np.zeros((dim, dim), dtype=complex)
        for g, sigma in self.terms:
            h += g * sigma.to_matrix()
        return h


def dense_of(hamiltonian) -> np.ndarray:
    h = hamiltonian.to_dense() if isinstance(hamiltonian, PauliSum) else np.asarray(hamiltonian)
    if np.max(np.abs(h - h.conj().T)) > HERMITIAN_TOL:
        raise ValueError("Hamiltonian is not Hermitian")
    return h


def gue_hamiltonian(n_qubits: int, rng) -> np.ndarray:
    """GUE draw scaled by 2^{-N/2} so the spectrum concentrates on [-2, 2]."""
    check_integer(n_qubits, "n_qubits", 1)
    rng = np.random.default_rng(rng)
    dim = 1 << n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2 * dim**-0.5


def random_pauli_hamiltonian(n_qubits: int, n_terms: int, rng) -> PauliSum:
    """K distinct nonidentity Pauli strings with Gaussian weights, rescaled to
    unit normalized trace of H^2 (tr(H^2) = 2^N), the GUE energy scale."""
    check_integer(n_qubits, "n_qubits", 1)
    check_integer(n_terms, "n_terms", 1)
    if n_terms > 4**n_qubits - 1:
        raise ValueError("more terms than nonidentity Pauli strings")
    rng = np.random.default_rng(rng)
    indices = 1 + rng.choice(4**n_qubits - 1, size=n_terms, replace=False)
    coeffs = rng.normal(size=n_terms)
    scale = np.sqrt(np.sum(coeffs**2))  # sqrt(tr(H^2)/2^N) for distinct strings
    terms = tuple(
        (float(g / scale), pauli_from_index(int(p), n_qubits))
        for g, p in zip(coeffs, indices)
    )
    return PauliSum(terms, n_qubits)


def ising_hamiltonian(n_qubits: int, delta: float, disorder: float, rng) -> PauliSum:
    """Open-chain XXZ Heisenberg Hamiltonian with random longitudinal fields:
    sum_k (X_k X_{k+1} + Y_k Y_{k+1} + delta Z_k Z_{k+1}) + sum_k h_k Z_k,
    h_k uniform in [-W, W]."""
    check_integer(n_qubits, "n_qubits", 2)
    if not finite_real(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if not (finite_real(disorder) and disorder >= 0):
        raise ValueError(f"disorder must be finite and at least 0, got {disorder!r}")
    rng = np.random.default_rng(rng)
    fields = rng.uniform(-disorder, disorder, size=n_qubits)

    def site_string(ops: dict[int, str]) -> PauliString:
        chars = ["I"] * n_qubits
        for q, c in ops.items():
            chars[q - 1] = c
        return pauli_from_string("".join(chars))

    terms: list[tuple[float, PauliString]] = []
    for k in range(1, n_qubits):
        for axis in ("X", "Y"):
            terms.append((1.0, site_string({k: axis, k + 1: axis})))
        terms.append((float(delta), site_string({k: "Z", k + 1: "Z"})))
    for k in range(1, n_qubits + 1):
        terms.append((float(fields[k - 1]), site_string({k: "Z"})))
    return PauliSum(tuple(terms), n_qubits)


class Evolver:
    """Eigendecomposition of a Hamiltonian, reused across evolution times."""

    def __init__(self, hamiltonian):
        n = hamiltonian.n_qubits if isinstance(hamiltonian, PauliSum) else n_qubits_of(hamiltonian)
        check_capacity(n, UNITARY_QUBIT_GUARD, "qubits in dense evolution")
        self.eigvals, self.eigvecs = np.linalg.eigh(dense_of(hamiltonian))

    def _phases(self, t: float) -> np.ndarray:
        if not finite_real(t):
            raise ValueError(f"time t must be finite, got {t!r}")
        return np.exp(-1j * self.eigvals * t)

    def unitary(self, t: float) -> np.ndarray:
        return (self.eigvecs * self._phases(t)) @ self.eigvecs.conj().T

    def evolve(self, t: float, psi: np.ndarray) -> np.ndarray:
        coeffs = self.eigvecs.conj().T @ psi
        return self.eigvecs @ (self._phases(t) * coeffs)
