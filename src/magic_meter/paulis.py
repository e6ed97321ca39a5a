"""Phase-free N-qubit Pauli strings in the binary symplectic encoding.

A Pauli string is 2N bits: qubit j (1-based, leftmost in text) owns the pair
(r_{2j-1}, r_{2j}) with 00=I, 01=X, 10=Z, 11=Y.  Products discard the global
phase (bits simply XOR) and the dense matrix of a string is
i^{|z & x|} X^x Z^z, i.e. the Hermitian representative with sign +1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bits import deinterleave_index, interleave_zx, popcount, wht

_CHAR_TO_PAIR = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}
_PAIR_TO_CHAR = {v: k for k, v in _CHAR_TO_PAIR.items()}

IMAG_TOL = 1e-8


class ConsistencyError(RuntimeError):
    """A supposedly real quantity came out with a large imaginary residue."""


class CapacityError(ValueError):
    """The request exceeds the configured brute-force size guards."""


@dataclass(frozen=True)
class PauliString:
    """Immutable phase-free Pauli string over n_qubits qubits.

    ``z`` and ``x`` are bit masks with qubit j at bit (n_qubits - j); ``index``
    is the interleaved 2N-bit integer used to address length-4^N arrays.
    """

    z: int
    x: int
    n_qubits: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        top = 1 << self.n_qubits
        if not (0 <= self.z < top and 0 <= self.x < top):
            raise ValueError("z/x masks out of range for qubit count")

    @property
    def index(self) -> int:
        return int(interleave_zx(self.z, self.x, self.n_qubits))

    @property
    def bits(self) -> np.ndarray:
        """The 2N bits (r_1, ..., r_2N), qubit 1 first."""
        idx = self.index
        width = 2 * self.n_qubits
        return np.array([(idx >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)

    @property
    def is_identity(self) -> bool:
        return self.z == 0 and self.x == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit counts differ")
        return PauliString(self.z ^ other.z, self.x ^ other.x, self.n_qubits)

    def __str__(self) -> str:
        out = []
        for j in range(self.n_qubits - 1, -1, -1):
            out.append(_PAIR_TO_CHAR[((self.z >> j) & 1, (self.x >> j) & 1)])
        return "".join(out)

    def to_matrix(self) -> np.ndarray:
        """Dense 2^N x 2^N matrix (guarded to n_qubits <= 10)."""
        if self.n_qubits > 10:
            raise CapacityError("dense Pauli matrices are guarded to 10 qubits")
        dim = 1 << self.n_qubits
        k = np.arange(dim)
        mat = np.zeros((dim, dim), dtype=complex)
        phase = (1j ** int(popcount(self.z & self.x))) * (-1.0) ** popcount(self.z & k)
        mat[k ^ self.x, k] = phase
        return mat


def pauli_from_bits(bits) -> PauliString:
    """Decode a 2N-bit vector (qubit-1 pair first) into a PauliString."""
    arr = np.asarray(bits, dtype=np.int64).ravel()
    if arr.size == 0 or arr.size % 2:
        raise ValueError("bit vector must have positive even length")
    if np.any((arr != 0) & (arr != 1)):
        raise ValueError("bits must be 0 or 1")
    n = arr.size // 2
    z = int("".join(str(b) for b in arr[0::2]), 2)
    x = int("".join(str(b) for b in arr[1::2]), 2)
    return PauliString(z, x, n)


def pauli_from_index(index: int, n_qubits: int) -> PauliString:
    """PauliString for an interleaved 2N-bit integer index."""
    if not (0 <= index < 4**n_qubits):
        raise ValueError("index out of range")
    z, x = deinterleave_index(index, n_qubits)
    return PauliString(int(z), int(x), n_qubits)


def pauli_from_string(text: str) -> PauliString:
    """Parse a string over {I, X, Y, Z}, qubit 1 leftmost (e.g. "XZI")."""
    text = text.strip().upper()
    if not text or any(c not in _CHAR_TO_PAIR for c in text):
        raise ValueError(f"invalid Pauli string {text!r}")
    bits = [b for c in text for b in _CHAR_TO_PAIR[c]]
    return pauli_from_bits(bits)


def apply_pauli(sigma: PauliString, psi: np.ndarray) -> np.ndarray:
    """Apply sigma to a statevector (or to each column of a matrix):
    sigma|k> = i^{|z&x|} (-1)^{z.k} |k ^ x>."""
    dim = psi.shape[0]
    if dim != 1 << sigma.n_qubits:
        raise ValueError("dimension mismatch")
    k = np.arange(dim)
    out = np.empty_like(psi, dtype=complex)
    phase = (1j ** int(popcount(sigma.z & sigma.x))) * (-1.0) ** popcount(sigma.z & k)
    if psi.ndim == 2:
        out[k ^ sigma.x, :] = phase[:, None] * psi
    else:
        out[k ^ sigma.x] = phase * psi
    return out


def _real_or_raise(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_TOL:
        raise ConsistencyError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def expectation(state: np.ndarray, sigma: PauliString) -> float:
    """<psi|sigma|psi> for a statevector, or tr(rho sigma) for a density matrix."""
    state = np.asarray(state)
    dim = 1 << sigma.n_qubits
    if state.ndim == 1:
        if state.shape[0] != dim:
            raise ValueError("dimension mismatch")
        val = complex(np.vdot(state, apply_pauli(sigma, state)))
    elif state.ndim == 2:
        if state.shape != (dim, dim):
            raise ValueError("dimension mismatch")
        k = np.arange(dim)
        phase = (1j ** int(popcount(sigma.z & sigma.x))) * (-1.0) ** popcount(sigma.z & k)
        val = complex(np.sum(phase * state[k, k ^ sigma.x]))
    else:
        raise ValueError("state must be a vector or a square matrix")
    return _real_or_raise(val, f"<{sigma}>")


def commutes(sigma: PauliString, tau: PauliString) -> bool:
    """True iff the symplectic inner product of the bit vectors is even."""
    if sigma.n_qubits != tau.n_qubits:
        raise ValueError("qubit counts differ")
    overlap = popcount(sigma.z & tau.x) + popcount(sigma.x & tau.z)
    return int(overlap) % 2 == 0


SPECTRUM_QUBIT_GUARD = 12


def all_expectations(state: np.ndarray, chunk: int = 512) -> np.ndarray:
    """All 4^N Pauli expectation values, indexed by the interleaved index.

    Works for statevectors and density matrices.  Internally evaluates, for
    every X-mask x, the Walsh-Hadamard transform over k of
    conj(psi_{k^x}) psi_k (or rho[k, k^x]), which is the literal Pauli sum
    vectorized over the Z-masks.
    """
    state = np.asarray(state)
    n = int(np.log2(state.shape[0]))
    if 1 << n != state.shape[0]:
        raise ValueError("dimension is not a power of two")
    if n > SPECTRUM_QUBIT_GUARD:
        raise CapacityError(f"full Pauli spectrum guarded to {SPECTRUM_QUBIT_GUARD} qubits")
    dim = 1 << n
    k = np.arange(dim)
    out = np.empty(4**n)
    worst_imag = 0.0
    for start in range(0, dim, chunk):
        xs = np.arange(start, min(start + chunk, dim))
        if state.ndim == 1:
            rows = state[k[None, :] ^ xs[:, None]].conj() * state[None, :]
        else:
            rows = state[k[None, :], k[None, :] ^ xs[:, None]]
        w = wht(rows)  # w[x - start, z]
        zs = np.arange(dim)
        phases = 1j ** popcount(zs[None, :] & xs[:, None])
        vals = phases * w
        worst_imag = max(worst_imag, float(np.max(np.abs(vals.imag))))
        idx = interleave_zx(zs[None, :], xs[:, None], n)
        out[idx.ravel()] = vals.real.ravel()
    if worst_imag > IMAG_TOL:
        raise ConsistencyError(f"Pauli expectations have imaginary residue {worst_imag:.3e}")
    return out


class PauliSpectrum:
    """Probability distribution Xi(sigma) = 2^-N <sigma>^2 over all Pauli strings."""

    def __init__(self, probabilities: np.ndarray, n_qubits: int):
        self.probabilities = probabilities
        self.n_qubits = n_qubits

    def probability(self, sigma) -> float:
        idx = sigma.index if isinstance(sigma, PauliString) else int(sigma)
        return float(self.probabilities[idx])

    def __getitem__(self, sigma) -> float:
        return self.probability(sigma)

    def total(self) -> float:
        return float(self.probabilities.sum())


def pauli_spectrum(state: np.ndarray) -> PauliSpectrum:
    """Full distribution Xi over the 4^N Pauli strings of a pure state."""
    state = np.asarray(state)
    if state.ndim != 1:
        raise ValueError("pauli_spectrum expects a pure statevector")
    n = int(np.log2(state.shape[0]))
    values = all_expectations(state)
    return PauliSpectrum(values**2 / 2**n, n)
