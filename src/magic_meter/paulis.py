"""Phase-free N-qubit Pauli strings in the binary symplectic encoding.

A Pauli string is 2N bits: qubit j (1-based, leftmost in text) owns the pair
(r_{2j-1}, r_{2j}) with 00=I, 01=X, 10=Z, 11=Y.  Products discard the global
phase (bits simply XOR) and the dense matrix of a string is
i^{|z & x|} X^x Z^z, i.e. the Hermitian representative with sign +1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._bits import BLOCK_BYTES, deinterleave_index, interleave_zx, popcount, wht, xz_block
from ._guards import DENSITY_QUBIT_GUARD, STATEVECTOR_QUBIT_GUARD, UNITARY_QUBIT_GUARD, check_capacity, check_integer, is_integer
from .states import n_qubits_of, validate_state

_CHAR_TO_PAIR = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}
_PAIR_TO_CHAR = {v: k for k, v in _CHAR_TO_PAIR.items()}

IMAG_TOL = 1e-8


class ConsistencyError(RuntimeError):
    """A supposedly real quantity came out with a large imaginary residue."""


@dataclass(frozen=True)
class PauliString:
    """Immutable phase-free Pauli string over n_qubits qubits.

    ``z`` and ``x`` are bit masks with qubit j at bit (n_qubits - j); ``index``
    is the interleaved 2N-bit integer used to address length-4^N arrays.
    ``action`` is computed on first use and kept with the string.
    """

    z: int
    x: int
    n_qubits: int

    def __post_init__(self):
        check_integer(self.n_qubits, "n_qubits", 1)
        check_integer(self.z, "z", 0)
        check_integer(self.x, "x", 0)
        top = 1 << self.n_qubits
        if not (0 <= self.z < top and 0 <= self.x < top):
            raise ValueError("z/x masks out of range for qubit count")

    @property
    def index(self) -> int:
        return int(interleave_zx(self.z, self.x, self.n_qubits))

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

    @cached_property
    def action(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (source, phase) with sigma psi = phase * psi[source]:
        row j of sigma psi is phase(j ^ x) psi[j ^ x]."""
        source = np.arange(1 << self.n_qubits) ^ self.x
        phase = _phase(self, source)
        source.flags.writeable = phase.flags.writeable = False
        return source, phase

    def to_matrix(self) -> np.ndarray:
        """Dense 2^N x 2^N matrix (guarded like dense unitaries)."""
        check_capacity(self.n_qubits, UNITARY_QUBIT_GUARD, "qubits in dense Pauli matrices")
        dim = 1 << self.n_qubits
        k = np.arange(dim)
        mat = np.zeros((dim, dim), dtype=complex)
        mat[k ^ self.x, k] = _phase(self, k)
        return mat


def _phase(sigma: PauliString, k: np.ndarray) -> np.ndarray:
    """i^{|z&x|} (-1)^{z.k}, the phase in sigma|k> = phase |k ^ x>."""
    return (1j ** int(popcount(sigma.z & sigma.x))) * (-1.0) ** popcount(sigma.z & k)


def pauli_from_bits(bits) -> PauliString:
    """Decode a 2N-bit vector (qubit-1 pair first) into a PauliString; each
    entry must be the integer 0 or 1, not a bool or a float."""
    arr = np.asarray(bits, dtype=object).ravel()
    if arr.size == 0 or arr.size % 2:
        raise ValueError("bit vector must have positive even length")
    for b in arr:
        if not (is_integer(b) and b in (0, 1)):
            raise ValueError(f"bits must be the integers 0 or 1, got {b!r}")
    n = arr.size // 2
    z = int("".join(str(b) for b in arr[0::2]), 2)
    x = int("".join(str(b) for b in arr[1::2]), 2)
    return PauliString(z, x, n)


def pauli_from_index(index: int, n_qubits: int) -> PauliString:
    """PauliString for an interleaved 2N-bit integer index."""
    check_integer(n_qubits, "n_qubits", 1)
    check_integer(index, "index", 0)
    if index >= 4**n_qubits:
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
    if psi.shape[0] != 1 << sigma.n_qubits:
        raise ValueError("dimension mismatch")
    source, phase = sigma.action
    return (phase[:, None] if psi.ndim == 2 else phase) * psi[source]


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
        val = complex(np.sum(_phase(sigma, k) * state[k, k ^ sigma.x]))
    else:
        raise ValueError("state must be a vector or a square matrix")
    if abs(val.imag) > IMAG_TOL:
        raise ConsistencyError(f"<{sigma}> has imaginary residue {val.imag:.3e}")
    return float(val.real)


# X-masks per wht call; perfbench's SPECTRUM_CHUNK derives bits.wht.calls from it.
_CHUNK = 512
# 2 i^p looked up by p mod 4: exact, and cheaper than a complex power.
_TWICE_I_POWERS = 2 * np.array([1, 1j, -1, -1j])


def _chunk_blocks(n: int, start: int) -> list:
    """The read-only blocks of the chunk of X-masks from start: aligned runs
    of masks whose ``rows`` call (the rows and one gathered operand, two half
    rows per mask) holds at most BLOCK_BYTES, each as (first mask x0, mask
    column xs, kept indices k, phase index c = |k & xs| mod 4).  Row x keeps
    the ascending basis indices with bit b(x), the top set bit of x, clear;
    a block past mask 0 shares one b, so k is one row.  The first block has
    one row per mask, then one more for mask 0, which has no set bit: it
    keeps the even k and pairs them with the odd k next to them."""
    chunk = min(_CHUNK, 1 << n)
    step = min(chunk, max(1, BLOCK_BYTES // (16 << n)))  # masks per block: two half rows of 8 * 2^N bytes
    low = np.arange(1 << (n - 1))
    blocks = []
    for x0 in range(start, start + chunk, step):
        xs = np.arange(x0, x0 + step)[:, None]
        top = x0.bit_length() - 1 if x0 else np.array([[max(x.bit_length() - 1, 0)] for x in range(step)])
        kept = ((low >> top) << (top + 1)) | (low & ((1 << top) - 1))
        c = np.bitwise_count(kept & xs) & 3
        if not x0:
            xs, kept = np.vstack([xs, [[0]]]), np.vstack([kept, kept[:1] | 1])
        blocks.append((x0, xs, kept, c))
        for table in blocks[-1][1:]:
            table.flags.writeable = False
    return blocks


@lru_cache(maxsize=STATEVECTOR_QUBIT_GUARD)
def _first_chunk(n: int) -> tuple[list, np.ndarray | None]:
    """The tables of the first chunk, built once per width and kept: its
    blocks, ``_chunk_blocks(n, 0)``, and, when the chunk is the whole
    spectrum, the gather (8 * 4^N bytes) from its transformed half rows,
    whose float view holds (Re, Im) of W'[x, z'] at 2^N x + 2 z' + (0, 1),
    to the interleaved output: 0.8 MB at N = 8, 2.4 MB at N = 9, 0.5 MB at
    N = 10, 1.8 MB at N = 12.  Later chunks are built per call: kept for
    every chunk, the phase indices would hold 4^N / 2 bytes per width.  The
    gather stays writable: ``take`` copies a read-only index array per call."""
    dim, blocks = 1 << n, _chunk_blocks(n, 0)
    if dim > _CHUNK:
        return blocks, None
    x = np.arange(dim)
    top = np.array([max(v.bit_length() - 1, 0) for v in range(dim)])  # b(x)
    z = x[:, None]  # one row per z, one column per x
    packed = ((z >> (top + 1)) << top) | (z & ((1 << top) - 1))  # z' = z less bit b(x)
    gather = np.empty(4**n, dtype=np.intp)
    gather[interleave_zx(z, x, n)] = x * dim + 2 * packed + ((z >> top) & 1)
    return blocks, gather


def _pauli_transform(n: int, rows) -> np.ndarray:
    """The one Pauli-transform kernel over all 4^N strings sigma = (z, x).

    ``rows(x, k)`` gives the block f[x, k] (x a column of X-masks, k the basis
    indices of each mask, one row shared by all or one row per mask) as a new
    array, which the kernel may overwrite, and the kernel returns the real
    values v[x, z] = i^{|z&x|} sum_k (-1)^{z.k} f[x, k].  Each row must be
    Hermitian under k -> k ^ x, f[x, k ^ x] = conj f[x, k], as the rows of a
    pure or mixed state are, so only half of it is read.
    For b the top set bit of x, the half row h[k'] = f[x, k] over the k with
    bit b clear has the transform W'; with z' = z less bit b and
    c = |z' & x|, v[x, z] = 2 Re(i^c W'[z']) where bit b of z is 0 and
    -2 Im(i^c W'[z']) where it is 1.  Mask 0 has no set bit: its real row
    pairs on bit 0, f0 = f[0, k] and f1 = f[0, k | 1] packed into
    h = ((f0 + f1) - i(f0 - f1)) / 2, which the same two formulas unpack.

    The masks run in chunks of _CHUNK: one ``rows`` call and one phase
    product per block (``_chunk_blocks``), one in-place Walsh-Hadamard
    transform per chunk.  A spectrum of up to 8 qubits is one block and is
    transformed in the array its ``rows`` call returns; a wider one copies
    its blocks into one buffer that every chunk reuses.  Only the placement
    depends on the size: a one-chunk spectrum is conjugated (so the
    imaginary parts come out negated) and gathered by one ``take``; a wider
    one is written through ``xz_block`` for each run of masks that share
    their top bit, so no scratch exceeds the buffer.
    """
    dim = 1 << n
    chunk = min(_CHUNK, dim)
    first, gather = _first_chunk(n)
    half = np.empty((chunk, dim >> 1), dtype=complex) if len(first) > 1 else None
    out = None if chunk == dim else np.empty(4**n)
    for start in range(0, dim, chunk):
        blocks = _chunk_blocks(n, start) if start else first
        for x0, xs, k, c in blocks:
            f = rows(xs, k)
            if len(blocks) == 1:  # the chunk is one block: transform its rows in place
                half = f[:chunk]
            else:
                half[x0 - start : x0 - start + len(c)] = f[: len(c)]
            if not x0:  # mask 0: f0 = f[0] (even k), f1 = f[-1] (odd k), no view kept
                half[0] = ((f[0].real + f[-1].real) - 1j * (f[0].real - f[-1].real)) / 2
            del f  # copied rows are freed before the next block's rows call
        wht(half, out=half)
        for x0, _, _, c in blocks:
            half[x0 - start : x0 - start + len(c)] *= _TWICE_I_POWERS.take(c)
        if out is None:
            np.conjugate(half, out=half)
            return half.view(float).reshape(-1).take(gather)
        # (first mask, mask count, top bit b) of each run; mask 0 pairs on bit 0
        if start:
            runs = [(start, chunk, start.bit_length() - 1)]
        else:
            runs = [(0, 1, 0)] + [(1 << b, 1 << b, b) for b in range(chunk.bit_length() - 1)]
        for x0, count, b in runs:
            target = xz_block(out, n, x0, count)
            block = half[x0 - start : x0 - start + count].reshape(target.shape[1:])
            at_b = (slice(None),) * (target.ndim - 1 - b)  # z bit b comes next
            target[at_b + (0, ...)] = block.real
            np.negative(block.imag, out=target[at_b + (1, ...)])
    return out


def all_expectations(state: np.ndarray) -> np.ndarray:
    """All 4^N Pauli expectation values, indexed by the interleaved index.

    Works for statevectors and density matrices: the Pauli transform of
    conj(psi_{k^x}) psi_k (or rho[k, k^x]), the literal Pauli sum vectorized
    over the Z-masks.  The state is checked with ``validate_state`` after the
    size guard, so every spectrum consumer (moments, entropies, mixed Bell
    sampling) refuses an unnormalized, non-finite or non-Hermitian state;
    the rows of what passes are Hermitian, so the values are real by
    construction.
    """
    state = np.asarray(state)
    n = n_qubits_of(state)
    if state.ndim == 1:
        check_capacity(n, STATEVECTOR_QUBIT_GUARD, "qubits in a pure-state Pauli spectrum")
    else:
        check_capacity(n, DENSITY_QUBIT_GUARD, "qubits in a density-matrix Pauli spectrum")
    validate_state(state)
    return _pauli_transform(n, _state_rows(state))


def _state_rows(state: np.ndarray):
    """The ``rows`` of a state's Pauli transform: conj(psi_{k^x}) psi_k for a
    statevector, rho[k, k^x] for a density matrix."""
    if state.ndim == 2:
        return lambda x, k: state[k, k ^ x]
    conj = state.conj()

    def rows(x, k):
        block = conj[k ^ x]
        block *= state[k]
        return block

    return rows


class PauliSpectrum:
    """Probability distribution Xi(sigma) = 2^-N <sigma>^2 over all Pauli strings."""

    def __init__(self, probabilities: np.ndarray, n_qubits: int):
        self.probabilities = probabilities
        self.n_qubits = n_qubits

    def probability(self, sigma) -> float:
        """Xi(sigma) for a PauliString of this width or an interleaved index in
        [0, 4^N); any other key is a ValueError that names it."""
        if isinstance(sigma, PauliString):
            if sigma.n_qubits != self.n_qubits:
                raise ValueError(f"Pauli string {sigma} has {sigma.n_qubits} qubits, the spectrum {self.n_qubits}")
            return float(self.probabilities[sigma.index])
        size = len(self.probabilities)
        if not (is_integer(sigma) and 0 <= sigma < size):
            raise ValueError(f"Pauli index must be an integer in [0, {size}), got {sigma!r}")
        return float(self.probabilities[sigma])

    def __getitem__(self, sigma) -> float:
        return self.probability(sigma)


def pauli_spectrum(state: np.ndarray) -> PauliSpectrum:
    """Full distribution Xi over the 4^N Pauli strings of a pure state."""
    state = np.asarray(state)
    if state.ndim != 1:
        raise ValueError(f"pauli_spectrum expects a pure statevector, got shape {state.shape}")
    n = n_qubits_of(state)
    values = all_expectations(state)
    return PauliSpectrum(values**2 / 2**n, n)
