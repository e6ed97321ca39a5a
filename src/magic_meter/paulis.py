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


@lru_cache(maxsize=STATEVECTOR_QUBIT_GUARD)
def _half_rows(n: int) -> tuple[np.ndarray, ...]:
    """Per bit b < n, the read-only ascending basis indices k with bit b clear,
    built once per register width."""
    kept = np.arange(1 << (n - 1))
    rows = tuple(((kept >> b) << (b + 1)) | (kept & ((1 << b) - 1)) for b in range(n))
    for k in rows:
        k.flags.writeable = False
    return rows


# Widest register of the one-pass kernel.  Beyond it the block loop is as fast
# or faster (9 and 10 qubits, one BLAS thread), and no tables are held.
_ONE_PASS_QUBITS = 8


@lru_cache(maxsize=_ONE_PASS_QUBITS)
def _one_pass_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the one-pass kernel at width n, built on first use:
    the X-mask column, the kept basis indices k of each row, c = |k & x| mod 4
    and the gather from the transformed half rows to the interleaved output.

    Row x < 2^N keeps the k whose bit b(x), the top set bit of x, is clear
    (b(0) = 0, so row 0 holds the even k); one more row, again of mask 0,
    holds the odd k for the mask-0 packing.  The transformed rows, viewed as
    floats, hold (Re, Im) of W'[x, z'] at 2^N x + 2 z' + (0, 1), and output
    index (z, x) reads the part set by bit b(x) of z at the z' that is z less
    that bit.
    """
    dim = 1 << n
    x = np.arange(dim)
    top = np.array([max(v.bit_length() - 1, 0) for v in range(dim)])  # b(x)
    kept = np.stack(_half_rows(n))[top]
    kept = np.vstack([kept, kept[:1] | 1])
    xs = np.append(x, 0)[:, None]
    c = (np.bitwise_count(kept[:dim] & xs[:dim]) & 3).astype(np.uint8)
    z = x[:, None]  # source index of output (z, x): one row per z, one column per x
    bit = (z >> top) & 1
    low = (1 << top) - 1
    packed = ((z >> (top + 1)) << top) | (z & low)  # z' = z less bit b(x)
    gather = np.empty(4**n, dtype=np.int32)
    gather[interleave_zx(z, x, n)] = x * dim + 2 * packed + bit
    for table in (xs, kept, c, gather):
        table.flags.writeable = False
    return xs, kept, c, gather


def _pauli_transform(n: int, rows) -> np.ndarray:
    """The one Pauli-transform kernel over all 4^N strings sigma = (z, x).

    ``rows(x, k)`` gives the block f[x, k] (x a column of X-masks, k a row of
    basis indices), and the kernel returns the real values
    v[x, z] = i^{|z&x|} sum_k (-1)^{z.k} f[x, k].  Each row must be Hermitian
    under k -> k ^ x, f[x, k ^ x] = conj f[x, k], as the rows of a pure or
    mixed state are, so only half of it is read.  For b the top set bit of x,
    the half row h[k'] = f[x, k] over the k with bit b clear has the
    transform W'; with z' = z less bit b and c = |z' & x|,
    v[x, z] = 2 Re(i^c W'[z']) where bit b of z is 0 and -2 Im(i^c W'[z'])
    where it is 1.  Mask 0 has no set bit: its real row pairs on bit 0,
    f0 = f[0, k] and f1 = f[0, k | 1] packed into h = ((f0 + f1) - i(f0 - f1)) / 2,
    which the same two formulas unpack.

    Up to _ONE_PASS_QUBITS every mask fits one Walsh-Hadamard transform, and
    one ``rows`` call, one phase product, one conjugation (so the imaginary
    parts come out negated) and one gather through cached tables finish it.
    Wider registers take ``_block_transform``.
    """
    if n > _ONE_PASS_QUBITS:
        return _block_transform(n, rows)
    dim = 1 << n
    xs, kept, c, gather = _one_pass_tables(n)
    half = rows(xs, kept)
    f0, f1 = half[0].real, half[dim].real
    half[0] = ((f0 + f1) - 1j * (f0 - f1)) / 2
    vals = wht(half[:dim])
    # free the rows (f0 and f1 view them) before the next allocations: a
    # lower peak leaves the allocator fewer freed pages to map again per call
    del half, f0, f1
    vals *= _TWICE_I_POWERS.take(c)
    np.conjugate(vals, out=vals)
    return vals.view(float).reshape(-1).take(gather)


def _block_transform(n: int, rows) -> np.ndarray:
    """``_pauli_transform`` in chunks of _CHUNK X-masks, one in-place
    Walsh-Hadamard transform per chunk of one reused buffer.  A chunk is
    split into aligned blocks of masks that share their top bit and hold at
    most BLOCK_BYTES of half rows.  Each block is filled by one ``rows`` call,
    then, after the transform, takes its phase and is written through
    ``xz_block``, so no scratch is larger than the chunk buffer.
    """
    dim = 1 << n
    out = np.empty(4**n)
    kept = _half_rows(n)
    chunk = min(_CHUNK, dim)
    step = max(1, BLOCK_BYTES // (8 * dim))  # masks per block: a half row is 8 dim bytes
    half = np.empty((chunk, dim >> 1), dtype=complex)
    for start in range(0, dim, chunk):
        # (first mask, mask count, top bit b) of each block; mask 0 pairs on bit 0
        if start:
            spans = [(start, chunk, start.bit_length() - 1)]
        else:
            spans = [(0, 1, 0)] + [(1 << b, 1 << b, b) for b in range(chunk.bit_length() - 1)]
        blocks = [(first + s, min(step, count), b) for first, count, b in spans for s in range(0, count, step)]
        masks = [np.arange(first, first + count)[:, None] for first, count, _ in blocks]
        for (first, count, b), xs in zip(blocks, masks):
            if first:
                half[first - start : first - start + count] = rows(xs, kept[b])
            else:
                f0, f1 = rows(xs, np.stack([kept[0], kept[0] | 1])).real
                half[0] = ((f0 + f1) - 1j * (f0 - f1)) / 2
        wht(half, out=half)
        for (first, count, b), xs in zip(blocks, masks):
            block = half[first - start : first - start + count]
            block *= _TWICE_I_POWERS.take(np.bitwise_count(kept[b] & xs) & 3)
            target = xz_block(out, n, first, count)
            block = block.reshape(target.shape[1:])
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
