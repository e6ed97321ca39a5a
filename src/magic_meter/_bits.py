"""Shared bit-twiddling helpers: popcounts, Walsh-Hadamard transforms and
the interleaved <-> (z, x) index conversions used by the symplectic Pauli
encoding."""
from __future__ import annotations

import numpy as np


def popcount(values):
    """Population count of nonnegative integers (scalar or ndarray)."""
    return np.bitwise_count(np.asarray(values, dtype=np.uint64)).astype(np.int64)


# Each Walsh-Hadamard factor is one BLAS product with the Sylvester matrix
# H_f[z, k] = (-1)^{popcount(z & k)} of f <= _FACTOR rows, the top-left block
# of _H.  _FIRST_FACTOR[c] = kron(_H, I_c) transforms c float64 columns per
# entry (c = 2: the interleaved (re, im) view of complex input).
_FACTOR = 32
_H = 1.0 - 2.0 * (popcount(np.arange(_FACTOR)[:, None] & np.arange(_FACTOR)) & 1)
_FIRST_FACTOR = {1: _H, 2: np.kron(_H, np.eye(2))}


def wht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    Returns W[..., z] = sum_k (-1)^{popcount(z & k)} a[..., k] as a new array
    and leaves the input alone.  The length of the last axis must be a power
    of two (else ``ValueError``).  Complex input gives complex128; any other
    input, integers included, gives float64.

    H_n is the Kronecker product of Sylvester factors H_f with f <= 32, and
    the transform is one BLAS product per factor on the float64 view of the
    array: ``view @ kron(H_f, I_c)`` for the lowest index bits, then
    ``H_f @ view`` for each higher group.  The +-1 products are exact, so
    the result differs from a radix-2 butterfly only in the order of
    summation.  BLAS splits a product across threads by rows and columns,
    never along the summed axis, so results are bit-reproducible for any
    ``--threads`` and BLAS thread count.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError("length must be a power of two")
    c = 2 if np.iscomplexobj(a) else 1
    x = np.ascontiguousarray(a, dtype=complex if c == 2 else float).view(float)
    inner = c * min(n, _FACTOR)  # float64 columns transformed so far
    x = x.reshape(-1, inner) @ _FIRST_FACTOR[c][:inner, :inner]
    while inner < c * n:
        f = min(c * n // inner, _FACTOR)
        x = np.matmul(_H[:f, :f], x.reshape(-1, f, inner))
        inner *= f
    x = x.reshape(a.shape[:-1] + (c * n,))
    return x.view(complex) if c == 2 else x


def xor_convolve(dists: list[np.ndarray]) -> np.ndarray:
    """XOR (dyadic) convolution of probability vectors of equal power-of-two
    length: the distribution of the bitwise XOR of independent draws."""
    size = dists[0].shape[-1]
    acc = wht(dists[0])
    for d in dists[1:]:
        acc = acc * wht(d)
    return wht(acc) / size


def spread_bits(values, n_bits: int):
    """Spread the n_bits low bits of each value so that bit m moves to bit 2m."""
    v = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(v)
    for m in range(n_bits):
        out |= ((v >> m) & 1) << (2 * m)
    return out


def compact_bits(values, n_bits: int):
    """Inverse of spread_bits: gather bits at even positions 0, 2, ... back."""
    v = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(v)
    for m in range(n_bits):
        out |= ((v >> (2 * m)) & 1) << m
    return out


def interleave_zx(z, x, n_qubits: int):
    """Combine z/x bit masks into the interleaved 2N-bit Pauli index.

    Qubit j (1-based, j=1 most significant) owns index bits (2(N-j)+1, 2(N-j))
    holding its (z, x) pair, so sigma_00=I, sigma_01=X, sigma_10=Z, sigma_11=Y.
    """
    return (spread_bits(z, n_qubits) << 1) | spread_bits(x, n_qubits)


def deinterleave_index(index, n_qubits: int):
    """Split interleaved Pauli indices into (z, x) bit masks."""
    idx = np.asarray(index, dtype=np.int64)
    return compact_bits(idx >> 1, n_qubits), compact_bits(idx, n_qubits)


def symplectic_wht(a: np.ndarray, n_qubits: int) -> np.ndarray:
    """Symplectic Fourier transform over interleaved Pauli indices,
    W[r] = sum_s (-1)^{<r, s>} a[s] with <r, s> = z_r.x_s + x_r.z_s: the WHT
    read at the index with the z and x bit of every qubit pair exchanged."""
    idx = np.arange(a.shape[-1])
    even = spread_bits((1 << n_qubits) - 1, n_qubits)  # 0b0101...01
    return wht(a)[((idx & even) << 1) | ((idx >> 1) & even)]
