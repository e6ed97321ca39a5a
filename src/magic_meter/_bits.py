"""Shared bit-twiddling helpers: popcounts, Walsh-Hadamard transforms and
the interleaved <-> (z, x) index conversions used by the symplectic Pauli
encoding."""
from __future__ import annotations

import numpy as np


def popcount(values):
    """Population count of nonnegative integers (scalar or ndarray)."""
    return np.bitwise_count(np.asarray(values, dtype=np.uint64)).astype(np.int64)


def wht(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis.

    Returns W[..., z] = sum_k (-1)^{popcount(z & k)} a[..., k].  The length of
    the last axis must be a power of two.
    """
    a = np.array(a, copy=True)
    n = a.shape[-1]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < n:
        shape = a.shape[:-1] + (n // (2 * h), 2, h)
        a = a.reshape(shape)
        lo = a[..., 0, :] + a[..., 1, :]
        hi = a[..., 0, :] - a[..., 1, :]
        a = np.stack([lo, hi], axis=-2).reshape(a.shape[:-3] + (n,))
        h *= 2
    return a


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
