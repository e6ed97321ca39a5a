"""Shared bit-twiddling helpers: popcounts, Kronecker-power products (the
Walsh-Hadamard transform), the interleaved <-> (z, x) index conversions used
by the symplectic Pauli encoding and the strided (x bits, z bits) view that
the streamed kernels write their blocks through."""
from __future__ import annotations

import numpy as np


def popcount(values):
    """Population count of nonnegative integers (scalar or ndarray)."""
    return np.bitwise_count(np.asarray(values, dtype=np.uint64)).astype(np.int64)


def kron_factors(m: np.ndarray, k: int):
    """The tables ``kron_products`` applies for the Kronecker powers of m.

    Returns F = m^{tensor k} and {c: kron(F^T, I_c)} for c = 1, 2.  m[0, 0]
    must be 1, so that the top-left f x f block of F is the factor m^{tensor j}
    with f = d^j rows for every j <= k.  Build them once, at import.  The
    first-factor tables are C-ordered: BLAS sums a transposed operand in
    another order, and ``wht`` keeps the summation order of its products.
    """
    table = m
    for _ in range(k - 1):
        table = np.kron(table, m)
    return table, {c: np.ascontiguousarray(np.kron(table.T, np.eye(c))) for c in (1, 2)}


# Bytes of float64 rows per BLAS product in ``kron_products``, and of the row
# blocks the streamed spectrum and Bell kernels fill: blocks this small are
# served from the heap and their pages reused from call to call.
BLOCK_BYTES = 1 << 20


def kron_products(a: np.ndarray, factors, out: np.ndarray | None = None) -> np.ndarray:
    """M^{tensor m} applied along the last axis of a, whose length n is a
    power of M's size d: W[..., z] = sum_k M^{tensor m}[z, k] a[..., k].

    ``factors`` is ``kron_factors(M, j)``.  M^{tensor m} is a product of
    factors M^{tensor i} with i <= j, each one BLAS product on the float64
    view of the array: ``view @ kron(F_f^T, I_c)`` for the lowest index
    digits, then ``F_f @ view`` for each higher group (c = 2 interleaved
    (re, im) columns for complex input, c = 1 for real).  The products run
    over blocks of rows of at most BLOCK_BYTES (at least one row), the last
    one written into the result, so no scratch exceeds a block.  Returns a
    complex128 or float64 array: ``out`` when given, which must be
    C-contiguous of that dtype and a's shape and may be a itself, else a new
    one that leaves the input alone.  BLAS splits a product across threads
    by rows and columns, never along the summed axis, so results are
    bit-reproducible for any ``--threads``, BLAS thread count and block.
    """
    table, first = factors
    n = a.shape[-1]
    c = 2 if np.iscomplexobj(a) else 1
    dtype = complex if c == 2 else float
    x = np.ascontiguousarray(a, dtype=dtype).view(float).reshape(-1, c * n)
    if out is None:
        out = np.empty(a.shape, dtype=dtype)
    elif out.dtype != dtype or out.shape != a.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {np.dtype(dtype)} array of shape {a.shape}")
    y = out.view(float).reshape(-1, c * n)
    rows = max(1, BLOCK_BYTES // (8 * c * n))
    for start in range(0, x.shape[0], rows):
        block, dest = x[start : start + rows], y[start : start + rows]
        inner = c * min(n, table.shape[0])  # float64 columns transformed so far
        last = dest.reshape(-1, inner) if inner == c * n else None
        t = np.matmul(block.reshape(-1, inner), first[c][:inner, :inner], out=last)
        while inner < c * n:
            f = min(c * n // inner, table.shape[0])
            last = dest.reshape(-1, f, inner) if inner * f == c * n else None
            t = np.matmul(table[:f, :f], t.reshape(-1, f, inner), out=last)
            inner *= f
    return out


# Sylvester factors H_f[z, k] = (-1)^{popcount(z & k)} of at most 32 rows.
_SYLVESTER = kron_factors(np.array([[1.0, 1.0], [1.0, -1.0]]), 5)


def wht(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    Returns W[..., z] = sum_k (-1)^{popcount(z & k)} a[..., k], as a new
    array that leaves the input alone or written into ``out`` as
    ``kron_products`` allows (``wht(a, out=a)`` transforms in place).  The
    length of the last axis must be a power of two (else ``ValueError``).
    Complex input gives complex128; any other input, integers included,
    gives float64.

    H_n is the Kronecker product of Sylvester factors H_f with f <= 32, one
    BLAS product each (``kron_products``).  The +-1 products are exact, so
    the result differs from a radix-2 butterfly only in the order of
    summation.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError("length must be a power of two")
    return kron_products(a, _SYLVESTER, out)


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


def xz_block(out: np.ndarray, n_qubits: int, first: int, count: int) -> np.ndarray:
    """The entries of X-masks first, ..., first + count - 1 of a contiguous
    length-4^N array indexed by the interleaved Pauli index, as a view with
    one axis per x bit that varies in the block, then one per z bit (most
    significant first).  count must be a power of two that divides first.

    Reshaped to one axis per index bit, the interleaved index holds qubit j's
    z bit on axis 2j - 2 and its x bit on axis 2j - 1, so the block is the
    part of the (x bits, z bits) transpose whose leading x bits are those of
    first, and no index array is built.
    """
    n = n_qubits
    by_xz = out.reshape((2,) * (2 * n)).transpose([*range(1, 2 * n, 2), *range(0, 2 * n, 2)])
    free = count.bit_length() - 1  # x bits that vary within the block
    return by_xz[tuple((first >> (n - 1 - j)) & 1 for j in range(n - free))]


def symplectic_wht(a: np.ndarray, n_qubits: int) -> np.ndarray:
    """Symplectic Fourier transform over interleaved Pauli indices,
    W[r] = sum_s (-1)^{<r, s>} a[s] with <r, s> = z_r.x_s + x_r.z_s: the WHT
    read at the index with the z and x bit of every qubit pair exchanged."""
    idx = np.arange(a.shape[-1])
    even = spread_bits((1 << n_qubits) - 1, n_qubits)  # 0b0101...01
    return wht(a)[((idx & even) << 1) | ((idx >> 1) & even)]
