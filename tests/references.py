"""Reference implementations that only the tests use, kept apart from the
library as independent cross-checks."""
import numpy as np

from magic_meter._bits import interleave_zx, popcount, wht

# i^p looked up by p mod 4
I_POWERS = np.array([1, 1j, -1, -1j])


def reference_pauli_transform(n, rows, finish):
    """The full-row Pauli transform of any rows f[x, k], Hermitian or not:
    v[x, z] = i^{|z&x|} sum_k (-1)^{z.k} f[x, k] over all 2^N basis indices k,
    mapped by ``finish`` and scattered through an interleaved index array."""
    dim = 1 << n
    k = np.arange(dim)[None, :]
    out = np.empty(4**n)
    for start in range(0, dim, 512):
        xs = np.arange(start, min(start + 512, dim))[:, None]
        vals = I_POWERS[popcount(k & xs) & 3] * wht(rows(xs, k))
        out[interleave_zx(k, xs, n).ravel()] = finish(vals).ravel()
    return out
