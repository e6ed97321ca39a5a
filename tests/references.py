"""Reference implementations and fixtures that only the tests use, kept apart
from the library as independent cross-checks."""
import numpy as np

from magic_meter._bits import interleave_zx, kron_factors, kron_products, popcount, wht
from magic_meter.circuits import gate_clifford, gate_cnot, gate_t
from magic_meter.oracles import tsallis_stabilizer_entropy
from magic_meter.paulis import PauliString
from magic_meter.states import n_qubits_of

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


# sqrt(2) U_Bell with U_Bell = (H tensor I) CNOT on one (a_j, b_j) pair: its
# entries are 0 and +-1 and its top-left entry is 1, so its Kronecker powers
# are products of 16 x 16 factors (sqrt(2) U_Bell)^{tensor 2}.
_BELL = kron_factors(np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=float), 2)


def register_bell_distribution(a, b):
    """|U_Bell^{tensor N} (a tensor b)|^2 through the 2N-qubit register, copies
    interleaved pairwise: U_Bell^{tensor N} = 2^{-N/2} (sqrt(2) U_Bell)^{tensor N},
    one BLAS product per 16 x 16 factor on the float64 view of the register."""
    n = n_qubits_of(a)
    joint = (a.reshape((2, 1) * n) * b.reshape((1, 2) * n)).reshape(-1)
    amplitudes = kron_products(joint, _BELL)
    amplitudes *= 2.0 ** (-n / 2)
    return np.abs(amplitudes) ** 2


def choice_sample_bell(dist, size, rng):
    """Bell samples through numpy's ``Generator.choice``, which holds the
    normalized distribution and its running sum in full."""
    return rng.choice(len(dist), size, p=dist / dist.sum())


def scalar_draw_doped_layers(n_qubits, depth, n_tgates, rng):
    """The layers of ``doped_layered_gate_layers`` drawn one Clifford index at
    a time: the T slots first, then one ``int(rng.integers(24))`` per (layer,
    qubit) slot in layer order, each followed by its T gates, and the CNOT
    chain (q + 1, q) closing every layer."""
    slots = rng.integers(0, depth * n_qubits, size=n_tgates)
    counts = np.bincount(slots, minlength=depth * n_qubits)
    layers = []
    for layer in range(depth):
        gates = []
        for q in range(1, n_qubits + 1):
            gates.append(gate_clifford(q, int(rng.integers(24))))
            gates += [gate_t(q)] * int(counts[layer * n_qubits + q - 1])
        layers.append(gates + [gate_cnot(q + 1, q) for q in range(1, n_qubits)])
    return layers


def commutes(sigma: PauliString, tau: PauliString) -> bool:
    """True iff the symplectic inner product of the bit vectors is even."""
    if sigma.n_qubits != tau.n_qubits:
        raise ValueError("qubit counts differ")
    overlap = popcount(sigma.z & tau.x) + popcount(sigma.x & tau.z)
    return int(overlap) % 2 == 0


def basis_state(index: int, n_qubits: int) -> np.ndarray:
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[index] = 1.0
    return psi


def random_density_matrix(n_qubits: int, rng, rank: int | None = None) -> np.ndarray:
    """Random mixed state from a Ginibre factor of the given rank."""
    rng = np.random.default_rng(rng)
    dim = 1 << n_qubits
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def conjugate_state(psi: np.ndarray) -> np.ndarray:
    """Element-wise complex conjugate in the computational basis."""
    return np.asarray(psi, dtype=complex).conj()


def maximally_entangled_state(n_qubits: int) -> np.ndarray:
    """2N-qubit state 2^{-N/2} sum_i |i>|i> (first register = first N qubits)."""
    dim = 1 << n_qubits
    phi = np.zeros(dim * dim, dtype=complex)
    phi[np.arange(dim) * dim + np.arange(dim)] = dim**-0.5
    return phi


def tsallis_monotonicity_gap(state: np.ndarray, measured_qubits, n) -> float:
    """T_n(psi) minus the average T_n of the post-measurement states for a
    computational-basis measurement on the given (1-based) qubit subset.
    Negative values witness a strong-monotonicity violation."""
    psi = np.asarray(state, dtype=complex)
    nq = n_qubits_of(psi)
    axes = sorted(set(q - 1 for q in measured_qubits))
    before = tsallis_stabilizer_entropy(psi, n)
    # one row per outcome, the measured bits most significant in qubit order
    branches = np.moveaxis(psi.reshape([2] * nq), axes, range(len(axes))).reshape(2 ** len(axes), -1)
    after = 0.0
    for branch in branches:
        prob = float(np.sum(np.abs(branch) ** 2))
        if prob < 1e-12 or branch.size == 1:
            continue  # an outcome never seen, or all qubits measured: T_n = 0 on a basis state
        after += prob * tsallis_stabilizer_entropy(branch / np.sqrt(prob), n)
    return before - after
