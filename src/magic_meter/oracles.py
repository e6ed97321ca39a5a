"""Exact brute-force reference computations: Pauli-spectrum moments,
stabilizer entropies, participation entropy and flatness, OTOCs and their
Clifford averages, stabilizer-state enumeration, magic-monotone bounds,
Bell magic, and the Tsallis measurement-monotonicity gap.

Everything here is exponential-cost and serves as the oracle the sampling
estimators are checked against.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._bits import interleave_zx, swap_pair_bits, wht
from .circuits import Circuit, Gate, apply_gate, circuit_unitary, gate_cnot
from .paulis import (
    CapacityError,
    PauliString,
    all_expectations,
    apply_pauli,
    pauli_from_index,
)
from .states import choi_state, n_qubits_of

MOMENT_QUBIT_GUARD = 12
DENSITY_MOMENT_QUBIT_GUARD = 8
STABILIZER_ENUM_GUARD = 3
GAMMA_COPY_GUARD = 4


def pauli_moment(state: np.ndarray, n) -> float:
    """The n-th moment of the Pauli spectrum, 2^-N sum_sigma <sigma>^{2n}.

    Accepts statevectors and density matrices and any real n >= 1 (the sum
    uses |<sigma>|^{2n}, which for integer n is the plain even power).
    """
    state = np.asarray(state)
    nq = n_qubits_of(state)
    guard = MOMENT_QUBIT_GUARD if state.ndim == 1 else DENSITY_MOMENT_QUBIT_GUARD
    if nq > guard:
        raise CapacityError(f"{nq}-qubit Pauli sum exceeds the {guard}-qubit guard")
    if n <= 0:
        raise ValueError("moment index must be positive")
    values = all_expectations(state)
    if n >= 1:
        return float(np.sum(np.abs(values) ** (2 * n)) / 2**nq)
    nonzero = np.abs(values[np.abs(values) > 1e-16])  # 0^{2n} = 0 for fractional n too
    return float(np.sum(nonzero ** (2 * n)) / 2**nq)


def renyi_stabilizer_entropy(state: np.ndarray, n) -> float:
    """(1-n)^-1 ln of the n-th Pauli-spectrum moment; n = 1 is the von Neumann
    limit."""
    if n == 1:
        return von_neumann_stabilizer_entropy(state)
    return float(np.log(pauli_moment(state, n)) / (1 - n))


def tsallis_stabilizer_entropy(state: np.ndarray, n) -> float:
    """(1-n)^-1 (moment - 1); n = 1 is the von Neumann limit."""
    if n == 1:
        return von_neumann_stabilizer_entropy(state)
    return float((pauli_moment(state, n) - 1.0) / (1 - n))


def von_neumann_stabilizer_entropy(state: np.ndarray) -> float:
    """-2^-N sum_sigma <sigma>^2 ln <sigma>^2 from the full spectrum."""
    state = np.asarray(state)
    nq = n_qubits_of(state)
    sq = all_expectations(state) ** 2
    sq = sq[sq > 1e-16]
    return float(-np.sum(sq * np.log(sq)) / 2**nq)


def moment_operator(n: int) -> np.ndarray:
    """The single-site 2n-copy observable (1/2) sum_k sigma_k^{tensor 2n}
    whose per-site expectation builds the n-th Pauli moment."""
    if n < 1 or n > GAMMA_COPY_GUARD:
        raise CapacityError(f"dense moment operator guarded to n <= {GAMMA_COPY_GUARD}")
    paulis = [np.eye(2, dtype=complex)] + [
        pauli_from_index(i, 1).to_matrix() for i in (1, 2, 3)
    ]
    dim = 2 ** (2 * n)
    gamma = np.zeros((dim, dim), dtype=complex)
    for p in paulis:
        term = np.array([[1.0]], dtype=complex)
        for _ in range(2 * n):
            term = np.kron(term, p)
        gamma += term
    return gamma / 2.0


def participation_entropy(state: np.ndarray, q: float) -> float:
    """I_q = sum_k |<k|psi>|^{2q} of the computational-basis distribution."""
    if q <= 0:
        raise ValueError("q must be positive")
    probs = np.abs(np.asarray(state)) ** 2
    return float(np.sum(probs**q))


def flatness(state: np.ndarray) -> float:
    """Multifractal flatness I_3 - I_2^2 of the basis distribution."""
    return participation_entropy(state, 3) - participation_entropy(state, 2) ** 2


def clifford_average_flatness(state: np.ndarray) -> float:
    """Flatness averaged over the Clifford orbit: 2(1 - A_2)/((2^N+1)(2^N+2))."""
    nq = n_qubits_of(state)
    dim = 2**nq
    return 2.0 * (1.0 - pauli_moment(state, 2)) / ((dim + 1) * (dim + 2))


def _as_unitary(u) -> np.ndarray:
    return circuit_unitary(u) if isinstance(u, Circuit) else np.asarray(u, dtype=complex)


def otoc(u, sigma: PauliString, sigma_prime: PauliString, n: int) -> float:
    """4n-point out-of-time-order correlator (2^-N tr(sigma U sigma' U^dag))^{2n}."""
    mat = _as_unitary(u)
    nq = n_qubits_of(mat)
    if sigma.n_qubits != nq or sigma_prime.n_qubits != nq:
        raise ValueError("Pauli width differs from unitary width")
    left = np.stack([apply_pauli(sigma, col) for col in mat.T], axis=1)  # sigma U
    right = np.stack([apply_pauli(sigma_prime, col) for col in mat.conj()], axis=1)  # sigma' U^dag
    val = np.trace(left @ right)
    return float((val.real / 2**nq) ** (2 * n))


def clifford_average_otoc(u, n: int) -> float:
    """otoc_4n averaged over Clifford pre/post-rotations:
    (A_n(choi) 4^N - 1)/(4^N - 1)^2."""
    mat = _as_unitary(u)
    nq = n_qubits_of(mat)
    moment = pauli_moment(choi_state(mat), n)
    d4 = 4**nq
    return float((moment * d4 - 1.0) / (d4 - 1.0) ** 2)


# -- stabilizer-state enumeration and fidelity --------------------------------

def _canonical_key(psi: np.ndarray) -> bytes:
    lead = psi[np.argmax(np.abs(psi) > 1e-8)]
    rounded = np.round(psi / (lead / abs(lead)), 9) + 0.0  # drop negative zeros
    return rounded.tobytes()


@lru_cache(maxsize=STABILIZER_ENUM_GUARD)
def enumerate_stabilizer_states(n_qubits: int) -> np.ndarray:
    """All pure stabilizer states (rows), deduplicated up to global phase, by
    orbit closure of |0...0> under H, S and CNOT.  Cached; treat as read-only."""
    if n_qubits > STABILIZER_ENUM_GUARD:
        raise CapacityError(f"enumeration guarded to {STABILIZER_ENUM_GUARD} qubits")
    generators = [Gate("H", (q,)) for q in range(1, n_qubits + 1)]
    generators += [Gate("S", (q,)) for q in range(1, n_qubits + 1)]
    generators += [
        gate_cnot(c, t)
        for c in range(1, n_qubits + 1)
        for t in range(1, n_qubits + 1)
        if c != t
    ]
    start = np.zeros(1 << n_qubits, dtype=complex)
    start[0] = 1.0
    found: dict[bytes, np.ndarray] = {_canonical_key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for psi in frontier:
            for g in generators:
                phi = apply_gate(g, psi, n_qubits)
                key = _canonical_key(phi)
                if key not in found:
                    found[key] = phi
                    nxt.append(phi)
        frontier = nxt
    return np.stack(list(found.values()))


def stabilizer_fidelity(state: np.ndarray) -> float:
    """max_phi |<psi|phi>|^2 over all pure stabilizer states (N <= 3)."""
    state = np.asarray(state, dtype=complex)
    table = enumerate_stabilizer_states(n_qubits_of(state))
    return float(np.max(np.abs(table.conj() @ state) ** 2))


def d_min(state: np.ndarray) -> float:
    """Min-relative entropy of magic, -ln F_STAB."""
    return float(-np.log(stabilizer_fidelity(state)))


@dataclass(frozen=True)
class BoundsReport:
    """Efficiently computable bounds on magic monotones derived from one
    Pauli-spectrum moment."""

    n: int
    moment: float
    fstab_upper: float
    fstab_lower: float
    xi_lower: float
    robustness_lower: float
    d_min_upper: float

    @property
    def fstab_lower_vacuous(self) -> bool:
        return self.fstab_lower < 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "A_n": self.moment,
                "fstab_upper": self.fstab_upper,
                "fstab_lower": self.fstab_lower,
                "fstab_lower_vacuous": self.fstab_lower_vacuous,
                "xi_lower": self.xi_lower,
                "robustness_lower": self.robustness_lower,
                "d_min_upper": self.d_min_upper,
            }
        )


def bounds_from_moment(moment: float, n: int, clamp: bool = True) -> BoundsReport:
    """Bounds computed from a given (possibly measured) n-th moment."""
    if n < 2 or int(n) != n:
        raise ValueError("bounds need an integer moment index n >= 2")
    if clamp:
        moment = min(max(moment, 1e-300), 1.0)
    upper = moment ** (1.0 / (2 * n))
    lower = (moment - 2.0 ** (1 - n)) / (1.0 - 2.0 ** (1 - n))
    xi_lower = moment ** (-1.0 / (2 * n))
    robustness = max(moment ** (1.0 / (2 * (1 - n))), xi_lower)
    return BoundsReport(
        n=int(n),
        moment=float(moment),
        fstab_upper=float(upper),
        fstab_lower=float(lower),
        xi_lower=float(xi_lower),
        robustness_lower=float(robustness),
        d_min_upper=float(-np.log(moment) / (2 * n)),
    )


def bounds_report(state: np.ndarray, n: int) -> BoundsReport:
    """Exact-moment bound report for a state."""
    return bounds_from_moment(pauli_moment(state, n), n, clamp=False)


# -- Bell magic ----------------------------------------------------------------

BELL_MAGIC_QUBIT_GUARD = 8


def _two_copy_overlaps(state: np.ndarray) -> np.ndarray:
    """|<psi|sigma_r|psi*>| for every r, indexed by the interleaved index."""
    psi = np.asarray(state, dtype=complex)
    nq = n_qubits_of(psi)
    dim = 1 << nq
    k = np.arange(dim)
    out = np.empty(4**nq)
    for x in range(dim):
        c = psi.conj()[k] * psi.conj()[k ^ x]
        w = wht(c)  # sum_k (-1)^{z.k} psi*_k psi*_{k^x}
        zs = np.arange(dim)
        idx = interleave_zx(zs, np.full(dim, x), nq)
        # |i^{|z&x|} (-1)^{z.x} w| = |w|
        out[idx] = np.abs(w)
    return out


def bell_sampling_distribution_exact(state: np.ndarray) -> np.ndarray:
    """P(r) = 2^-N |<psi|sigma_r|psi*>|^2, the Bell-measurement distribution of
    two identical copies, computed from the Pauli algebra."""
    nq = n_qubits_of(state)
    return _two_copy_overlaps(state) ** 2 / 2**nq


def bell_magic(state: np.ndarray) -> tuple[float, float]:
    """Bell magic B and its additive form -log2(1 - B).

    B = sum_{r,q} Q(r) Q(q) ||[sigma_r, sigma_q]||_inf with Q the Bell-difference
    distribution (XOR self-convolution of the Bell-sampling distribution).
    """
    nq = n_qubits_of(state)
    if nq > BELL_MAGIC_QUBIT_GUARD:
        raise CapacityError(f"Bell magic guarded to {BELL_MAGIC_QUBIT_GUARD} qubits")
    p = bell_sampling_distribution_exact(state)
    size = p.shape[0]
    q = wht(wht(p) ** 2) / size  # XOR self-convolution
    # sum over anticommuting pairs via the symplectic-form WHT identity
    q_hat = wht(q)
    sympl = q_hat[swap_pair_bits(np.arange(size), nq)]
    b = float(np.sum(q * (1.0 - sympl)))
    b = max(b, 0.0)
    additive = float(-np.log2(max(1.0 - b, 1e-300)))
    return b, additive


# -- strong monotonicity gap ----------------------------------------------------

def tsallis_monotonicity_gap(state: np.ndarray, measured_qubits, n) -> float:
    """T_n(psi) minus the average T_n of the post-measurement states for a
    computational-basis measurement on the given (1-based) qubit subset.
    Negative values witness a strong-monotonicity violation."""
    psi = np.asarray(state, dtype=complex)
    nq = n_qubits_of(psi)
    subset = sorted(set(int(q) for q in measured_qubits))
    if not subset:
        raise ValueError("measured qubit subset must be nonempty")
    if any(q < 1 or q > nq for q in subset):
        raise ValueError("measured qubit outside register")
    before = tsallis_stabilizer_entropy(psi, n)
    tensor = psi.reshape([2] * nq)
    axes = [q - 1 for q in subset]
    after = 0.0
    for outcome in range(1 << len(subset)):
        sel: list = [slice(None)] * nq
        for pos, ax in enumerate(axes):
            sel[ax] = (outcome >> (len(axes) - 1 - pos)) & 1
        branch = tensor[tuple(sel)].reshape(-1)
        prob = float(np.sum(np.abs(branch) ** 2))
        if prob < 1e-12:
            continue
        if branch.size == 1:
            continue  # all qubits measured: post-state is a basis state, T_n = 0
        after += prob * tsallis_stabilizer_entropy(branch / np.sqrt(prob), n)
    return before - after
