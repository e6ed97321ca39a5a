"""Exact brute-force reference computations: Pauli-spectrum moments,
stabilizer entropies, participation entropy and flatness, OTOCs and their
Clifford averages, stabilizer-state enumeration, magic-monotone bounds and
Bell magic.

Everything here is exponential-cost and serves as the oracle the sampling
estimators are checked against.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._bits import BLOCK_BYTES, symplectic_wht, wht
from ._guards import BELL_MAGIC_QUBIT_GUARD, GAMMA_COPY_GUARD, STABILIZER_ENUM_GUARD, check_capacity
from ._guards import check_integer, finite_real
from .circuits import Circuit, apply_gate, circuit_unitary, gate_cnot, gate_h, gate_s, orbit
from .estimators import bell_distribution
from .paulis import PauliString, all_expectations, apply_pauli, pauli_from_index
from .states import choi_state, n_qubits_of, validate_state, zero_state


def pauli_moment(state: np.ndarray, n) -> float:
    """The n-th moment of the Pauli spectrum, 2^-N sum_sigma <sigma>^{2n}.

    Accepts statevectors and density matrices and any real n > 0 (the sum
    uses |<sigma>|^{2n}).  For integer n the power is n - 1 products of
    <sigma>^2, far cheaper than a float power, formed in place in blocks of
    at most BLOCK_BYTES.
    """
    state = np.asarray(state)
    nq = n_qubits_of(state)
    if not (finite_real(n) and n > 0):
        raise ValueError(f"moment index n must be finite and positive, got {n!r}")
    values = all_expectations(state)
    if n == int(n):
        step = BLOCK_BYTES // values.itemsize
        for start in range(0, values.size, step):
            block = values[start : start + step]
            sq = np.multiply(block, block, out=block).copy()
            for _ in range(int(n) - 1):
                block *= sq
        return float(np.sum(values) / 2**nq)
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
    check_integer(n, "n", 1)
    check_capacity(n, GAMMA_COPY_GUARD, "moment index n of the dense moment operator")
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


def _basis_probabilities(state: np.ndarray, caller: str) -> np.ndarray:
    """|<k|psi>|^2 of a validated statevector; a density matrix is refused
    with a ValueError that names ``caller``."""
    state = np.asarray(state)
    validate_state(state)
    if state.ndim != 1:
        raise ValueError(f"{caller} takes a statevector, got shape {state.shape}")
    return np.abs(state) ** 2


def participation_entropy(state: np.ndarray, q: float) -> float:
    """I_q = sum_k |<k|psi>|^{2q} of the computational-basis distribution of
    a statevector; a density matrix is refused."""
    if not (finite_real(q) and q > 0):
        raise ValueError(f"q must be finite and positive, got {q!r}")
    return float(np.sum(_basis_probabilities(state, "participation_entropy") ** q))


def flatness(state: np.ndarray) -> float:
    """Multifractal flatness I_3 - I_2^2 of the basis distribution."""
    probs = _basis_probabilities(state, "flatness")
    return float(np.sum(probs**3)) - float(np.sum(probs**2)) ** 2


def clifford_average_flatness(state: np.ndarray) -> float:
    """Flatness averaged over the Clifford orbit: 2(1 - A_2)/((2^N+1)(2^N+2))."""
    nq = n_qubits_of(state)
    dim = 2**nq
    return 2.0 * (1.0 - pauli_moment(state, 2)) / ((dim + 1) * (dim + 2))


def _as_unitary(u) -> np.ndarray:
    return circuit_unitary(u) if isinstance(u, Circuit) else np.asarray(u, dtype=complex)


def otoc(u, sigma: PauliString, sigma_prime: PauliString, n: int) -> float:
    """4n-point out-of-time-order correlator (2^-N tr(sigma U sigma' U^dag))^{2n}."""
    check_integer(n, "n", 1)
    mat = _as_unitary(u)
    nq = n_qubits_of(mat)
    if sigma.n_qubits != nq or sigma_prime.n_qubits != nq:
        raise ValueError("Pauli width differs from unitary width")
    # rows of (sigma U)^T and (sigma' U^dag)^T; tr(A B) = sum A^T o B
    left = np.array([apply_pauli(sigma, col) for col in mat.T])
    right = np.array([apply_pauli(sigma_prime, col) for col in mat.conj()])
    val = np.sum(left * right.T)
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

@lru_cache(maxsize=STABILIZER_ENUM_GUARD)
def enumerate_stabilizer_states(n_qubits: int) -> np.ndarray:
    """All pure stabilizer states (rows), deduplicated up to global phase, by
    orbit closure of |0...0> under H, S and CNOT.  Cached; treat as read-only."""
    check_capacity(n_qubits, STABILIZER_ENUM_GUARD, "qubits in stabilizer enumeration")
    generators = [gate_h(q) for q in range(1, n_qubits + 1)]
    generators += [gate_s(q) for q in range(1, n_qubits + 1)]
    generators += [
        gate_cnot(c, t)
        for c in range(1, n_qubits + 1)
        for t in range(1, n_qubits + 1)
        if c != t
    ]
    moves = [lambda psi, g=g: apply_gate(g, psi, n_qubits) for g in generators]
    return np.stack(orbit(zero_state(n_qubits), moves))


def stabilizer_fidelity(state: np.ndarray) -> float:
    """max_phi |<psi|phi>|^2 over all pure stabilizer states (N <= 3) of a
    statevector; a density matrix is refused."""
    state = np.asarray(state, dtype=complex)
    validate_state(state)
    if state.ndim != 1:
        raise ValueError(f"stabilizer fidelity takes a statevector, got shape {state.shape}")
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
    check_integer(n, "n", 2)
    if not finite_real(moment):
        raise ValueError(f"moment must be finite, got {moment!r}")
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

def bell_magic(state: np.ndarray) -> tuple[float, float]:
    """Bell magic B and its additive form -log2(1 - B).

    B = sum_{r,q} Q(r) Q(q) ||[sigma_r, sigma_q]||_inf with Q the Bell-difference
    distribution (XOR self-convolution of the Bell-sampling distribution
    P(r) = 2^-N |<psi|sigma_r|psi*>|^2 of two identical copies).
    """
    nq = n_qubits_of(state)
    check_capacity(nq, BELL_MAGIC_QUBIT_GUARD, "qubits in Bell magic")
    p = bell_distribution(state, state)
    size = p.shape[0]
    q = wht(wht(p) ** 2) / size  # XOR self-convolution
    # sum over anticommuting pairs via the symplectic-form WHT identity
    b = float(np.sum(q * (1.0 - symplectic_wht(q, nq))))
    b = max(b, 0.0)
    additive = float(-np.log2(max(1.0 - b, 1e-300)))
    return b, additive
