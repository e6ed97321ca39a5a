"""Simulated-measurement Monte-Carlo estimators.

All estimators work from the measurement statistics an experiment would see:
Bell-basis measurements on two copies, single-copy Pauli eigenbasis
measurements, and computational-basis samples.  Two copies a, b of an N-qubit
register are interleaved as (a_1, b_1, a_2, b_2, ...) so that a measured
2N-bit outcome is directly the interleaved index of a Pauli string.
Every estimator takes its randomness only through ``rng`` (anything
``np.random.default_rng`` accepts); a result records no seed.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._bits import (
    _SYLVESTER,
    BLOCK_BYTES,
    deinterleave_index,
    popcount,
    spread_bits,
    symplectic_wht,
    xor_convolve,
    xz_block,
)
from ._guards import STATEVECTOR_QUBIT_GUARD, check_capacity, check_integer, finite_real, is_integer
from .circuits import Circuit, apply_circuit
from .paulis import PauliString, all_expectations, expectation
from .states import n_qubits_of, read_statevector, validate_state

def _pure_bell_distribution(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """|U_Bell^{tensor N} (a tensor b)|^2 for two N-qubit statevectors, in
    chunks of X-masks, without the 2N-qubit register.

    CNOT then H on each (a_j, b_j) pair sends |k>|l> to
    2^{-N/2} sum_z (-1)^{z.k} |z>|k ^ l>, so the amplitude of outcome (z, x)
    is 2^{-N/2} W[z, x] with W[z, x] = sum_k (-1)^{z.k} a[k] b[k ^ x]: the
    Walsh-Hadamard transform over k of the rows a[k] b[k ^ x].  Each chunk
    gathers them into a reused (k, x) buffer of at most BLOCK_BYTES and
    transforms its k axis with one Sylvester product per two bits of k,
    lowest first (the top bit alone when N is odd): the factors H^{tensor 2}
    and H of ``_SYLVESTER``.  These are the groups and the order in which
    U_Bell^{tensor 2} factors summed the register, so the probabilities are
    the register's bit for bit.  |W|^2 / 2^N is written through ``xz_block``.
    """
    dim = 1 << n
    chunk = min(dim, max(1, BLOCK_BYTES // (16 * dim)))
    free = chunk.bit_length() - 1  # x bits that vary within a chunk
    table = _SYLVESTER[0]
    k = np.arange(dim)[:, None]
    rows, spare = np.empty((2, dim, chunk), dtype=complex)
    power = np.empty((dim, chunk))
    dist = np.empty(4**n)
    for start in range(0, dim, chunk):
        # indices are in range by construction; mode="wrap" makes no checked copy
        np.take(b, k ^ np.arange(start, start + chunk), out=rows, mode="wrap")
        np.multiply(a[:, None], rows, out=rows)  # a first: swapped, numpy's product can round otherwise
        inner = 2 * chunk  # float64 columns per value of the k bits transformed next
        for bits in [2] * (n // 2) + [1] * (n % 2):
            f = 1 << bits
            np.matmul(table[:f, :f], rows.view(float).reshape(-1, f, inner), out=spare.view(float).reshape(-1, f, inner))
            rows, spare = spare, rows
            inner *= f
        rows *= 2.0 ** (-n / 2)
        np.abs(rows, out=power)
        np.square(power, out=power)
        target = xz_block(dist, n, start, chunk)
        target[...] = power.reshape((2,) * (n + free)).transpose([*range(n, n + free), *range(n)])
    return dist


def bell_distribution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outcome distribution of measuring U_Bell^{tensor N} (a tensor b) in the
    computational basis; index = interleaved Pauli index.

    For (a, b) = (psi*, psi) this is the Pauli spectrum Xi; for (psi, psi) it
    is P(r) = 2^-N |<psi|sigma_r|psi*>|^2.  For density matrices it is the
    symplectic Fourier transform of tr(rho_a^T sigma) tr(rho_b sigma), over 4^N.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    n = n_qubits_of(a)
    if n_qubits_of(b) != n:
        raise ValueError("copies have different qubit counts")
    if a.ndim != b.ndim:
        raise ValueError("copies must both be pure or both mixed")
    if a.ndim == 1:
        check_capacity(n, STATEVECTOR_QUBIT_GUARD, "qubits per copy in a Bell register")
        validate_state(a)
        validate_state(b)
        return _pure_bell_distribution(a, b, n)
    dist = symplectic_wht(all_expectations(a.T) * all_expectations(b), n) / 4**n
    return np.maximum(dist, 0.0)  # zero probabilities can round to -1e-18


def _draw_categorical(weights: np.ndarray, total: float, size, rng: np.random.Generator) -> np.ndarray:
    """Indices drawn from ``weights / total`` by inverse-CDF search, equal to
    ``rng.choice(len(weights), size, p=weights / total)``: the same single
    ``rng.random(size)`` call, searched (side="right") in the same running
    sum, normalized by its last entry.  That running sum is formed block by
    block in one buffer of at most BLOCK_BYTES, each block's first entry
    taking the previous block's last before its ``cumsum``, so its entries
    are those of one sequential ``cumsum`` bit for bit.  A first pass finds
    the last entry; the second normalizes each block and places the sorted
    draws that fall below its end.  ``weights`` is only read."""
    u = rng.random(size)
    flat = u.reshape(-1)
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    out = np.empty(flat.shape, dtype=np.intp)
    step = BLOCK_BYTES // 8
    buf = np.empty(min(step, weights.shape[0]))

    def running_sum(start, carry):
        block = buf[: weights.shape[0] - start]
        np.divide(weights[start : start + step], total, out=block)
        block[0] += carry
        return np.cumsum(block, out=block)

    starts = range(0, weights.shape[0], step)
    last = 0.0
    for start in starts:
        last = running_sum(start, last)[-1]
    carry, done = 0.0, 0
    for start in starts:
        if done == ranked.shape[0]:
            break
        block = running_sum(start, carry)
        carry = block[-1]
        block /= last  # choice divides the finished sum by its last entry
        below = int(np.searchsorted(ranked, block[-1], side="left"))
        out[order[done:below]] = start + np.searchsorted(block, ranked[done:below], side="right")
        done = below
    return out.reshape(u.shape)


def sample_bell(dist: np.ndarray, size, rng) -> np.ndarray:
    """Draw outcome indices from a Bell distribution: a 1-D array of finite,
    nonnegative weights with a positive sum, normalized here.  ``size`` is a
    count or a shape of nonnegative integers.  The draws equal
    ``Generator.choice(len(dist), size, p=dist / dist.sum())``'s for the same
    generator state, but the scratch is one O(BLOCK_BYTES) buffer plus
    O(size), not two copies of ``dist``, which is never written to.  Raises
    ``ValueError`` naming the defect."""
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 1:
        raise ValueError(f"a Bell distribution must be a 1-D array, got shape {dist.shape}")
    if not all(is_integer(s) and s >= 0 for s in np.atleast_1d(size).tolist()):
        raise ValueError(f"sample size must be a nonnegative count or shape, got {size!r}")
    lowest, total = float(np.min(dist, initial=0.0)), float(dist.sum())
    if not lowest >= 0:  # NaN fails too
        raise ValueError(f"a Bell distribution needs finite, nonnegative entries, got the entry {lowest!r}")
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"a Bell distribution needs a finite, positive sum, got {total!r}")
    return _draw_categorical(dist, total, size, np.random.default_rng(rng))


@dataclass(frozen=True)
class EstimatorResult:
    """Monte-Carlo estimate with its empirical standard error.

    ``shots`` counts repetitions L as defined per algorithm;
    ``copies_consumed`` counts state preparations the protocol would use.
    """

    value: float
    std_error: float
    shots: int
    copies_consumed: int
    algorithm: str = ""
    n: int | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _result_from_samples(per_rep: np.ndarray, copies: int, algorithm: str, n) -> EstimatorResult:
    reps = per_rep.shape[0]
    se = float(np.std(per_rep, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return EstimatorResult(
        value=float(np.mean(per_rep)),
        std_error=se,
        shots=reps,
        copies_consumed=copies,
        algorithm=algorithm,
        n=None if n is None else int(n),
    )


def _parity_values(xors: np.ndarray, n: int, n_qubits: int) -> np.ndarray:
    """Per-repetition estimator value from XORed Bell outcomes.

    Odd n: product over qubits of (1 - 2 nu_1 nu_2) = (-1)^{# pairs 11}.
    Even n: 2^N when every pair is 00, else 0.
    """
    if n % 2:
        pair_mask = spread_bits((1 << n_qubits) - 1, n_qubits)
        both = np.asarray(xors, dtype=np.int64) & (np.asarray(xors, dtype=np.int64) >> 1) & pair_mask
        return 1.0 - 2.0 * (popcount(both) % 2)
    return np.where(np.asarray(xors) == 0, float(2**n_qubits), 0.0)


def _even_n_guard(n: int, allow_even: bool, what: str) -> None:
    if n % 2 == 0 and not allow_even:
        raise ValueError(
            f"{what} with even n={n} needs exponentially many measurements "
            "(outcome range grows as 2^N); set the allow-even override to run anyway"
        )


def estimate_moment_bell(
    state: np.ndarray,
    n: int,
    repetitions: int,
    rng,
    allow_even: bool = False,
) -> EstimatorResult:
    """Pauli-moment estimator from Bell measurements on copy pairs (no
    conjugate needed; efficient for odd n, n = 1 estimates purity).

    Each repetition consumes n Bell samples of state x state and combines the
    per-qubit XOR parities of the 2N-bit outcomes.
    """
    check_integer(n, "n", 1)
    check_integer(repetitions, "repetitions", 1)
    _even_n_guard(n, allow_even, "the two-copy Bell estimator")
    rng = np.random.default_rng(rng)
    nq = n_qubits_of(state)
    dist = bell_distribution(state, state)
    outcomes = sample_bell(dist, (repetitions, n), rng)
    xors = np.bitwise_xor.reduce(outcomes, axis=1)
    per_rep = _parity_values(xors, n, nq)
    return _result_from_samples(per_rep, 2 * n * repetitions, "bell_parity", n)


def estimate_moment_conjugate(state: np.ndarray, n: int, repetitions: int, rng) -> EstimatorResult:
    """Pauli-moment estimator that Bell-samples (psi*, psi) to draw Pauli
    strings from the spectrum, then multiplies 2n-2 single-copy eigenbasis
    measurement outcomes of the sampled string.  Unbiased for any integer
    n >= 2."""
    check_integer(n, "n", 2)
    check_integer(repetitions, "repetitions", 1)
    state = read_statevector(state, "estimate_moment_conjugate")  # the simulator builds psi*
    rng = np.random.default_rng(rng)
    nq = n_qubits_of(state)
    dist = bell_distribution(state.conj(), state)
    outcomes = sample_bell(dist, repetitions, rng)
    uniq, inverse = np.unique(outcomes, return_inverse=True)
    zs, xs = deinterleave_index(uniq, nq)
    exps = np.array(
        [expectation(state, PauliString(z, x, nq)) for z, x in zip(zs.tolist(), xs.tolist())]
    )
    p_plus = (1.0 + exps[inverse]) / 2.0
    draws = rng.uniform(size=(repetitions, 2 * n - 2)) < p_plus[:, None]
    lam = np.where(draws, 1.0, -1.0)
    per_rep = np.prod(lam, axis=1)
    return _result_from_samples(per_rep, 2 * n * repetitions, "conjugate_sampling", n)


def estimate_purity(state: np.ndarray, repetitions: int, rng) -> EstimatorResult:
    """Destructive-SWAP-test purity: the n = 1 case of the Bell estimator."""
    return replace(estimate_moment_bell(state, 1, repetitions, rng), algorithm="purity")


# -- gradients ----------------------------------------------------------------

def _shift_rule_distributions(circuit: Circuit, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Check that rotation k exists, prepare psi, and return the Bell
    distribution of (psi, psi) and those of (psi shifted by +-pi/2 in the
    k-th angle, psi), the + shift first."""
    count = len(circuit.rotation_indices())
    if not (0 <= k < count):
        raise ValueError(f"parameter index {k} outside the {count} rotation gates")
    psi = apply_circuit(circuit)
    shifted = [apply_circuit(circuit.shifted(k, sign * np.pi / 2)) for sign in (+1.0, -1.0)]
    return bell_distribution(psi, psi), [bell_distribution(phi, psi) for phi in shifted]


def estimate_moment_gradient(
    circuit: Circuit,
    k: int,
    n: int,
    repetitions: int,
    rng,
    allow_even: bool = False,
) -> EstimatorResult:
    """Shift-rule gradient of the n-th Pauli moment with respect to the k-th
    rotation angle.

    For each shift s = +-pi/2, every repetition takes one Bell sample of
    (shifted state, unshifted state) and n-1 Bell samples of two unshifted
    copies, combined by the same parity rule; the gradient is
    n (B_+ - B_-)."""
    check_integer(n, "n", 1)
    check_integer(repetitions, "repetitions", 1)
    _even_n_guard(n, allow_even, "the gradient estimator")
    base_dist, mixed_dists = _shift_rule_distributions(circuit, k)
    rng = np.random.default_rng(rng)
    sides = []
    for mixed_dist in mixed_dists:
        xors = sample_bell(mixed_dist, repetitions, rng)
        if n > 1:
            xors = xors ^ np.bitwise_xor.reduce(sample_bell(base_dist, (repetitions, n - 1), rng), axis=1)
        sides.append(_result_from_samples(_parity_values(xors, n, circuit.n_qubits), 0, "", n))
    value = n * (sides[0].value - sides[1].value)
    se = n * math.hypot(sides[0].std_error, sides[1].std_error)
    return EstimatorResult(value, se, repetitions, 4 * n * repetitions, "gradient_shift", n)


def expected_parity_value(dists: list[np.ndarray], n: int, n_qubits: int) -> float:
    """Infinite-shot expectation of the parity estimator built from one Bell
    sample of each distribution (XOR convolution against the parity weights)."""
    conv = xor_convolve(dists)
    values = _parity_values(np.arange(conv.shape[0]), n, n_qubits)
    return float(np.dot(conv, values))


def exact_moment_gradient(circuit: Circuit, k: int, n: int) -> float:
    """Infinite-shot shift-rule gradient of the n-th Pauli moment (any
    integer n >= 1); serves as the oracle for the sampled gradient."""
    check_integer(n, "n", 1)
    base, mixed_dists = _shift_rule_distributions(circuit, k)
    sides = [expected_parity_value([mixed] + [base] * (n - 1), n, circuit.n_qubits) for mixed in mixed_dists]
    return float(n * (sides[0] - sides[1]))


# -- further estimators ---------------------------------------------------------

def estimate_participation(state: np.ndarray, q: int, shots: int, rng) -> EstimatorResult:
    """Participation entropy I_q from computational-basis samples of a
    statevector (a density matrix is refused): disjoint groups of q shots
    score 1 when all q bitstrings coincide."""
    check_integer(q, "q", 2)
    check_integer(shots, "shots", q)
    rng = np.random.default_rng(rng)
    psi = read_statevector(state, "estimate_participation")
    probs = np.abs(psi) ** 2
    groups = shots // q
    draws = _draw_categorical(probs, float(probs.sum()), (groups, q), rng)
    hits = np.all(draws == draws[:, :1], axis=1).astype(float)
    return _result_from_samples(hits, groups * q, "participation", q)


def estimate_flatness(state: np.ndarray, shots: int, rng) -> EstimatorResult:
    """Multifractal flatness I_3 - I_2^2 from two participation estimators on
    split shot budgets, with the delta-method standard error.  The whole
    budget is checked: at least 6 shots, so that the I_3 half holds a group."""
    check_integer(shots, "shots", 6)
    rng = np.random.default_rng(rng)
    i3 = estimate_participation(state, 3, shots // 2, rng)
    i2 = estimate_participation(state, 2, shots - shots // 2, rng)
    value = i3.value - i2.value**2
    se = math.hypot(i3.std_error, 2.0 * i2.value * i2.std_error)
    copies = i3.copies_consumed + i2.copies_consumed
    return EstimatorResult(float(value), float(se), i3.shots + i2.shots, copies, "flatness")


def estimate_bell_magic(state: np.ndarray, repetitions: int, rng) -> EstimatorResult:
    """Bell-magic estimator: each repetition draws two Bell-difference
    outcomes (two Bell samples each) and scores 2 when the corresponding Pauli
    strings anticommute."""
    check_integer(repetitions, "repetitions", 1)
    rng = np.random.default_rng(rng)
    nq = n_qubits_of(state)
    dist = bell_distribution(state, state)
    outcomes = sample_bell(dist, (repetitions, 4), rng)
    q1 = outcomes[:, 0] ^ outcomes[:, 1]
    q2 = outcomes[:, 2] ^ outcomes[:, 3]
    # symplectic form on interleaved indices via pairwise bit masks
    pair_mask = spread_bits((1 << nq) - 1, nq)
    anti = (popcount((q1 >> 1) & q2 & pair_mask) + popcount(q1 & (q2 >> 1) & pair_mask)) % 2
    per_rep = 2.0 * anti
    return _result_from_samples(per_rep, 8 * repetitions, "bell_magic", None)


def hoeffding_budget(epsilon: float, delta: float, delta_omega: float) -> int:
    """Repetition budget ceil((range^2 / 2 eps^2) ln(2/delta)) from Hoeffding's
    inequality."""
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValueError(f"epsilon and delta must lie in (0, 1), got epsilon={epsilon!r}, delta={delta!r}")
    if not (finite_real(delta_omega) and delta_omega > 0):
        raise ValueError(f"the outcome range delta_omega must be finite and positive, got {delta_omega!r}")
    try:  # a range squared can overflow, an epsilon squared can underflow to 0
        return int(math.ceil(delta_omega**2 / (2 * epsilon**2) * math.log(2 / delta)))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"the budget for epsilon={epsilon!r}, delta={delta!r}, delta_omega={delta_omega!r} is not finite"
        ) from None


def renyi_precision_budget(
    renyi_target: float, n: int, epsilon_m: float, delta: float = 0.05, delta_omega: float = 2.0
) -> tuple[float, int]:
    """Moment precision and repetition budget needed to pin the Renyi entropy
    near the given value to within epsilon_m: eps = (n-1) e^{-M(n-1)} eps_M.
    M_n >= 0 because A_n <= 1."""
    check_integer(n, "n", 2)
    if not finite_real(n):
        raise ValueError(f"n must be an integer that a float holds, got {n!r}")
    if not (finite_real(renyi_target) and renyi_target >= 0):
        raise ValueError(f"renyi_target must be finite and at least 0, got {renyi_target!r}")
    if not (finite_real(epsilon_m) and epsilon_m > 0):
        raise ValueError(f"epsilon_m must be finite and positive, got {epsilon_m!r}")
    eps = (n - 1) * math.exp(-renyi_target * (n - 1)) * epsilon_m
    if not 0 < eps < 1:
        raise ValueError(
            f"n={n!r}, renyi_target={renyi_target!r} and epsilon_m={epsilon_m!r} give a moment precision "
            f"{eps!r} outside (0, 1)"
        )
    return eps, hoeffding_budget(eps, delta, delta_omega)
