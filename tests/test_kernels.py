"""Layer-1 kernels against the tensordot/moveaxis formulation, and the
layer-2 Walsh-Hadamard transform against a radix-2 butterfly and the dense
Sylvester matrix.

`apply_gate` acts on the 2x2 block of one qubit through a 3-axis view.
`apply_channel` applies one 4x4 superoperator, sum_k K (x) conj(K), to the
(row bit, column bit) pair of the density matrix in a single product.  The
reference kernels below instead view the array as a [2]*n (or [2]*2n)
tensor, contract the qubit's axis with `np.tensordot`, one Kraus operator at
a time, and move it back with `np.moveaxis`; they are an independent check
of both products, including the last qubit, whose trailing block has size 1.
The superoperator sums the Kraus terms before the product, so the channel
agrees with its reference to a tolerance, not bit for bit.  CNOT is a row
permutation, built once per placement; the reference flips the target axis
of the control-1 half of the same tensor, and the two agree bit for bit.
`apply_pauli` gathers rows through the action a `PauliString` keeps; the
reference scatters each phased row k into row k ^ x, the same products, so
the two agree bit for bit as well.

`wht` is a product of Hadamard factors of at most 32 rows; the butterfly
and the dense matrix sum in other orders, so they agree to a tolerance of
1e-13 of max|a| * n, not bit for bit.

The Pauli transform reads half of each Hermitian row f[x, k] (the pairs k,
k ^ x), transforms it and unpacks the real values v[x, z] from the real and
imaginary parts of the result.  It runs one body for every width: chunks
of 512 masks filled in blocks of at most 0.5 MB of half rows (a chunk of
up to 8 qubits is one block), one `rows` call and one phase product per
block and one transform per chunk.  Only the placement depends on the
width: a spectrum of at most 9 qubits is one chunk, gathered into the
interleaved order by one `take`; a wider one is written through a strided
view of its output, one run of masks that share their top bit at a time.
The full-row test runs every width up to 10 qubits for a statevector and
up to the density guard for a density matrix, so it covers both
placements.  The two placements also agree bit
for bit: a test forces chunks of two masks on a spectrum of 2 to 8 qubits
that would be one chunk, so its rows, elementwise products and per-row
transforms are the same and only the placement differs (at 1 qubit the
chunks would hold one mask, whose one-element products numpy rounds its
own way).  The reference
(`references.reference_pauli_transform`) transforms every full row,
multiplies by the phase i^{|z&x|} and scatters through the interleaved
index of every (z, x); the two sum in other orders, so they agree to 1e-14,
not bit for bit.  The pure-state Bell distribution transforms chunks of
rows a[k] b[k ^ x] over k, two bits of k per product; the reference
contracts the 4x4 Bell matrix into each pair axis with `np.tensordot`, and
the 2N-qubit register (`references.register_bell_distribution`), which sums
in the same groups and order, agrees with it bit for bit.  A 4^10 output
is 8 MB, and the 10-qubit spectrum path holds no scratch as large.
"""
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from magic_meter._bits import BLOCK_BYTES, popcount, wht
from magic_meter._guards import DENSITY_QUBIT_GUARD
from magic_meter.circuits import (
    SINGLE_QUBIT_CLIFFORDS,
    Circuit,
    _cnot_rows,
    apply_gate,
    circuit_unitary,
    gate_clifford,
    gate_cnot,
    gate_h,
    gate_s,
    gate_t,
)
from magic_meter.estimators import bell_distribution
from magic_meter.noise import NoiseKind, NoiseModel, _kraus_for, apply_channel
from magic_meter.oracles import pauli_moment
from magic_meter import paulis
from magic_meter.paulis import (
    _pauli_transform,
    _state_rows,
    all_expectations,
    apply_pauli,
    pauli_from_index,
    pauli_from_string,
)
from magic_meter.states import density_of, haar_random_state, n_qubits_of
from references import random_density_matrix, reference_pauli_transform, register_bell_distribution

RTOL, ATOL = 1e-14, 1e-15

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)

# gate name -> (gate factory on a 1-based qubit, its 2x2 matrix)
GATES = {
    "H": (gate_h, _H),
    "S": (gate_s, _S),
    "T": (gate_t, _T),
    "C1": (lambda q: gate_clifford(q, 17), SINGLE_QUBIT_CLIFFORDS[17]),
}


def reference_single(psi, mat, q, n):
    """A 2x2 matrix on 1-based qubit q of a statevector or (2^n, m) matrix."""
    axis = q - 1
    tail = psi.shape[1] if psi.ndim == 2 else 1
    tensor = psi.reshape([2] * n + [tail])
    tensor = np.tensordot(mat, tensor, axes=([1], [axis]))
    return np.moveaxis(tensor, 0, axis).reshape(psi.shape)


def reference_kraus(rho, kraus, q, n):
    """sum_k K rho K^dag with K on 1-based qubit q of a density matrix."""
    axis_row, axis_col = q - 1, n + q - 1
    tensor = rho.reshape([2] * (2 * n))
    out = np.zeros_like(tensor)
    for k in kraus:
        t = np.tensordot(k, tensor, axes=([1], [axis_row]))
        t = np.moveaxis(t, 0, axis_row)
        t = np.tensordot(k.conj(), t, axes=([1], [axis_col]))
        out += np.moveaxis(t, 0, axis_col)
    return out.reshape(rho.shape)


def _inputs(n, rng):
    """A statevector, a (2^n, 3) matrix and a transposed (F-ordered) square
    matrix, the layout the density-matrix simulation passes in."""
    dim = 1 << n
    mat = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    square = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return haar_random_state(n, rng), mat, square.conj().T


@pytest.mark.parametrize("name", sorted(GATES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_apply_gate_matches_tensordot_reference(n, name):
    factory, mat = GATES[name]
    rng = np.random.default_rng(100 * n + len(name))
    for psi in _inputs(n, rng):
        for q in range(1, n + 1):
            got = apply_gate(factory(q), psi, n)
            assert got.shape == psi.shape
            np.testing.assert_allclose(got, reference_single(psi, mat, q, n), rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(
                np.linalg.norm(got, axis=0), np.linalg.norm(psi, axis=0), rtol=1e-13
            )


def reference_cnot(psi, control, target, n):
    """CNOT on 1-based qubits of a statevector or (2^n, m) matrix."""
    tail = psi.shape[1] if psi.ndim == 2 else 1
    tensor = psi.reshape([2] * n + [tail]).copy()
    c, t = control - 1, target - 1
    sel = [slice(None)] * n
    sel[c] = 1
    sub = tensor[tuple(sel)]
    tensor[tuple(sel)] = np.flip(sub, axis=t if t < c else t - 1)
    return tensor.reshape(psi.shape)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cnot_matches_flip_reference(n):
    rng = np.random.default_rng(500 + n)
    for psi in _inputs(n, rng):
        for c in range(1, n + 1):
            for t in range(1, n + 1):
                if c != t:
                    expected = reference_cnot(psi, c, t, n)
                    first = apply_gate(gate_cnot(c, t), psi, n)
                    np.testing.assert_array_equal(first, expected)
                    first[...] = 0  # the second call reads the cached permutation
                    np.testing.assert_array_equal(apply_gate(gate_cnot(c, t), psi, n), expected)
                    assert _cnot_rows(c, t, n) is _cnot_rows(c, t, n)
                    assert not _cnot_rows(c, t, n).flags.writeable


def reference_apply_pauli(sigma, psi):
    """sigma|k> = i^{|z&x|} (-1)^{z.k} |k ^ x>, scattered row by row into
    row k ^ x, on a statevector or each column of a matrix."""
    k = np.arange(psi.shape[0])
    phase = (1j ** int(popcount(sigma.z & sigma.x))) * (-1.0) ** popcount(sigma.z & k)
    out = np.empty_like(psi, dtype=complex)
    out[k ^ sigma.x] = phase[:, None] * psi if psi.ndim == 2 else phase * psi
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_pauli_equals_the_scatter_reference_bit_for_bit(n):
    rng = np.random.default_rng(700 + n)
    dim = 1 << n
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    matrix = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    for index in range(4**n):
        sigma = pauli_from_index(index, n)
        for psi in (vector, matrix, vector.real):
            got = apply_pauli(sigma, psi)
            assert got.shape == psi.shape
            assert np.array_equal(got.view(float), reference_apply_pauli(sigma, psi).view(float))


def test_the_cached_pauli_action_is_read_only_and_leaves_with_its_string():
    sigma = pauli_from_string("YXZ")
    source, phase = sigma.action
    assert sigma.action[0] is source
    for arr in (source, phase):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    gone = weakref.ref(phase)
    del sigma, source, phase, arr
    gc.collect()
    assert gone() is None


def test_writing_into_apply_paulis_result_leaves_the_next_call_unchanged():
    sigma = pauli_from_string("XY")
    psi = haar_random_state(2, np.random.default_rng(9))
    expected = reference_apply_pauli(sigma, psi)
    first = apply_pauli(sigma, psi)
    assert not np.shares_memory(first, sigma.action[1])
    first[...] = 7
    np.testing.assert_array_equal(apply_pauli(sigma, psi), expected)


LOCAL_KINDS = [NoiseKind.LOCAL_DEPOLARIZING, NoiseKind.DEPHASING, NoiseKind.AMPLITUDE_DAMPING]


@pytest.mark.parametrize("p", [1e-3, 0.3, 1.0])
@pytest.mark.parametrize("kind", LOCAL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_apply_channel_matches_tensordot_reference(n, kind, p):
    model = NoiseModel(kind, p)
    rho = random_density_matrix(n, np.random.default_rng(n))
    for q in range(1, n + 1):
        got = apply_channel(rho, model, [q])
        ref = reference_kraus(rho, _kraus_for(model), q, n)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)
        assert np.trace(got).real == pytest.approx(1.0, abs=1e-13)
        assert abs(np.trace(got).imag) < 1e-13
        np.testing.assert_allclose(got, got.conj().T, atol=1e-15)


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.3, 1.0])
@pytest.mark.parametrize("kind", LOCAL_KINDS)
def test_superoperator_is_cached_read_only_and_trace_preserving(kind, p):
    model = NoiseModel(kind, p)
    s = model.superoperator
    assert s.shape == (4, 4)
    assert model.superoperator is s
    assert not s.flags.writeable
    with pytest.raises(ValueError):
        s[0, 0] = 0
    # tr(S rho) = tr(rho): the (r, r) rows sum to vec(I)
    np.testing.assert_allclose(s[[0, 3]].sum(axis=0), np.eye(2).ravel(), rtol=RTOL, atol=ATOL)


def test_circuit_unitary_runs_past_the_density_guard():
    # a dense unitary shares the dense-evolution guard, not the density-matrix one
    n = DENSITY_QUBIT_GUARD + 1
    u = circuit_unitary(Circuit(n, (gate_h(n),)))
    assert u.shape == (1 << n, 1 << n)
    np.testing.assert_allclose(u[:2, :2], _H, rtol=RTOL, atol=ATOL)


def test_apply_gate_rejects_a_dimension_other_than_two_to_the_n():
    with pytest.raises(ValueError, match="differs"):
        apply_gate(gate_h(1), np.ones(6, dtype=complex), 2)


def reference_wht(a):
    """Radix-2 butterfly over the last axis."""
    a = np.array(a, copy=True)
    n = a.shape[-1]
    h = 1
    while h < n:
        a = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        lo = a[..., 0, :] + a[..., 1, :]
        hi = a[..., 0, :] - a[..., 1, :]
        a = np.stack([lo, hi], axis=-2).reshape(a.shape[:-3] + (n,))
        h *= 2
    return a


def sylvester_product(a, block=256):
    """a @ H_n with H_n[k, z] = (-1)^{popcount(k & z)}, built in column blocks."""
    n = a.shape[-1]
    k = np.arange(n)[:, None]
    out = np.empty(a.shape, dtype=np.result_type(a, float))
    for start in range(0, n, block):
        z = np.arange(start, min(start + block, n))[None, :]
        out[..., start : start + block] = a @ (1.0 - 2.0 * (np.bitwise_count(k & z) & 1))
    return out


def _wht_inputs(n, is_complex, rng):
    """A vector, a (3, n) batch, a strided batch (every other column of a
    wider array), a transposed batch (F-ordered) and a batch that spans two
    full row blocks of the products and part of a third."""
    def draw(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if is_complex else x

    block_rows = max(1, BLOCK_BYTES // (8 * n * (1 + is_complex)))
    return [draw(n), draw(3, n), draw(3, 2 * n)[:, ::2], draw(n, 3).T, draw(2 * block_rows + 1, n)]


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("m", range(13))
def test_wht_matches_butterfly_and_sylvester(m, is_complex):
    n = 1 << m
    for a in _wht_inputs(n, is_complex, np.random.default_rng(10 * m + is_complex)):
        before = a.copy()
        got = wht(a)
        np.testing.assert_array_equal(a, before)  # input left alone
        assert not np.shares_memory(got, a)  # a new array, length 1 included
        assert got.shape == a.shape
        assert got.dtype == (np.complex128 if is_complex else np.float64)
        tol = 1e-13 * np.max(np.abs(a)) * n
        assert np.max(np.abs(got - reference_wht(a))) <= tol
        assert np.max(np.abs(got - sylvester_product(a))) <= tol
        assert np.max(np.abs(wht(got) - n * a)) <= tol * n
        in_place = np.array(a, dtype=got.dtype, order="C")
        assert wht(in_place, out=in_place) is in_place
        np.testing.assert_array_equal(in_place, got)


def test_wht_casts_complex64_and_integer_input():
    a = np.arange(8)
    assert wht(a).dtype == np.float64
    np.testing.assert_array_equal(wht(a), reference_wht(a.astype(float)))
    c = (a + 1j * a[::-1]).astype(np.complex64)
    assert wht(c).dtype == np.complex128
    np.testing.assert_array_equal(wht(c), reference_wht(c.astype(complex)))


def test_wht_refuses_an_out_it_cannot_write_whole():
    a = np.ones((4, 8))
    for out in [np.empty((8, 4)).T, np.empty((4, 8), dtype=complex), np.empty((4, 4))]:
        with pytest.raises(ValueError, match="C-contiguous"):
            wht(a, out=out)


@pytest.mark.parametrize("n", [0, 3, 6, 12, 1000])
def test_wht_rejects_a_length_that_is_not_a_power_of_two(n):
    with pytest.raises(ValueError, match="power of two"):
        wht(np.ones((2, n)))


def _real_values(vals):
    assert np.max(np.abs(vals.imag)) <= 1e-12
    return vals.real


def reference_all_expectations(state):
    n = n_qubits_of(state)
    if state.ndim == 1:
        return reference_pauli_transform(n, lambda x, k: state[k ^ x].conj() * state[k], _real_values)
    return reference_pauli_transform(n, lambda x, k: state[k, k ^ x], _real_values)


_BELL_4x4 = np.kron(_H, np.eye(2)) @ np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def reference_bell_distribution(a, b):
    """|U_Bell^{tensor N} (a tensor b)|^2, copies interleaved pairwise and the
    4x4 Bell matrix contracted into each pair axis."""
    n = n_qubits_of(a)
    joint = np.multiply.outer(a, b).reshape([2] * (2 * n))
    order = [ax for j in range(n) for ax in (j, n + j)]
    tensor = np.transpose(joint, order).reshape([4] * n)
    for axis in range(n):
        tensor = np.moveaxis(np.tensordot(_BELL_4x4, tensor, axes=([1], [axis])), 0, axis)
    return np.abs(tensor.reshape(-1)) ** 2


def _spectrum_inputs():
    pure = [haar_random_state(n, np.random.default_rng(300 + n)) for n in range(1, 11)]
    mixed = [random_density_matrix(n, np.random.default_rng(400 + n)) for n in range(1, DENSITY_QUBIT_GUARD + 1)]
    return pure + mixed


@pytest.mark.parametrize("state", _spectrum_inputs(), ids=lambda s: f"{s.ndim}d-{s.shape[0]}")
def test_all_expectations_matches_the_full_row_reference(state):
    before = state.copy()
    got = all_expectations(state)
    np.testing.assert_array_equal(state, before)
    np.testing.assert_allclose(got, reference_all_expectations(state), rtol=0, atol=1e-14)


def _placement_inputs():
    # From 2 qubits: a 1-qubit spectrum takes strided writes only in chunks of
    # one mask, whose one-element phase products numpy rounds without the
    # fused multiply-add of its array loop (45% of 1-qubit statevectors then
    # differ by up to 2^-53).
    pure = [haar_random_state(n, np.random.default_rng([900, n, s])) for n in range(2, 9) for s in range(3)]
    return pure + [random_density_matrix(n, np.random.default_rng([901, n, s])) for n in range(2, 7) for s in range(3)]


@pytest.mark.parametrize("state", _placement_inputs(), ids=lambda s: f"{s.ndim}d-{s.shape[0]}")
def test_gather_placement_equals_the_strided_placement(state, monkeypatch):
    n = n_qubits_of(state)
    rows = _state_rows(state)
    gathered = _pauli_transform(n, rows)
    # Chunks of two masks make the spectrum take the strided placement; the
    # first chunk is built afresh, so the cached one-chunk tables stay as they are.
    monkeypatch.setattr(paulis, "_CHUNK", 2)
    monkeypatch.setattr(paulis, "_first_chunk", paulis._first_chunk.__wrapped__)
    np.testing.assert_array_equal(_pauli_transform(n, rows), gathered)


@pytest.mark.parametrize("n", range(1, 11))
def test_pure_spectrum_invariants(n):
    psi = haar_random_state(n, np.random.default_rng(800 + n))
    before = psi.copy()
    values = all_expectations(psi)
    np.testing.assert_array_equal(psi, before)
    # sum over sigma of <sigma>^2 is 2^N for a pure state
    assert np.sum(values**2) == pytest.approx(2**n, rel=1e-12)
    # the x = 0 row: <Z^z> = sum_k (-1)^{z.k} |psi_k|^2, read at index interleave(z, 0)
    k = np.arange(1 << n)
    signs = 1.0 - 2.0 * (popcount(k[:, None] & k[None, :]) & 1)
    z_row = values.reshape((2,) * (2 * n))[(slice(None), 0) * n].reshape(-1)
    np.testing.assert_allclose(z_row, signs @ np.abs(psi) ** 2, rtol=0, atol=1e-14)
    if n <= DENSITY_QUBIT_GUARD:
        rho = density_of(psi)
        before = rho.copy()
        np.testing.assert_allclose(all_expectations(rho), values, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(rho, before)


@pytest.mark.parametrize("n", range(1, 11))
def test_pure_bell_distribution_matches_the_tensordot_reference(n):
    rng = np.random.default_rng(500 + n)
    psi, other = haar_random_state(n, rng), haar_random_state(n, rng)
    for a, b in [(psi.conj(), psi), (psi, psi), (psi, other)]:
        before = a.copy(), b.copy()
        got = bell_distribution(a, b)
        np.testing.assert_array_equal(a, before[0])
        np.testing.assert_array_equal(b, before[1])
        np.testing.assert_allclose(got, reference_bell_distribution(a, b), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 10))
def test_pure_bell_distribution_equals_the_register_bit_for_bit(n):
    # the chunked kernel sums each outcome in the register's groups and order
    rng = np.random.default_rng(700 + n)
    psi, other = haar_random_state(n, rng), haar_random_state(n, rng)
    for a, b in [(psi.conj(), psi), (psi, psi), (psi, other)]:
        np.testing.assert_array_equal(bell_distribution(a, b), register_bell_distribution(a, b))


@pytest.mark.parametrize(
    "call",
    [lambda psi: bell_distribution(psi, psi), all_expectations, lambda psi: pauli_moment(psi, 3)],
    ids=["bell_distribution", "all_expectations", "pauli_moment"],
)
def test_ten_qubit_spectrum_path_holds_less_scratch_than_its_output(call):
    # The 4^10 output is 8 MB; a 2N-qubit Bell register or full-size
    # products or powers would take the peak to 24 MB or more.  A warm-up
    # call builds the cached index tables first.
    psi = haar_random_state(10, np.random.default_rng(17))
    call(psi)
    gc.collect()
    tracemalloc.start()
    try:
        call(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("moment", [1, 2, 3, 4])
def test_integer_moment_matches_the_float_power(moment):
    states = [haar_random_state(n, np.random.default_rng(600 + n)) for n in (1, 3, 6, 8)]
    states.append(random_density_matrix(4, np.random.default_rng(7)))
    for state in states:
        values = all_expectations(state)
        expected = np.sum(np.abs(values) ** (2 * moment)) / 2 ** n_qubits_of(state)
        assert pauli_moment(state, moment) == pytest.approx(expected, rel=1e-13, abs=0)
