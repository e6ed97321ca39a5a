"""Named, config-driven experiment presets.

Each preset sweeps one variable (T-gate count, circuit depth, evolution time,
phase, or noise strength), averages over random instances with per-instance
RNG streams derived from (seed, sweep index, instance index), and emits
RecordRow tables: mean and sample standard deviation per quantity, plus the
separate shot standard error for estimated quantities.

All presets share one skeleton.  run_preset fills in the preset's default
qubit count, grid and instance count for fields left as None and rejects
non-positive sizes.  A preset's instance function ``one(i)`` returns
``(values, tail)``: ``values[sweep, quantity]`` for every grid point and the
per-instance analytic ``tail[quantity]``, which belongs to no grid point.
_instances stacks them over instances into ``values[instance, sweep,
quantity]``, and _rows turns such an array into rows, mean and ddof=1 std
over instances with NaN entries skipped.
"""
from __future__ import annotations

import json
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .circuits import (
    Circuit,
    circuit_unitary,
    clifford_proxy_depth,
    doped_clifford_state,
    doped_layered_circuit,
    doped_layered_gate_layers,
    random_rotation_gate_layers,
)
from .estimators import estimate_moment_bell, estimate_moment_conjugate
from .hamiltonians import Evolver, gue_hamiltonian, ising_hamiltonian, random_pauli_hamiltonian
from .noise import NoiseKind, relative_error_study
from .oracles import (
    bell_magic,
    bounds_from_moment,
    clifford_average_flatness,
    clifford_average_otoc,
    flatness,
    otoc,
    pauli_moment,
    renyi_stabilizer_entropy,
    stabilizer_fidelity,
    tsallis_stabilizer_entropy,
)
from .paulis import pauli_from_string
from .states import choi_state, haar_random_state, zero_state

CSV_HEADER = "sweep,quantity,mean,std,instances,kind"

@dataclass(frozen=True)
class RecordRow:
    sweep: float
    quantity: str
    mean: float
    std: float
    instances: int
    kind: str  # exact | estimated | analytic

    def csv_row(self) -> str:
        return (
            f"{self.sweep!r},{self.quantity},{self.mean!r},{self.std!r},"
            f"{self.instances},{self.kind}"
        )


@dataclass
class ExperimentConfig:
    preset: str
    n_qubits: int | None = None
    grid: tuple[float, ...] | None = None
    instances: int | None = None
    shots: int = 1000
    moment_indices: tuple[int, ...] = (2, 3)
    seed: int | None = 0  # None: unset; the CLI then reads MAGIC_METER_SEED, run_preset uses 0
    threads: int = 0  # 0 = one worker per available core
    output: str | None = None
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "n_qubits": self.n_qubits,
            "grid": None if self.grid is None else list(self.grid),
            "instances": self.instances,
            "shots": self.shots,
            "moment_indices": list(self.moment_indices),
            "seed": self.seed,
            "threads": self.threads,
            "output": self.output,
            "params": self.params,
        }


class ConfigError(ValueError):
    """A config file is missing or misuses a field."""


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        return tuple(_parse_scalar(t) for t in text.split(",") if t.strip())
    return _parse_scalar(text)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse a flat key = value config (or its JSON equivalent)."""
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from exc
    else:
        doc = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            doc[key.strip()] = _parse_value(value)
    if "preset" not in doc:
        raise ConfigError("missing required field 'preset'")
    known = {
        "preset",
        "qubits",
        "n_qubits",
        "grid",
        "instances",
        "shots",
        "n",
        "moment_indices",
        "seed",
        "threads",
        "output",
    }
    params = {k: v for k, v in doc.items() if k not in known}

    def as_tuple(v):
        if v is None:
            return None
        if isinstance(v, (list, tuple)):
            return tuple(v)
        return (v,)

    moments = doc.get("n", doc.get("moment_indices", (2, 3)))
    return ExperimentConfig(
        preset=str(doc["preset"]),
        n_qubits=doc.get("qubits", doc.get("n_qubits")),
        grid=as_tuple(doc.get("grid")),
        instances=doc.get("instances"),
        shots=int(doc.get("shots", 1000)),
        moment_indices=tuple(int(m) for m in as_tuple(moments)),
        seed=None if doc.get("seed") is None else int(doc["seed"]),
        threads=int(doc.get("threads", 0)),
        output=doc.get("output"),
        params=params,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _as_tuple(value) -> tuple:
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(value)
    return (value,)


def _instance_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed)] + [int(k) for k in key])


# -- the preset skeleton -------------------------------------------------------

def _rows(sweeps, names, values: np.ndarray, kind) -> list[RecordRow]:
    """One row per (sweep point, quantity) of values[instance, sweep, quantity]:
    mean and sample std over the instances, NaN entries skipped; a quantity
    with no entry left gets no row.  ``kind`` is one kind for every quantity
    or a sequence with one kind per name."""
    kinds = [kind] * len(names) if isinstance(kind, str) else kind
    rows = []
    for si, sweep in enumerate(sweeps):
        for qi, (name, k) in enumerate(zip(names, kinds)):
            column = values[:, si, qi]
            column = column[~np.isnan(column)]
            if column.size == 0:
                continue
            std = float(np.std(column, ddof=1)) if column.size > 1 else 0.0
            rows.append(RecordRow(float(sweep), name, float(np.mean(column)), std, int(column.size), k))
    return rows


def _instances(config: ExperimentConfig, one) -> tuple[np.ndarray, np.ndarray]:
    """Run the instance function for every instance on the worker pool and
    stack what it returns into values[instance, sweep, quantity] and
    tail[instance, quantity]."""
    workers = (os.cpu_count() or 1) if config.threads <= 0 else config.threads
    if workers == 1 or config.instances == 1:
        results = [one(i) for i in range(config.instances)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(config.instances)))
    return (
        np.array([values for values, _ in results], dtype=float),
        np.array([tail for _, tail in results], dtype=float),
    )


def _sweep_rows(config: ExperimentConfig, one, names, tail_names) -> list[RecordRow]:
    """Exact rows of every grid point, then the analytic tail at sweep NaN."""
    values, tail = _instances(config, one)
    return _rows(config.grid, names, values, "exact") + _rows(
        (float("nan"),), tail_names, tail[:, None], "analytic"
    )


def haar_reference(n_qubits: int, n: int, samples: int, rng) -> dict[str, float]:
    """Monte-Carlo mean of the n-th moment and Tsallis/Renyi entropies of
    Haar-random states, with standard errors."""
    rng = np.random.default_rng(rng)
    moments = np.array([pauli_moment(haar_random_state(n_qubits, rng), n) for _ in range(samples)])
    tsallis = (moments - 1.0) / (1 - n)
    return {
        "moment_mean": float(np.mean(moments)),
        "moment_se": float(np.std(moments, ddof=1) / np.sqrt(samples)),
        "tsallis_mean": float(np.mean(tsallis)),
        "tsallis_se": float(np.std(tsallis, ddof=1) / np.sqrt(samples)),
        "renyi_mean": float(np.mean(np.log(moments) / (1 - n))),
        "renyi_se": float(np.std(np.log(moments) / (1 - n), ddof=1) / np.sqrt(samples)),
    }


def _estimate_moment(psi, n, shots, rng):
    """Estimator choice per index parity: Bell parity for odd n, conjugate
    sampling for even n."""
    if n % 2:
        return estimate_moment_bell(psi, n, shots, rng)
    return estimate_moment_conjugate(psi, n, shots, rng)


def _edge_paulis(n_qubits: int):
    """X on the first qubit and Z on the last, the OTOC probe pair."""
    return (
        pauli_from_string("X" + "I" * (n_qubits - 1)),
        pauli_from_string("I" * (n_qubits - 1) + "Z"),
    )


# -- presets -------------------------------------------------------------------

# Quantities of the doped sweep for each moment index n, in the order
# _doped_point returns them; those named *_est* are estimated, the rest exact.
_DOPED_QUANTITIES = (
    "A{n}_exact", "T{n}_exact", "M{n}_exact",
    "A{n}_est", "A{n}_est_shot_se", "T{n}_est", "T{n}_est_shot_se",
    "fstab_upper_n{n}", "fstab_lower_n{n}", "xi_lower_n{n}", "robustness_lower_n{n}",
    "fstab_upper_n{n}_est", "fstab_lower_n{n}_est",
)


def _doped_point(psi, n: int, shots: int, rng) -> list[float]:
    moment = pauli_moment(psi, n)
    exact = [moment, tsallis_stabilizer_entropy(psi, n), renyi_stabilizer_entropy(psi, n)]
    est = _estimate_moment(psi, n, shots, rng)
    estimated = [est.value, est.std_error, (est.value - 1.0) / (1 - n), est.std_error / abs(1 - n)]
    bounds = bounds_from_moment(moment, n, clamp=False)
    est_bounds = bounds_from_moment(est.value, n)
    return exact + estimated + [
        bounds.fstab_upper, bounds.fstab_lower, bounds.xi_lower, bounds.robustness_lower,
        est_bounds.fstab_upper, est_bounds.fstab_lower,
    ]


def _spot_check_estimates(grid, names, values: np.ndarray, moment_indices, seed: int) -> None:
    """Sanity net run on every sweep: at up to five random sweep points the
    estimated moment must sit within three pooled shot errors of the oracle."""
    rng = np.random.default_rng([seed, 424242])
    picks = rng.choice(len(grid), size=min(5, len(grid)), replace=False)
    for idx in picks:
        for n in moment_indices:
            exact, est, se = (
                values[:, idx, names.index(f"A{n}{suffix}")] for suffix in ("_exact", "_est", "_est_shot_se")
            )
            exact, est = np.mean(exact), np.mean(est)
            pooled = np.sqrt(np.sum(se**2)) / len(se)
            if abs(est - exact) > 3 * pooled + 1e-9:
                raise RuntimeError(
                    f"estimator drifted from the oracle at sweep={float(grid[idx])}, n={n}: "
                    f"{est:.6f} vs {exact:.6f} (pooled se {pooled:.2e})"
                )


def _preset_doped_clifford(config: ExperimentConfig) -> list[RecordRow]:
    nq, grid = config.n_qubits, config.grid
    depth = config.params.get("clifford_depth", clifford_proxy_depth(nq))
    names = [q.format(n=n) for n in config.moment_indices for q in _DOPED_QUANTITIES]
    names += ["fstab_exact"] if nq <= 3 else []

    def one(i):
        values = []
        for si, n_t in enumerate(grid):
            rng = _instance_rng(config.seed, si, i)
            psi = doped_clifford_state(nq, int(n_t), rng, clifford_depth=depth)
            point = [v for n in config.moment_indices for v in _doped_point(psi, n, config.shots, rng)]
            if nq <= 3:
                point.append(stabilizer_fidelity(psi))
            values.append(point)
        return values, []

    values, _ = _instances(config, one)
    _spot_check_estimates(grid, names, values, config.moment_indices, config.seed)
    rows = _rows(grid, names, values, ["estimated" if "_est" in q else "exact" for q in names])
    haar_samples = int(config.params.get("haar_samples", 2000))
    for n in config.moment_indices:
        ref = haar_reference(nq, n, haar_samples, _instance_rng(config.seed, 10_000 + n))
        rows.append(RecordRow(float("nan"), f"T{n}_haar", ref["tsallis_mean"], ref["tsallis_se"], haar_samples, "analytic"))
        rows.append(RecordRow(float("nan"), f"A{n}_haar", ref["moment_mean"], ref["moment_se"], haar_samples, "analytic"))
    return rows


def _prefix_unitaries(layers: list, n_qubits: int) -> list[np.ndarray]:
    """Cumulative unitaries after each layer."""
    dim = 1 << n_qubits
    u = np.eye(dim, dtype=complex)
    out = []
    for layer in layers:
        u = circuit_unitary(Circuit(n_qubits, tuple(layer))) @ u
        out.append(u)
    return out


def _preset_scrambling_depth(config: ExperimentConfig) -> list[RecordRow]:
    nq, grid = config.n_qubits, config.grid
    depth_max = int(max(grid))
    tgate_counts = tuple(int(t) for t in _as_tuple(config.params.get("tgates", (0, 4, 16))))
    x1, zn = _edge_paulis(nq)
    psi0 = zero_state(nq)
    rows: list[RecordRow] = []
    for ti, n_t in enumerate(tgate_counts):
        def one(i, n_t=n_t, ti=ti):
            layers = doped_layered_gate_layers(nq, depth_max, n_t, _instance_rng(config.seed, ti, i))
            prefixes = _prefix_unitaries(layers, nq)
            values = [
                [otoc(u, x1, x1, 2), otoc(u, x1, zn, 2), flatness(u @ psi0)]
                for u in (prefixes[int(d) - 1] for d in grid)
            ]
            u_final = prefixes[-1]
            return values, [clifford_average_otoc(u_final, 2), clifford_average_flatness(u_final @ psi0)]

        rows += _sweep_rows(
            config,
            one,
            [f"otoc8_x1x1_NT{n_t}", f"otoc8_x1zN_NT{n_t}", f"flatness_NT{n_t}"],
            [f"cliff_avg_otoc8_NT{n_t}", f"cliff_avg_flatness_NT{n_t}"],
        )
    return rows


_DYNAMIC_QUANTITIES = ("flatness", "M2", "otoc8_x1x1", "otoc8_x1zN")


def _dynamic_quantities(u: np.ndarray, psi_t: np.ndarray, x1, zn) -> list[float]:
    return [flatness(psi_t), renyi_stabilizer_entropy(psi_t, 2), otoc(u, x1, x1, 2), otoc(u, x1, zn, 2)]


def _time_sweep(config: ExperimentConfig, hamiltonian_factory, label: str) -> list[RecordRow]:
    nq, grid = config.n_qubits, config.grid
    x1, zn = _edge_paulis(nq)
    psi0 = zero_state(nq)

    def one(i):
        ev = Evolver(hamiltonian_factory(nq, _instance_rng(config.seed, i)))
        values = []
        for t in grid:
            u = ev.unitary(float(t))
            values.append(_dynamic_quantities(u, u @ psi0, x1, zn))
        t_late = float(grid[-1])
        return values, [
            clifford_average_flatness(ev.evolve(t_late, psi0)),
            clifford_average_otoc(ev.unitary(t_late), 2),
        ]

    return _sweep_rows(
        config,
        one,
        [f"{name}{label}" for name in _DYNAMIC_QUANTITIES],
        [f"cliff_avg_flatness{label}", f"cliff_avg_otoc8{label}"],
    )


def _preset_gue_time(config: ExperimentConfig) -> list[RecordRow]:
    return _time_sweep(config, lambda nq, rng: gue_hamiltonian(nq, rng), "")


def _preset_random_pauli(config: ExperimentConfig) -> list[RecordRow]:
    terms = _as_tuple(config.params.get("k_terms", (4, 16, 70)))
    rows: list[RecordRow] = []
    for k in terms:
        rows += _time_sweep(
            config, lambda nq, rng, k=int(k): random_pauli_hamiltonian(nq, k, rng), f"_K{int(k)}"
        )
    return rows


def _preset_ising(config: ExperimentConfig) -> list[RecordRow]:
    disorder = _as_tuple(config.params.get("disorder", (0.5, 5.0)))
    delta = float(config.params.get("delta", 0.2))
    rows: list[RecordRow] = []
    for w in disorder:
        rows += _time_sweep(
            config,
            lambda nq, rng, w=float(w): ising_hamiltonian(nq, delta, w, rng),
            f"_W{w!r}",
        )
    return rows


def _preset_random_circuit_depth(config: ExperimentConfig) -> list[RecordRow]:
    nq, grid = config.n_qubits, config.grid
    depth_max = int(max(grid))
    x1, zn = _edge_paulis(nq)
    psi0 = zero_state(nq)

    def one(i):
        layers = random_rotation_gate_layers(nq, depth_max, _instance_rng(config.seed, i))
        prefixes = _prefix_unitaries(layers, nq)
        values = [
            [renyi_stabilizer_entropy(choi_state(u), 2)] + _dynamic_quantities(u, u @ psi0, x1, zn)
            for u in (prefixes[int(d) - 1] for d in grid)
        ]
        u_final = prefixes[-1]
        return values, [clifford_average_otoc(u_final, 2), clifford_average_flatness(u_final @ psi0)]

    return _sweep_rows(
        config, one, ("M2_choi",) + _DYNAMIC_QUANTITIES, ("cliff_avg_otoc8", "cliff_avg_flatness")
    )


def product_phase_state(n_qubits: int, s: float) -> np.ndarray:
    """(|0> + e^{i pi s / 4}|1>)^{tensor N} / 2^{N/2}."""
    single = np.array([1.0, np.exp(1j * np.pi * s / 4)]) / np.sqrt(2)
    psi = single
    for _ in range(n_qubits - 1):
        psi = np.kron(psi, single)
    return psi


def product_state_d_min(n_qubits: int, s: float) -> float:
    """D_min of the product phase state: N times the single-qubit value (the
    stabilizer fidelity of this family is multiplicative; checked against
    enumeration for N <= 3 in the test suite)."""
    single = product_phase_state(1, s)
    return -float(n_qubits * np.log(stabilizer_fidelity(single)))


def _preset_monotone_relation(config: ExperimentConfig) -> list[RecordRow]:
    counts = [int(c) for c in _as_tuple(config.params.get("qubit_counts", (1, 2, 3, 4)))]

    def point(nq: int, s: float) -> list[float]:
        psi = product_phase_state(nq, s)
        return [
            renyi_stabilizer_entropy(psi, 2),
            float(np.log(pauli_moment(psi, 0.5)) / (1 - 0.5)),
            product_state_d_min(nq, s),
            bell_magic(psi)[1],
        ]

    names = [f"{q}_N{nq}" for nq in counts for q in ("M2", "M_half", "D_min", "B_add")]
    values = [[v for nq in counts for v in point(nq, float(s))] for s in config.grid]
    return _rows(config.grid, names, np.array([values], dtype=float), "exact")


_NOISE_KINDS = {
    "local_depolarizing": NoiseKind.LOCAL_DEPOLARIZING,
    "dephasing": NoiseKind.DEPHASING,
    "amplitude_damping": NoiseKind.AMPLITUDE_DAMPING,
    "global_depolarizing": NoiseKind.GLOBAL_DEPOLARIZING,
}


def _preset_noise_mitigation(config: ExperimentConfig) -> list[RecordRow]:
    nq, p_grid = config.n_qubits, config.grid
    depth = int(config.params.get("depth", 20))
    models = _as_tuple(
        config.params.get("models", ("local_depolarizing", "dephasing", "amplitude_damping"))
    )
    n = int(config.moment_indices[0])
    rows: list[RecordRow] = []
    for family_idx, (family, n_t) in enumerate((("clifford", 0), ("doped", nq))):
        circuits = [
            doped_layered_circuit(nq, depth, n_t, _instance_rng(config.seed, family_idx, i))
            for i in range(config.instances)
        ]
        for model_name in models:
            records = relative_error_study(circuits, _NOISE_KINDS[str(model_name)], p_grid, n=n)
            # records run circuit-major over p; a ratio of None (no error to
            # mitigate) becomes NaN, which _rows skips
            values = np.array(
                [[r.impurity, np.nan if r.ratio is None else r.ratio] for r in records], dtype=float
            ).reshape(len(circuits), len(p_grid), 2)
            names = (f"impurity_{model_name}_{family}", f"ratio_{model_name}_{family}")
            for pi, p in enumerate(p_grid):
                rows += _rows((p,), names, values[:, pi : pi + 1], "exact")
                ratios = values[:, pi, 1]
                ratios = ratios[~np.isnan(ratios)]
                if ratios.size:
                    rows.append(
                        RecordRow(
                            float(p),
                            f"ratio_median_{model_name}_{family}",
                            float(np.median(ratios)),
                            0.0,
                            int(ratios.size),
                            "exact",
                        )
                    )
    return rows


_TIME_GRID = tuple(np.logspace(-1, 3, 41))

# preset -> (function, default qubits, default grid, default instances); the
# monotone sweep sets its register sizes through `qubit_counts` and has one
# instance per point.
_PRESETS = {
    "doped_clifford_sweep": (_preset_doped_clifford, 3, tuple(range(7)), 6),
    "scrambling_depth_sweep": (_preset_scrambling_depth, 4, tuple(range(1, 41)), 100),
    "gue_time_sweep": (_preset_gue_time, 3, _TIME_GRID, 200),
    # N = 3 has only 63 non-identity strings, fewer than the largest default K
    "random_pauli_sweep": (_preset_random_pauli, 4, _TIME_GRID, 200),
    "ising_sweep": (_preset_ising, 3, _TIME_GRID, 200),
    "random_circuit_depth": (_preset_random_circuit_depth, 3, tuple(range(1, 21)), 50),
    "monotone_relation_sweep": (
        _preset_monotone_relation, None, tuple(np.round(np.linspace(0.1, 1.0, 10), 10)), None,
    ),
    "noise_mitigation_study": (_preset_noise_mitigation, 6, (2e-5, 1e-4, 5e-4, 2e-3), 20),
}

PRESETS = tuple(_PRESETS)


def _resolve(config: ExperimentConfig) -> ExperimentConfig:
    """A copy of the config with the preset's defaults filled in for fields
    left as None.  Raises ConfigError, naming the field, for a size below
    its minimum or an empty grid."""
    if config.preset not in _PRESETS:
        raise ConfigError(f"unknown preset {config.preset!r}; known: {', '.join(PRESETS)}")
    _, qubits, grid, instances = _PRESETS[config.preset]
    resolved = replace(
        config,
        n_qubits=qubits if config.n_qubits is None else config.n_qubits,
        grid=grid if config.grid is None else config.grid,
        instances=instances if config.instances is None else config.instances,
        seed=0 if config.seed is None else config.seed,
    )
    for name, value, least in (
        ("qubits", resolved.n_qubits, 1),
        ("instances", resolved.instances, 1),
        ("shots", resolved.shots, 1),
        ("haar_samples", resolved.params.get("haar_samples"), 2),
    ):
        if value is not None and not (isinstance(value, numbers.Integral) and value >= least):
            raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")
    if len(resolved.grid) == 0:
        raise ConfigError("grid must not be empty")
    return resolved


def run_preset(config: ExperimentConfig) -> list[RecordRow]:
    resolved = _resolve(config)
    return _PRESETS[resolved.preset][0](resolved)


def rows_to_csv(rows: list[RecordRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in rows]) + "\n"


def rows_to_json(config: ExperimentConfig, rows: list[RecordRow]) -> str:
    return json.dumps(
        {
            "config": config.to_dict(),
            "rows": [
                {
                    "sweep": None if np.isnan(r.sweep) else r.sweep,
                    "quantity": r.quantity,
                    "mean": r.mean,
                    "std": r.std,
                    "instances": r.instances,
                    "kind": r.kind,
                }
                for r in rows
            ],
        },
        indent=2,
    )
