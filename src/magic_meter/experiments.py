"""Named, config-driven experiment presets.

Each preset sweeps one variable (T-gate count, circuit depth, evolution time,
phase, or noise strength), averages over random instances with per-instance
RNG streams derived from (seed, sweep index, instance index), and emits
RecordRow tables: mean and sample standard deviation per quantity, plus the
separate shot standard error for estimated quantities.

All presets share one skeleton.  _PRESETS declares each preset's default
qubit count, grid and instance count and the preset's own keys with their
defaults; run_preset fills in the defaults for whatever the config leaves
out and rejects non-positive sizes and keys the preset does not own.  A
preset's instance function ``one(i)`` returns ``(values, tail)``:
``values[sweep, quantity]`` for every grid point and the per-instance
analytic ``tail[quantity]``, which belongs to no grid point.  _instances
stacks them over instances into ``values[instance, sweep, quantity]``, and
_rows turns such an array into rows, mean and ddof=1 std over instances
with NaN entries skipped.
"""
from __future__ import annotations

import json
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .circuits import (
    Circuit,
    circuit_unitary,
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
from .states import choi_state, haar_random_state, product_phase_state, zero_state

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


def _as_tuple(value) -> tuple | None:
    """A sequence as a tuple and a scalar as a 1-tuple (the flat format reads
    `key = 4` as a scalar and `key = 4, 5` as a tuple); None stays None."""
    if value is None:
        return None
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(value)
    return (value,)


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
    # the common fields, under their ExperimentConfig names or the short
    # `qubits` and `n`; every other key goes to params
    known = {"qubits", "n"} | {f.name for f in fields(ExperimentConfig)} - {"params"}
    # a field left out takes its default from the ExperimentConfig dataclass
    moments = doc.get("n", doc.get("moment_indices", ExperimentConfig.moment_indices))
    return ExperimentConfig(
        preset=str(doc["preset"]),
        n_qubits=doc.get("qubits", doc.get("n_qubits")),
        grid=_as_tuple(doc.get("grid")),
        instances=doc.get("instances"),
        shots=doc.get("shots", ExperimentConfig.shots),
        moment_indices=_as_tuple(moments),
        seed=doc.get("seed"),
        threads=doc.get("threads", ExperimentConfig.threads),
        output=doc.get("output"),
        params={k: v for k, v in doc.items() if k not in known},
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


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
    depth = config.params["clifford_depth"]
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
    haar_samples = config.params["haar_samples"]
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


def _depths(grid) -> tuple[int, ...]:
    """The grid as circuit depths; each indexes the prefix list as d - 1."""
    if not all(isinstance(d, numbers.Real) and float(d).is_integer() and d >= 1 for d in grid):
        raise ConfigError(f"grid depths must be integers of at least 1, got {list(grid)!r}")
    return tuple(int(d) for d in grid)


def _preset_scrambling_depth(config: ExperimentConfig) -> list[RecordRow]:
    nq, depths = config.n_qubits, _depths(config.grid)
    depth_max = max(depths)
    tgate_counts = config.params["tgates"]
    x1, zn = _edge_paulis(nq)
    psi0 = zero_state(nq)
    rows: list[RecordRow] = []
    for ti, n_t in enumerate(tgate_counts):
        def one(i, n_t=n_t, ti=ti):
            layers = doped_layered_gate_layers(nq, depth_max, n_t, _instance_rng(config.seed, ti, i))
            prefixes = _prefix_unitaries(layers, nq)
            values = [
                [otoc(u, x1, x1, 2), otoc(u, x1, zn, 2), flatness(u @ psi0)]
                for u in (prefixes[d - 1] for d in depths)
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
    rows: list[RecordRow] = []
    for k in config.params["k_terms"]:
        rows += _time_sweep(config, lambda nq, rng, k=k: random_pauli_hamiltonian(nq, k, rng), f"_K{k}")
    return rows


def _preset_ising(config: ExperimentConfig) -> list[RecordRow]:
    delta = float(config.params["delta"])
    rows: list[RecordRow] = []
    for w in config.params["disorder"]:
        rows += _time_sweep(
            config,
            lambda nq, rng, w=float(w): ising_hamiltonian(nq, delta, w, rng),
            f"_W{w!r}",
        )
    return rows


def _preset_random_circuit_depth(config: ExperimentConfig) -> list[RecordRow]:
    nq, depths = config.n_qubits, _depths(config.grid)
    depth_max = max(depths)
    x1, zn = _edge_paulis(nq)
    psi0 = zero_state(nq)

    def one(i):
        layers = random_rotation_gate_layers(nq, depth_max, _instance_rng(config.seed, i))
        prefixes = _prefix_unitaries(layers, nq)
        values = [
            [renyi_stabilizer_entropy(choi_state(u), 2)] + _dynamic_quantities(u, u @ psi0, x1, zn)
            for u in (prefixes[d - 1] for d in depths)
        ]
        u_final = prefixes[-1]
        return values, [clifford_average_otoc(u_final, 2), clifford_average_flatness(u_final @ psi0)]

    return _sweep_rows(
        config, one, ("M2_choi",) + _DYNAMIC_QUANTITIES, ("cliff_avg_otoc8", "cliff_avg_flatness")
    )


def product_state_d_min(n_qubits: int, s: float) -> float:
    """D_min of the product phase state: N times the single-qubit value (the
    stabilizer fidelity of this family is multiplicative; checked against
    enumeration for N <= 3 in the test suite)."""
    single = product_phase_state(1, s)
    return -float(n_qubits * np.log(stabilizer_fidelity(single)))


def _preset_monotone_relation(config: ExperimentConfig) -> list[RecordRow]:
    counts = config.params["qubit_counts"]

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


def _preset_noise_mitigation(config: ExperimentConfig) -> list[RecordRow]:
    nq, p_grid = config.n_qubits, config.grid
    depth = config.params["depth"]
    n = config.moment_indices[0]
    rows: list[RecordRow] = []
    for family_idx, (family, n_t) in enumerate((("clifford", 0), ("doped", nq))):
        circuits = [
            doped_layered_circuit(nq, depth, n_t, _instance_rng(config.seed, family_idx, i))
            for i in range(config.instances)
        ]
        for model_name in config.params["models"]:
            records = relative_error_study(circuits, NoiseKind(model_name), p_grid, n=n)
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

# preset -> (function, default qubits, default grid, default instances, the
# preset's own keys with their defaults).  A key whose default is a tuple
# takes a scalar as a 1-tuple.  The monotone sweep sets its register sizes
# through `qubit_counts` and has one instance per point.
_PRESETS = {
    "doped_clifford_sweep": (
        _preset_doped_clifford, 3, tuple(range(7)), 6,
        # clifford_depth None: the proxy depth of 10 layers per qubit
        {"clifford_depth": None, "haar_samples": 2000},
    ),
    "scrambling_depth_sweep": (
        _preset_scrambling_depth, 4, tuple(range(1, 41)), 100, {"tgates": (0, 4, 16)},
    ),
    "gue_time_sweep": (_preset_gue_time, 3, _TIME_GRID, 200, {}),
    # N = 3 has only 63 non-identity strings, fewer than the largest default K
    "random_pauli_sweep": (_preset_random_pauli, 4, _TIME_GRID, 200, {"k_terms": (4, 16, 70)}),
    "ising_sweep": (_preset_ising, 3, _TIME_GRID, 200, {"disorder": (0.5, 5.0), "delta": 0.2}),
    "random_circuit_depth": (_preset_random_circuit_depth, 3, tuple(range(1, 21)), 50, {}),
    "monotone_relation_sweep": (
        _preset_monotone_relation, None, tuple(np.round(np.linspace(0.1, 1.0, 10), 10)), None,
        {"qubit_counts": (1, 2, 3, 4)},
    ),
    "noise_mitigation_study": (
        _preset_noise_mitigation, 6, (2e-5, 1e-4, 5e-4, 2e-3), 20,
        {"depth": 20, "models": ("local_depolarizing", "dephasing", "amplitude_damping")},
    ),
}

PRESETS = tuple(_PRESETS)


def _resolve(config: ExperimentConfig) -> ExperimentConfig:
    """A copy of the config with the preset's defaults filled in for fields
    left as None and for own keys left out.  Raises ConfigError, naming the
    field, for a key the preset does not own, a null own key, an unknown noise
    model, an integer field that is no integer or is below its minimum, or an
    empty grid or moment list."""
    if config.preset not in _PRESETS:
        raise ConfigError(f"unknown preset {config.preset!r}; known: {', '.join(PRESETS)}")
    _, qubits, grid, instances, own = _PRESETS[config.preset]
    bad_keys = [key for key in config.params if key not in own]
    if bad_keys:
        raise ConfigError(
            f"unknown key {bad_keys[0]!r} for preset {config.preset}; "
            f"its own keys: {', '.join(own) or 'none'}"
        )
    nulls = [key for key, value in config.params.items() if value is None and own[key] is not None]
    if nulls:
        raise ConfigError(f"{nulls[0]} must not be null")
    params = {**own, **config.params}
    for key, default in own.items():
        if isinstance(default, tuple):
            params[key] = _as_tuple(params[key])
    kinds = [kind.value for kind in NoiseKind]
    bad_models = [model for model in params.get("models", ()) if model not in kinds]
    if bad_models:
        raise ConfigError(f"models: unknown noise model {bad_models[0]!r}; known: {', '.join(kinds)}")
    resolved = replace(
        config,
        n_qubits=qubits if config.n_qubits is None else config.n_qubits,
        grid=grid if config.grid is None else config.grid,
        instances=instances if config.instances is None else config.instances,
        seed=0 if config.seed is None else config.seed,
        params=params,
    )
    if not resolved.moment_indices:
        raise ConfigError(f"n must be a non-empty list of integers, got {resolved.moment_indices!r}")
    for name, value, least in (
        ("qubits", resolved.n_qubits, 1),
        ("instances", resolved.instances, 1),
        ("shots", resolved.shots, 1),
        ("seed", resolved.seed, 0),
        ("threads", resolved.threads, 0),
        *(("n", m, 1) for m in resolved.moment_indices),
        *(("tgates", t, 0) for t in params.get("tgates", ())),
        *(("k_terms", k, 1) for k in params.get("k_terms", ())),
        *(("qubit_counts", c, 1) for c in params.get("qubit_counts", ())),
        ("haar_samples", params.get("haar_samples"), 2),
        ("depth", params.get("depth"), 1),
        ("clifford_depth", params.get("clifford_depth"), 0),
    ):
        # None stands for a preset default of None or a key the preset does not own
        if value is None and name not in ("shots", "threads", "n"):
            continue
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
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
            "config": asdict(config),
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
