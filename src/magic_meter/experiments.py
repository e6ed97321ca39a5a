"""Named, config-driven experiment presets.

Each preset sweeps one variable (T-gate count, circuit depth, evolution time,
phase, or noise strength), averages over random instances with per-instance
RNG streams derived from (seed, sweep index, instance index), and emits
RecordRow tables: mean and sample standard deviation per quantity, plus the
separate shot standard error for estimated quantities.

An ExperimentConfig holds the run settings every preset takes (seed,
threads, output) and, in ``params``, the preset's keys under their config
file names.  Two tables declare every key: _PRESETS lists each key a preset
reads with its default, and _LEAST the least value of each integer key but
the integer grids.  run_preset fills in the defaults and checks the run
settings and every key in one pass, by one rule read from those two tables
only (_resolve); a key the preset does not read is a ConfigError.

All presets share one skeleton.  A preset's instance function ``one(i)``
returns ``(values, tail)``: ``values[sweep, quantity]`` for every grid point
and the per-instance analytic ``tail[quantity]``, which belongs to no grid
point.  _instances stacks them over instances into
``values[instance, sweep, quantity]``, and _rows turns such an array into
rows, mean and ddof=1 std over instances with NaN entries skipped.
"""
from __future__ import annotations

import json
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._guards import STABILIZER_ENUM_GUARD, check_integer, finite_real, is_integer
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
    """A preset, its keys by config file name (``params``; _PRESETS gives
    each preset's keys and defaults) and the run settings every preset takes."""
    preset: str
    params: dict = field(default_factory=dict)
    seed: int | None = 0  # None: unset; the CLI then reads MAGIC_METER_SEED, run_preset uses 0
    threads: int = 0  # 0 = one worker per available core
    output: str | None = None


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


_SEQUENCES = (list, tuple, np.ndarray)


def _as_tuple(value) -> tuple:
    """A sequence as a tuple and a scalar as a 1-tuple (the flat format reads
    `key = 4` as a scalar and `key = 4, 5` as a tuple)."""
    return tuple(value) if isinstance(value, _SEQUENCES) else (value,)


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
    # the run settings are fields; every other key goes to params as written
    return ExperimentConfig(
        preset=str(doc.pop("preset")),
        seed=doc.pop("seed", None),
        threads=doc.pop("threads", ExperimentConfig.threads),
        output=doc.pop("output", None),
        params=doc,
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
    instances = config.params["instances"]
    workers = (os.cpu_count() or 1) if config.threads <= 0 else config.threads
    if workers == 1 or instances == 1:
        results = [one(i) for i in range(instances)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(instances)))
    return (
        np.array([values for values, _ in results], dtype=float),
        np.array([tail for _, tail in results], dtype=float),
    )


def _sweep_rows(config: ExperimentConfig, one, names, tail_names) -> list[RecordRow]:
    """Exact rows of every grid point, then the analytic tail at sweep NaN."""
    values, tail = _instances(config, one)
    return _rows(config.params["grid"], names, values, "exact") + _rows(
        (float("nan"),), tail_names, tail[:, None], "analytic"
    )


def haar_reference(n_qubits: int, n: int, samples: int, rng) -> dict[str, float]:
    """Monte-Carlo mean of the n-th moment and Tsallis entropy of Haar-random
    states, with standard errors."""
    check_integer(n, "n", 2)
    check_integer(samples, "samples", 2)
    rng = np.random.default_rng(rng)
    moments = np.array([pauli_moment(haar_random_state(n_qubits, rng), n) for _ in range(samples)])
    tsallis = (moments - 1.0) / (1 - n)
    return {
        "moment_mean": float(np.mean(moments)),
        "moment_se": float(np.std(moments, ddof=1) / np.sqrt(samples)),
        "tsallis_mean": float(np.mean(tsallis)),
        "tsallis_se": float(np.std(tsallis, ddof=1) / np.sqrt(samples)),
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
    nq, grid, ns, shots = (config.params[key] for key in ("qubits", "grid", "n", "shots"))
    depth = config.params["clifford_depth"]
    names = [q.format(n=n) for n in ns for q in _DOPED_QUANTITIES]
    enumerable = nq <= STABILIZER_ENUM_GUARD  # F_STAB by enumerating the stabilizer states
    names += ["fstab_exact"] if enumerable else []

    def one(i):
        values = []
        for si, n_t in enumerate(grid):
            rng = _instance_rng(config.seed, si, i)
            psi = doped_clifford_state(nq, n_t, rng, clifford_depth=depth)
            point = [v for n in ns for v in _doped_point(psi, n, shots, rng)]
            if enumerable:
                point.append(stabilizer_fidelity(psi))
            values.append(point)
        return values, []

    values, _ = _instances(config, one)
    _spot_check_estimates(grid, names, values, ns, config.seed)
    rows = _rows(grid, names, values, ["estimated" if "_est" in q else "exact" for q in names])
    haar_samples = config.params["haar_samples"]
    for n in ns:
        ref = haar_reference(nq, n, haar_samples, _instance_rng(config.seed, 10_000 + n))
        rows.append(RecordRow(float("nan"), f"T{n}_haar", ref["tsallis_mean"], ref["tsallis_se"], haar_samples, "analytic"))
        rows.append(RecordRow(float("nan"), f"A{n}_haar", ref["moment_mean"], ref["moment_se"], haar_samples, "analytic"))
    return rows


def _depth_sweep(config: ExperimentConfig, stream, layers, point, names, tail_names) -> list[RecordRow]:
    """Rows of a circuit-depth sweep.  ``layers(depth, rng)`` draws the gate
    layers of instance i up to the deepest grid point from the stream
    (seed, *stream, i); each grid depth d evaluates ``point(u, u|0>)`` on the
    unitary u of the first d layers, and the tail is the Clifford-averaged
    OTOC and flatness of the full circuit."""
    nq, depths = config.params["qubits"], config.params["grid"]
    psi0 = zero_state(nq)

    def one(i):
        u, prefixes = np.eye(1 << nq, dtype=complex), []
        for layer in layers(max(depths), _instance_rng(config.seed, *stream, i)):
            u = circuit_unitary(Circuit(nq, tuple(layer))) @ u
            prefixes.append(u)
        values = [point(prefix, prefix @ psi0) for prefix in (prefixes[d - 1] for d in depths)]
        return values, [clifford_average_otoc(u, 2), clifford_average_flatness(u @ psi0)]

    return _sweep_rows(config, one, names, tail_names)


def _preset_scrambling_depth(config: ExperimentConfig) -> list[RecordRow]:
    nq = config.params["qubits"]
    x1, zn = _edge_paulis(nq)
    rows: list[RecordRow] = []
    for ti, n_t in enumerate(config.params["tgates"]):
        rows += _depth_sweep(
            config,
            (ti,),
            lambda depth, rng, n_t=n_t: doped_layered_gate_layers(nq, depth, n_t, rng),
            lambda u, psi: [otoc(u, x1, x1, 2), otoc(u, x1, zn, 2), flatness(psi)],
            [f"otoc8_x1x1_NT{n_t}", f"otoc8_x1zN_NT{n_t}", f"flatness_NT{n_t}"],
            [f"cliff_avg_otoc8_NT{n_t}", f"cliff_avg_flatness_NT{n_t}"],
        )
    return rows


_DYNAMIC_QUANTITIES = ("flatness", "M2", "otoc8_x1x1", "otoc8_x1zN")


def _dynamic_quantities(u: np.ndarray, psi_t: np.ndarray, x1, zn) -> list[float]:
    return [flatness(psi_t), renyi_stabilizer_entropy(psi_t, 2), otoc(u, x1, x1, 2), otoc(u, x1, zn, 2)]


def _time_sweep(config: ExperimentConfig, hamiltonian_factory, label: str) -> list[RecordRow]:
    nq, grid = config.params["qubits"], config.params["grid"]
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
    nq = config.params["qubits"]
    x1, zn = _edge_paulis(nq)
    return _depth_sweep(
        config,
        (),
        lambda depth, rng: random_rotation_gate_layers(nq, depth, rng),
        lambda u, psi: [renyi_stabilizer_entropy(choi_state(u), 2)] + _dynamic_quantities(u, psi, x1, zn),
        ("M2_choi",) + _DYNAMIC_QUANTITIES,
        ("cliff_avg_otoc8", "cliff_avg_flatness"),
    )


def product_state_d_min(n_qubits: int, s: float) -> float:
    """D_min of the product phase state: N times the single-qubit value (the
    stabilizer fidelity of this family is multiplicative; checked against
    enumeration for N <= 3 in the test suite)."""
    single = product_phase_state(1, s)
    return -float(n_qubits * np.log(stabilizer_fidelity(single)))


def _preset_monotone_relation(config: ExperimentConfig) -> list[RecordRow]:
    counts, grid = config.params["qubit_counts"], config.params["grid"]

    def point(nq: int, s: float) -> list[float]:
        psi = product_phase_state(nq, s)
        return [
            renyi_stabilizer_entropy(psi, 2),
            float(np.log(pauli_moment(psi, 0.5)) / (1 - 0.5)),
            product_state_d_min(nq, s),
            bell_magic(psi)[1],
        ]

    names = [f"{q}_N{nq}" for nq in counts for q in ("M2", "M_half", "D_min", "B_add")]
    values = [[v for nq in counts for v in point(nq, float(s))] for s in grid]
    return _rows(grid, names, np.array([values], dtype=float), "exact")


def _preset_noise_mitigation(config: ExperimentConfig) -> list[RecordRow]:
    nq, p_grid, depth, n = (config.params[key] for key in ("qubits", "grid", "depth", "n"))
    kinds = [kind.value for kind in NoiseKind]
    bad_models = [model for model in config.params["models"] if model not in kinds]
    if bad_models:
        raise ConfigError(f"models: unknown noise model {bad_models[0]!r}; known: {', '.join(kinds)}")
    rows: list[RecordRow] = []
    for family_idx, (family, n_t) in enumerate((("clifford", 0), ("doped", nq))):
        circuits = [
            doped_layered_circuit(nq, depth, n_t, _instance_rng(config.seed, family_idx, i))
            for i in range(config.params["instances"])
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

# preset -> (function, every key the preset reads with its default).  A key
# whose default is a tuple takes a scalar as a 1-tuple; any other key takes
# one value.  The monotone sweep sets its register sizes through
# `qubit_counts` and has one instance per point.
_PRESETS = {
    "doped_clifford_sweep": (_preset_doped_clifford, {
        "qubits": 3, "grid": tuple(range(7)), "instances": 6, "n": (2, 3), "shots": 1000,
        # clifford_depth None: the proxy depth of 10 layers per qubit
        "clifford_depth": None, "haar_samples": 2000,
    }),
    "scrambling_depth_sweep": (_preset_scrambling_depth, {
        "qubits": 4, "grid": tuple(range(1, 41)), "instances": 100, "tgates": (0, 4, 16),
    }),
    "gue_time_sweep": (_preset_gue_time, {"qubits": 3, "grid": _TIME_GRID, "instances": 200}),
    # N = 3 has only 63 non-identity strings, fewer than the largest default K
    "random_pauli_sweep": (_preset_random_pauli, {
        "qubits": 4, "grid": _TIME_GRID, "instances": 200, "k_terms": (4, 16, 70),
    }),
    "ising_sweep": (_preset_ising, {
        "qubits": 3, "grid": _TIME_GRID, "instances": 200, "disorder": (0.5, 5.0), "delta": 0.2,
    }),
    "random_circuit_depth": (
        _preset_random_circuit_depth, {"qubits": 3, "grid": tuple(range(1, 21)), "instances": 50},
    ),
    "monotone_relation_sweep": (_preset_monotone_relation, {
        "grid": tuple(np.round(np.linspace(0.1, 1.0, 10), 10)), "qubit_counts": (1, 2, 3, 4),
    }),
    "noise_mitigation_study": (_preset_noise_mitigation, {
        "qubits": 6, "grid": (2e-5, 1e-4, 5e-4, 2e-3), "instances": 20, "n": 2, "depth": 20,
        "models": ("local_depolarizing", "dephasing", "amplitude_damping"),
    }),
}

PRESETS = tuple(_PRESETS)

# the least value of each integer key and of each entry of an integer tuple
_LEAST = {
    "seed": 0, "threads": 0, "qubits": 1, "instances": 1, "shots": 1, "n": 2, "depth": 1,
    "clifford_depth": 0, "haar_samples": 2, "tgates": 0, "k_terms": 1, "qubit_counts": 1,
}


def _resolve(config: ExperimentConfig) -> ExperimentConfig:
    """A copy of the config with the seed set and the preset's defaults filled
    in for keys left out.  The run settings and every key pass one rule, and
    a ConfigError names the key that breaks it: a key the preset does not
    read, a null key whose default is not null, a list for a one-value key,
    an empty list, an entry of a numeric key (an integer key or one whose
    default is a number) that is no finite real number, or an entry of an
    integer key that is no integer or is below its least value.  An integer
    key is one in _LEAST, or one whose default holds integers (the T-gate
    counts and the depths of a grid), which takes its default's least entry
    as its least value."""
    if config.preset not in _PRESETS:
        raise ConfigError(f"unknown preset {config.preset!r}; known: {', '.join(PRESETS)}")
    keys = _PRESETS[config.preset][1]
    bad_keys = [key for key in config.params if key not in keys]
    if bad_keys:
        raise ConfigError(
            f"unknown key {bad_keys[0]!r} for preset {config.preset}; its keys: {', '.join(keys)}"
        )
    values = {"seed": 0 if config.seed is None else config.seed, "threads": config.threads, **keys, **config.params}
    for key, default in {"seed": 0, "threads": 0, **keys}.items():
        if values[key] is None:
            if default is None:
                continue
            raise ConfigError(f"{key} must not be null")
        if isinstance(default, tuple):
            values[key] = _as_tuple(values[key])
            if not values[key]:
                raise ConfigError(f"{key} must not be empty")
        elif isinstance(values[key], _SEQUENCES):
            raise ConfigError(f"{key} takes one value, got {values[key]!r}")
        defaults = _as_tuple(default)
        integer = key in _LEAST or all(is_integer(d) for d in defaults)
        if not (integer or isinstance(defaults[0], numbers.Real)):
            continue
        for entry in _as_tuple(values[key]):
            if integer:
                check_integer(entry, key, _LEAST.get(key, min(defaults)), ConfigError)
            if not finite_real(entry):
                raise ConfigError(f"{key} must be a finite real number, got {entry!r}")
    return replace(config, seed=values.pop("seed"), threads=values.pop("threads"), params=values)


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
