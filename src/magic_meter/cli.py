"""Command-line front end.

Subcommands: exact, estimate, gradient, bounds, experiment, budget.
Exit codes: 0 success, 2 parse error (arguments or circuit file), 3 invalid
input (a bad value, config, size guard or missing input file), 4 I/O error.
The seed (``_seed``: --seed, then an experiment config's `seed`, then the
MAGIC_METER_SEED env var, then 0) makes every command but `budget`, which
draws nothing, bit-reproducible; `estimate` and `gradient` print it as the
last key of their JSON.  Only exact, budget and experiment take --format; the
others always print JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from ._guards import check_integer, finite_real
from .circuits import CircuitParseError, apply_circuit, load_circuit
from .estimators import (
    estimate_bell_magic,
    estimate_moment_bell,
    estimate_moment_conjugate,
    estimate_moment_gradient,
    estimate_participation,
    estimate_purity,
    hoeffding_budget,
    renyi_precision_budget,
)
from .experiments import ConfigError, load_config, rows_to_csv, rows_to_json, run_preset
from .oracles import (
    bell_magic,
    bounds_report,
    flatness,
    otoc,
    participation_entropy,
    pauli_moment,
    renyi_stabilizer_entropy,
    stabilizer_fidelity,
    tsallis_stabilizer_entropy,
)
from .paulis import pauli_from_string
from .states import haar_random_state, plus_state, t_state, zero_state

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_IO = 4


def _seed(args, config_seed: int | None = None) -> int:
    """--seed, else an experiment config's seed (``run_preset`` checks it),
    else MAGIC_METER_SEED, else 0.  A flag or variable that is no integer of
    at least 0 is a ValueError that names it; the variable is read only here."""
    if args.seed is not None:
        value, name = args.seed, "--seed"
    elif config_seed is not None:
        return config_seed
    else:
        value, name = os.environ.get("MAGIC_METER_SEED") or "0", "MAGIC_METER_SEED"
        try:
            value = int(value)
        except ValueError:
            pass  # refused below with the text as given
    check_integer(value, name, 0)
    return value


def _load_circuit(path: str):
    try:
        return load_circuit(path)
    except FileNotFoundError as exc:
        raise ValueError(f"circuit file not found: {exc}") from exc


# --state name -> state from (qubit count, seed)
_STATES = {
    "zero": lambda nq, seed: zero_state(nq),
    "plus": lambda nq, seed: plus_state(nq),
    "t": lambda nq, seed: t_state(nq),
    "haar": lambda nq, seed: haar_random_state(nq, np.random.default_rng(seed)),
}


def _resolve_state(args) -> np.ndarray:
    if args.circuit:
        return apply_circuit(_load_circuit(args.circuit))
    name = (args.state or "zero").lower()
    if name not in _STATES:
        raise ValueError(f"unknown named state {name!r} (use {', '.join(_STATES)})")
    qubits = 1 if args.qubits is None else args.qubits
    check_integer(qubits, "--qubits", 1)
    return _STATES[name](qubits, _seed(args))


def _print_values(values, args) -> None:
    if args.format == "json":
        text = json.dumps(values)
    else:
        text = "\n".join(f"{v + 0.0:.12g}" for v in values.values())  # -0.0 prints as 0
    _emit(text, args.output)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def _otoc_values(args) -> dict:
    # the OTOC reads the circuit's unitary, not the state it prepares
    if not args.circuit:
        raise ValueError("the otoc measure needs --circuit")
    if not (args.sigma and args.sigma_prime):
        raise ValueError("the otoc measure needs --sigma and --sigma-prime")
    circuit = _load_circuit(args.circuit)
    sigma, sigma_prime = pauli_from_string(args.sigma), pauli_from_string(args.sigma_prime)
    return {"otoc": otoc(circuit, sigma, sigma_prime, args.n)}


# exact --measure name -> its values from the parsed arguments
_MEASURES = {
    "A_n": lambda a: {"A_n": pauli_moment(_resolve_state(a), a.n)},
    "M_n": lambda a: {"M_n": renyi_stabilizer_entropy(_resolve_state(a), a.n)},
    "T_n": lambda a: {"T_n": tsallis_stabilizer_entropy(_resolve_state(a), a.n)},
    "flatness": lambda a: {"flatness": flatness(_resolve_state(a))},
    "I_q": lambda a: {"I_q": participation_entropy(_resolve_state(a), a.q)},
    "otoc": _otoc_values,
    "bell_magic": lambda a: dict(zip(("bell_magic", "bell_magic_additive"), bell_magic(_resolve_state(a)))),
    "fstab": lambda a: {"fstab": stabilizer_fidelity(_resolve_state(a))},
}

# estimate --algorithm name -> its result from (state, arguments, generator)
_ALGORITHMS = {
    "alg1": lambda psi, a, rng: estimate_moment_bell(psi, a.n, a.shots, rng, allow_even=a.allow_even),
    "alg2": lambda psi, a, rng: estimate_moment_conjugate(psi, a.n, a.shots, rng),
    "bellmagic": lambda psi, a, rng: estimate_bell_magic(psi, a.shots, rng),
    "participation": lambda psi, a, rng: estimate_participation(psi, a.q, a.shots, rng),
    "purity": lambda psi, a, rng: estimate_purity(psi, a.shots, rng),
}


def _cmd_exact(args) -> int:
    _print_values(_MEASURES[args.measure](args), args)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    seed = _seed(args)
    res = _ALGORITHMS[args.algorithm](_resolve_state(args), args, np.random.default_rng(seed))
    _emit(json.dumps({**asdict(res), "seed": seed}), args.output)  # the seed is the last key
    return EXIT_OK


def _cmd_gradient(args) -> int:
    seed = _seed(args)
    res = estimate_moment_gradient(
        _load_circuit(args.circuit), args.param_index, args.n, args.shots, np.random.default_rng(seed),
        allow_even=args.allow_even,
    )
    _emit(json.dumps({**asdict(res), "seed": seed}), args.output)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    psi = _resolve_state(args)
    report = bounds_report(psi, args.n)
    _emit(report.to_json(), args.output)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    try:
        config = load_config(args.config)
    except FileNotFoundError as exc:
        raise ValueError(str(exc)) from exc
    config.seed = _seed(args, config.seed)
    if args.threads is not None:
        config.threads = args.threads
    rows = run_preset(config)
    out_path = args.output or config.output
    text = rows_to_json(config, rows) if args.format == "json" else rows_to_csv(rows)
    if out_path:
        _emit(text, out_path)
        print(f"{config.preset}: wrote {len(rows)} rows to {out_path}")
    else:
        _emit(text, None)
    return EXIT_OK


def _cmd_budget(args) -> int:
    if args.renyi_target is not None:
        eps, shots = renyi_precision_budget(
            args.renyi_target, args.n, args.epsilon_m, delta=args.delta,
            delta_omega=args.delta_omega,
        )
        values = {"epsilon": eps, "repetitions": shots}
    else:
        check_integer(args.n, "n", 1)
        shots = hoeffding_budget(args.epsilon, args.delta, args.delta_omega)
        values = {"repetitions": shots}
    values["copies"] = 2 * shots * args.n
    if not finite_real(values["copies"]):
        raise ValueError(f"n={args.n!r} needs 2 * repetitions * n copies, more than a float holds")
    if args.format == "json":
        _emit(json.dumps(values), args.output)
    else:
        _emit("\n".join(f"{k} {v:.12g}" for k, v in values.items()), args.output)
    return EXIT_OK


def _add_state_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", help=f"named state: {', '.join(_STATES)}")
    p.add_argument("--circuit", help="circuit file (text or JSON) preparing the state")
    p.add_argument("--qubits", type=int, help="qubit count for named states")


def _add_common(p: argparse.ArgumentParser, seed: bool = True, formats: bool = False) -> None:
    """--output, plus --seed where a command reads it and --format where it
    prints either CSV or JSON."""
    if seed:
        p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", help="write results to this path instead of stdout")
    if formats:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magic-meter",
        description="Stabilizer entropies, Bell-measurement estimators and "
        "nonstabilizerness bounds for small quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact brute-force value of a measure")
    _add_state_options(p_exact)
    _add_common(p_exact, formats=True)
    p_exact.add_argument(
        "--measure",
        required=True,
        choices=tuple(_MEASURES),
    )
    p_exact.add_argument("--n", type=int, default=2)
    p_exact.add_argument("--q", type=float, default=2)
    p_exact.add_argument("--sigma", help="Pauli string for otoc")
    p_exact.add_argument("--sigma-prime", dest="sigma_prime", help="second Pauli string for otoc")
    p_exact.set_defaults(fn=_cmd_exact)

    p_est = sub.add_parser("estimate", help="Monte-Carlo estimator, JSON result")
    _add_state_options(p_est)
    _add_common(p_est)
    p_est.add_argument(
        "--algorithm",
        required=True,
        choices=tuple(_ALGORITHMS),
    )
    p_est.add_argument("--n", type=int, default=2)
    p_est.add_argument("--q", type=int, default=2)
    p_est.add_argument("--shots", type=int, default=1000)
    p_est.add_argument(
        "--allow-even",
        action="store_true",
        help="run the two-copy estimator at even n despite its exponential variance",
    )
    p_est.set_defaults(fn=_cmd_estimate)

    p_grad = sub.add_parser("gradient", help="shift-rule gradient estimator")
    _add_common(p_grad)
    p_grad.add_argument("--circuit", required=True)
    p_grad.add_argument("--param-index", dest="param_index", type=int, required=True)
    p_grad.add_argument("--n", type=int, default=3)
    p_grad.add_argument("--shots", type=int, default=1000)
    p_grad.add_argument("--allow-even", action="store_true")
    p_grad.set_defaults(fn=_cmd_gradient)

    p_bounds = sub.add_parser("bounds", help="magic-monotone bound report (JSON)")
    _add_state_options(p_bounds)
    _add_common(p_bounds)
    p_bounds.add_argument("--n", type=int, default=2)
    p_bounds.set_defaults(fn=_cmd_bounds)

    p_exp = sub.add_parser("experiment", help="run a named experiment preset")
    _add_common(p_exp, formats=True)
    p_exp.add_argument("--config", required=True, help="flat key=value or JSON config file")
    p_exp.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker cap for instance loops (default: all cores); results are "
        "thread-count independent",
    )
    p_exp.set_defaults(fn=_cmd_experiment)

    p_budget = sub.add_parser("budget", help="Hoeffding repetition budgets")
    _add_common(p_budget, seed=False, formats=True)
    p_budget.add_argument("--epsilon", type=float, default=0.05)
    p_budget.add_argument("--delta", type=float, default=0.05)
    p_budget.add_argument("--delta-omega", dest="delta_omega", type=float, default=2.0)
    p_budget.add_argument("--n", type=int, default=3)
    p_budget.add_argument("--renyi-target", dest="renyi_target", type=float, default=None)
    p_budget.add_argument("--epsilon-m", dest="epsilon_m", type=float, default=0.01)
    p_budget.set_defaults(fn=_cmd_budget)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CircuitParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except ValueError as exc:  # CapacityError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
