"""Command-line front end.

Subcommands: exact, estimate, gradient, bounds, experiment, budget.
Exit codes: 0 success, 2 parse error, 3 semantic/guard error, 4 I/O error.
The --seed option (default: MAGIC_METER_SEED env var, then 0) makes every
command bit-reproducible; for `experiment` the config's `seed` ranks between
--seed and the env var.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

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
from .paulis import CapacityError, pauli_from_string
from .states import haar_random_state, plus_state, t_state, zero_state

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_IO = 4


class SemanticError(ValueError):
    pass


def _default_seed() -> int:
    env = os.environ.get("MAGIC_METER_SEED")
    return int(env) if env else 0


def _resolve_state(args) -> np.ndarray:
    if args.circuit:
        try:
            circuit = load_circuit(args.circuit)
        except FileNotFoundError as exc:
            raise SemanticError(f"circuit file not found: {exc}") from exc
        return apply_circuit(circuit)
    name = (args.state or "zero").lower()
    nq = args.qubits or 1
    if name == "zero":
        return zero_state(nq)
    if name == "plus":
        return plus_state(nq)
    if name == "t":
        return t_state(nq)
    if name == "haar":
        return haar_random_state(nq, np.random.default_rng(args.seed))
    raise SemanticError(f"unknown named state {name!r} (use zero, plus, t, haar)")


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


def _cmd_exact(args) -> int:
    psi = _resolve_state(args)
    measure = args.measure
    if measure == "A_n":
        values = {"A_n": pauli_moment(psi, args.n)}
    elif measure == "M_n":
        values = {"M_n": renyi_stabilizer_entropy(psi, args.n)}
    elif measure == "T_n":
        values = {"T_n": tsallis_stabilizer_entropy(psi, args.n)}
    elif measure == "flatness":
        values = {"flatness": flatness(psi)}
    elif measure == "I_q":
        values = {"I_q": participation_entropy(psi, args.q)}
    elif measure == "bell_magic":
        b, badd = bell_magic(psi)
        values = {"bell_magic": b, "bell_magic_additive": badd}
    elif measure == "fstab":
        values = {"fstab": stabilizer_fidelity(psi)}
    elif measure == "otoc":
        if not args.circuit:
            raise SemanticError("the otoc measure needs --circuit")
        if not (args.sigma and args.sigma_prime):
            raise SemanticError("the otoc measure needs --sigma and --sigma-prime")
        circuit = load_circuit(args.circuit)
        from .circuits import circuit_unitary

        values = {
            "otoc": otoc(
                circuit_unitary(circuit),
                pauli_from_string(args.sigma),
                pauli_from_string(args.sigma_prime),
                args.n,
            )
        }
    else:
        raise SemanticError(f"unknown measure {measure!r}")
    _print_values(values, args)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    psi = _resolve_state(args)
    rng = np.random.default_rng(args.seed)
    if args.algorithm == "alg1":
        res = estimate_moment_bell(
            psi, args.n, args.shots, rng, allow_even=args.allow_even, seed=args.seed
        )
    elif args.algorithm == "alg2":
        res = estimate_moment_conjugate(psi, args.n, args.shots, rng, seed=args.seed)
    elif args.algorithm == "purity":
        res = estimate_purity(psi, args.shots, rng, seed=args.seed)
    elif args.algorithm == "bellmagic":
        res = estimate_bell_magic(psi, args.shots, rng, seed=args.seed)
    elif args.algorithm == "participation":
        res = estimate_participation(psi, args.q, args.shots, rng, seed=args.seed)
    else:
        raise SemanticError(f"unknown algorithm {args.algorithm!r}")
    _emit(res.to_json(), args.output)
    return EXIT_OK


def _cmd_gradient(args) -> int:
    try:
        circuit = load_circuit(args.circuit)
    except FileNotFoundError as exc:
        raise SemanticError(str(exc)) from exc
    rng = np.random.default_rng(args.seed)
    res = estimate_moment_gradient(
        circuit, args.param_index, args.n, args.shots, rng,
        allow_even=args.allow_even, seed=args.seed,
    )
    _emit(res.to_json(), args.output)
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
        raise SemanticError(str(exc)) from exc
    if args.seed is not None:
        config.seed = args.seed
    elif config.seed is None:
        config.seed = _default_seed()
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
        values = {"epsilon": eps, "repetitions": shots, "copies": 2 * shots * args.n}
    else:
        shots = hoeffding_budget(args.epsilon, args.delta, args.delta_omega)
        values = {"repetitions": shots, "copies": 2 * shots * args.n}
    if args.format == "json":
        _emit(json.dumps(values), args.output)
    else:
        _emit("\n".join(f"{k} {v:.12g}" for k, v in values.items()), args.output)
    return EXIT_OK


def _add_state_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", help="named state: zero, plus, t, haar")
    p.add_argument("--circuit", help="circuit file (text or JSON) preparing the state")
    p.add_argument("--qubits", type=int, help="qubit count for named states")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", help="write results to this path instead of stdout")
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
    _add_common(p_exact)
    p_exact.add_argument(
        "--measure",
        required=True,
        choices=("A_n", "M_n", "T_n", "flatness", "I_q", "otoc", "bell_magic", "fstab"),
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
        choices=("alg1", "alg2", "bellmagic", "participation", "purity"),
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
    _add_common(p_exp)
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
    _add_common(p_budget)
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
    # an experiment config's own seed ranks between --seed and the env var
    if getattr(args, "seed", None) is None and args.fn is not _cmd_experiment:
        args.seed = _default_seed()
    try:
        return args.fn(args)
    except CircuitParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (SemanticError, CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
