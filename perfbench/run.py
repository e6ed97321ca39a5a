"""magic-meter benchmark: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload scrambling --seed 3 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src. Each
sweep goes through the CLI entry point, ``magic_meter.cli.main(["experiment",
"--config", ...])``, which writes a CSV that is checked against the frozen
reference (check.py). The next sweep starts when the previous one is done,
and sweeps repeat while the next one fits in --seconds.

Before timing, one untimed sweep of the tiny config warms the code paths.
--trace 0 reports the end-to-end metrics: wall_s and cpu_s per sweep, as
the mean over the run's sweeps (their total over their count), the
process's peak_rss_mb, and setup_s, the median over fresh interpreters of
importing magic_meter.cli and loading the config, with the library's
instance loops on one worker. --trace 1 keeps the library's default pool,
spends half of --seconds untraced and half with the tracer installed, and
reports the per-layer metrics of tracer.py plus trace.overhead_s. The last
stdout line is the JSON result; provenance and per-sweep samples go to
.perfbench_out/.
"""
from __future__ import annotations

import os

# BLAS runs on one thread, so compute threads never exceed the core count:
# the library's instance pool has at most one worker per core (see
# workloads.SERIAL_THREADS). Set before anything imports numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from check import check_csv  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_THREADS, INPUT_SEEDS, SERIAL_THREADS, WORKLOADS, expected_calls, make_config,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PER_SWEEP = 2
SETUP_MIN_SAMPLES = 9
SETUP_SNIPPET = (
    "import sys, magic_meter.cli\n"
    "from magic_meter.experiments import load_config\n"
    "load_config(sys.argv[1])\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or references)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the self-test")
    return p.parse_args(argv)


# -- provenance -----------------------------------------------------------------

def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def provenance(args, input_seed: int, config: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "input_seed": input_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "library_threads": config["threads"],
        "git_commit": _git_commit(),
        "config": config,
    }


# -- measuring ------------------------------------------------------------------

class SetupTimer:
    """Times fresh interpreters that import the CLI and load the config.

    Samples are taken between sweeps, so that they see the same machine
    conditions as the sweeps; the first, untimed call writes the bytecode
    cache.
    """

    def __init__(self, config_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._cmd = [sys.executable, "-c", SETUP_SNIPPET, str(config_path)]
        self._env = env
        self.samples: list[float] = []
        self._spawn()

    def _spawn(self) -> float:
        start = perf_counter()
        subprocess.run(self._cmd, env=self._env, cwd=ROOT, check=True)
        return perf_counter() - start

    def sample(self, count: int) -> None:
        self.samples += [self._spawn() for _ in range(count)]


def one_sweep(cli, config_path: Path, csv_path: Path, seed: int, reference: str) -> dict:
    """Run the preset once through the CLI and check its CSV.

    The seed is passed on the command line too, because the CLI replaces
    the config's seed with its own default (0, or MAGIC_METER_SEED) when
    --seed is absent."""
    csv_path.unlink(missing_ok=True)
    gc.collect()  # every sweep starts from a collected heap
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["experiment", "--config", str(config_path), "--seed", str(seed),
                             "--output", str(csv_path)])
        if code != 0:
            error = f"cli exit code {code}"
    except Exception:  # a sweep that raises is a failed sweep, not a crashed benchmark
        error = traceback.format_exc()
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if error is None:
        rows, failed, failures = check_csv(csv_path.read_text(), reference)
    else:
        rows, failed, failures = check_csv("", reference)
        failures = [error]
    for line in failures[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "rows": rows, "failed": failed}


def closed_loop(seconds: float, sweep, between=lambda: None) -> list[dict]:
    """Sweeps back to back, each followed by ``between()``, while the next
    one should end within seconds (at least one)."""
    samples = []
    start = perf_counter()
    while True:
        before = perf_counter()
        samples.append(sweep())
        between()
        if perf_counter() - start + (perf_counter() - before) > seconds:
            return samples


def run(args) -> dict:
    if not (SRC / "magic_meter" / "cli.py").is_file():
        raise BenchError(f"no library sources at {SRC}; run from the repository root")
    input_seed = INPUT_SEEDS[args.seed % len(INPUT_SEEDS)]
    ref_path = BENCH_DIR / "reference" / args.size / args.workload / f"seed{input_seed}.csv"
    if not ref_path.is_file():
        raise BenchError(f"missing reference {ref_path}")
    reference = ref_path.read_text()
    threads = SERIAL_THREADS if args.trace == 0 else DEFAULT_THREADS
    config = make_config(args.workload, args.size, input_seed, threads)

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    config_path, csv_path = work / "config.json", work / "out.csv"
    config_path.write_text(json.dumps(config))

    sys.path.insert(0, str(SRC))
    import magic_meter.cli as cli

    prov = provenance(args, input_seed, config)
    warm_path = work / "warmup.json"
    warm_path.write_text(json.dumps(make_config(args.workload, "tiny", input_seed, threads)))
    # a warm-up that fails is not judged here: the timed sweeps are checked
    with contextlib.redirect_stdout(sys.stderr), contextlib.suppress(Exception):
        cli.main(["experiment", "--config", str(warm_path), "--seed", str(input_seed),
                  "--output", str(csv_path)])
    sweep = lambda: one_sweep(cli, config_path, csv_path, input_seed, reference)  # noqa: E731
    record = {"provenance": prov}
    if args.trace == 0:
        setup = SetupTimer(config_path)
        samples = closed_loop(args.seconds, sweep, lambda: setup.sample(SETUP_PER_SWEEP))
        setup.sample(max(0, SETUP_MIN_SAMPLES - len(setup.samples)))
        metrics = {
            "wall_s": statistics.fmean(s["wall_s"] for s in samples),
            "cpu_s": statistics.fmean(s["cpu_s"] for s in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup.samples),
        }
        units = END_TO_END_UNITS
        record.update(setup_samples=setup.samples, samples=samples)
        count_checks, count_failures = 0, []
    else:
        untraced = closed_loop(args.seconds / 2, sweep)
        expected = expected_calls(config)
        traced, per_sweep, count_failures = [], [], []
        with Tracer() as tracer:
            def traced_sweep():
                run_id = tracer.next_run()
                sample = sweep()
                layer = tracer.sweep_metrics(run_id)
                for name, want in expected.items():
                    low, high = want if isinstance(want, tuple) else (want, want)
                    if not low <= layer[name] <= high:
                        count_failures.append(f"sweep {run_id}: {name} = {layer[name]:g}, expected {want}")
                per_sweep.append(layer)
                sample["run_id"] = run_id
                return sample

            traced = closed_loop(args.seconds / 2, traced_sweep)
        count_checks = len(expected) * len(traced)
        samples = untraced + traced
        metrics = {name: statistics.median(m[name] for m in per_sweep)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                       - statistics.median(s["wall_s"] for s in untraced))
        units = PER_LAYER_UNITS
        record.update(samples=samples, untraced_sweeps=len(untraced), per_sweep=per_sweep,
                      count_failures=count_failures)
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in traced:
                for span in tracer.spans(s["run_id"]):
                    fh.write(json.dumps(dict(zip(
                        ("id", "name", "start", "end", "parent", "run", "thread"), span))) + "\n")
        for line in count_failures:
            print(f"trace incomplete: {line}", file=sys.stderr)

    rows = sum(s["rows"] for s in samples)
    failed_rows = sum(s["failed"] for s in samples)
    result = {
        "correct": failed_rows == 0 and not count_failures,
        "attempted": rows + count_checks,
        "failed": failed_rows + len(count_failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record.update(result=result, fail_frac=failed_rows / rows)
    (work / "result.json").write_text(json.dumps(record, indent=1))
    csv_path.unlink(missing_ok=True)

    print(f"{args.workload} seed {args.seed} (input seed {input_seed}), "
          f"{len(samples)} sweeps, record in {work.relative_to(ROOT)}")
    print("provenance " + json.dumps({k: v for k, v in prov.items() if k != "config"}))
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':48s} {failed_rows / rows:.6g} fraction ({failed_rows}/{rows} rows)")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
