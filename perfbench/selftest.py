"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Run from the repository root. Checks that every input seed froze a
different reference; that every workload runs traced and untraced at two
input seeds with every metric BENCHMARK.json names, in its unit, and no
failed row or call count; that the reference check catches a
changed value, a drifted estimate and a changed row set; and that the
benchmark refuses to run, without a result, where the library is absent.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from check import K_SE, check_csv
from run import BENCH_DIR, END_TO_END_UNITS, OUT, ROOT
from tracer import PER_LAYER_UNITS
from workloads import INPUT_SEEDS, WORKLOADS

SEEDS = (0, 1)  # the benchmark seed and the held-out seed


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"self-test failed: {message}")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_declared_metrics(spec: dict) -> None:
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    require(declared == END_TO_END_UNITS, f"end_to_end {declared} != {END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(declared == PER_LAYER_UNITS, "per_layer names or units differ from tracer.py")
    require(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
            "workload names differ from workloads.py")


def check_workloads(spec: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[group]}
        for workload in WORKLOADS:
            for seed in SEEDS:
                proc = run_bench(ROOT, "--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", str(trace), "--size", "tiny")
                where = f"{workload} seed {seed} trace {trace}"
                require(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                require(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
                require(result["correct"] and result["failed"] == 0, f"{where}: {proc.stderr}")
                require(result["attempted"] >= 1, where)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                require(got == units, f"{where}: metrics {sorted(got)} != {sorted(units)}")
                for name, m in result["metrics"].items():
                    require(isinstance(m["value"], (int, float)), f"{where}: {name}")
                print(f"ok  {where}: 0 of {result['attempted']} checks failed")


def check_references_differ() -> None:
    """Each input seed must reach the library: no two seeds of a workload
    may have frozen the same CSV."""
    for size in ("tiny", "full"):
        for workload in WORKLOADS:
            texts = [(BENCH_DIR / "reference" / size / workload / f"seed{k}.csv").read_text()
                     for k in INPUT_SEEDS]
            require(len(set(texts)) == len(texts), f"{size}/{workload}: references repeat across seeds")
    print("ok  every input seed froze a different reference")


def check_reference_check() -> None:
    ref = (BENCH_DIR / "reference" / "tiny" / "spectrum" / "seed0.csv").read_text()
    lines = ref.splitlines()
    total, failed, _ = check_csv(ref, ref)
    require((total, failed) == (len(lines) - 1, 0), "the reference fails against itself")

    def edit(quantity: str, column: int, change) -> str:
        out = []
        for line in lines:
            cells = line.split(",")
            if cells[1] == quantity and cells[0] != "0.0":
                cells[column] = repr(change(float(cells[column])))
            out.append(",".join(cells))
        return "\n".join(out) + "\n"

    _, failed, _ = check_csv(edit("M2_exact", 2, lambda v: v * (1 + 1e-4)), ref)
    require(failed == 1, "a changed exact value went unnoticed")
    se = next(float(line.split(",")[2]) for line in lines
              if line.split(",")[1] == "A3_est_shot_se" and line.split(",")[0] != "0.0")
    _, failed, _ = check_csv(edit("A3_est", 2, lambda v: v + 2 * K_SE * se), ref)
    require(failed == 1, "an estimate far outside its shot error went unnoticed")
    _, failed, _ = check_csv(edit("A3_est", 2, lambda v: v + 0.5 * se), ref)
    require(failed == 0, "an estimate within its shot error was failed")
    _, failed, _ = check_csv("\n".join(lines[:-1]) + "\n", ref)
    require(failed == total, "a lost row did not fail every row")
    _, failed, _ = check_csv(ref.replace("A2_haar", "A2_haar_mc"), ref)
    require(failed == total, "a renamed quantity did not fail every row")
    print("ok  reference check catches changed values, drifted estimates and changed rows")


def check_refuses_without_library() -> None:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "noise", "--seed", "0", "--seconds", "1", "--trace", "0")
        require(proc.returncode != 0, "ran without the library")
        require('"correct"' not in proc.stdout, "printed a result without the library")
    print("ok  refuses to run without the library")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declared_metrics(spec)
    check_references_differ()
    check_reference_check()
    check_refuses_without_library()
    check_workloads(spec)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
