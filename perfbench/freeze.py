"""Write the reference CSVs the benchmark checks sweeps against.

    python3 perfbench/freeze.py [--size full|tiny] [--workload NAME]

Run from the repository root, only on the commit whose outputs define
correct (the references are part of the benchmark, not regenerated per
change). Each CSV is the CLI's own output for the workload's config at one
input seed, written to reference/<size>/<workload>/seed<k>.csv.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, SRC
from workloads import INPUT_SEEDS, WORKLOADS, make_config


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--size", choices=("full", "tiny"), action="append")
    p.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import magic_meter.cli as cli

    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        config_path = Path(tmp) / "config.json"
        for size in args.size or ("tiny", "full"):
            for name in args.workload or sorted(WORKLOADS):
                target = BENCH_DIR / "reference" / size / name
                target.mkdir(parents=True, exist_ok=True)
                for seed in INPUT_SEEDS:
                    config_path.write_text(json.dumps(make_config(name, size, seed)))
                    out = target / f"seed{seed}.csv"
                    with contextlib.redirect_stdout(sys.stderr):
                        code = cli.main(["experiment", "--config", str(config_path),
                                         "--seed", str(seed), "--output", str(out)])
                    if code != 0:
                        raise SystemExit(f"{size}/{name}/seed{seed}: cli exit code {code}")
                    print(f"wrote {out.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
