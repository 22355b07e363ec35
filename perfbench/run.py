"""The benchmark's command: run one workload (or all) in fresh processes.

    python3 perfbench/run.py --workload serve-fresh --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from any directory; the checkout is the parent of ``perfbench/``.
Each workload runs in its own process (``perfbench/worker.py``) with
BLAS/OpenMP pools pinned to one thread before numpy loads, the import
path set to this checkout's ``src`` only, and the kernel, trace and
sanitizer switches of ``repro`` cleared so both sides of a comparison
run the defaults.  This launcher imports nothing heavy itself.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest-dense", "serve-fresh", "sparse-grow")

#: Thread-pool variables pinned to 1 in the worker's environment.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: ``repro`` switches read at import; unset so every run uses the defaults.
CLEARED_VARS = ("REPRO_KERNEL", "REPRO_TRACE", "REPRO_TRACE_FILE", "REPRO_SANITIZE", "PYTHONPATH")

#: A worker still running after this many seconds is killed.
WORKER_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_VARS}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(ROOT / "perfbench" / ".out")
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the GraphSession benchmark.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/repro/__init__.py", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a checkout of this repository: {', '.join(missing)} missing under {ROOT}",
              file=sys.stderr)
        return 2
    (ROOT / "perfbench" / ".out").mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [sys.executable, "-m", "perfbench.worker", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        try:
            code = subprocess.run(command, cwd=ROOT, env=worker_env(),
                                  timeout=WORKER_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s and was killed", file=sys.stderr)
            return 3
        if code:
            print(f"{name}: worker exited with {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
