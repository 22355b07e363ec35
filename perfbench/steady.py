"""Steadiness self-check: is every end-to-end metric steady within its bound?

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --runs 5 --workload serve-fresh
    python3 perfbench/steady.py --runs 10 --sets 2        # also compare set medians

Runs each workload ``--runs`` times through ``perfbench/run.py``, each
run with another seed, and prints for every end-to-end metric of
``BENCHMARK.json`` the median, the quartiles (``statistics.quantiles``,
n=4) and the spread ``(q3 - q1) / median``.  A spread above the
metric's bound is flagged ``OVER``; above a third of it, ``high``.
With ``--sets 2`` the runs are made twice with the same seeds and the
second set's median may not be worse than the first's by more than the
bound.  Raw results go to ``perfbench/.out/steady.json``.  Exits 1 when
a flag is ``OVER``, a median drifted past its bound, or a run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=200)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Steadiness self-check.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or names
    seeds = [args.first_seed + i for i in range(args.runs)]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for index in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                result = run_once(workload, seed, args.seconds)
                results[workload][index].append(result)
                print(f"set {index + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    out = ROOT / "perfbench" / ".out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    bad = False
    for workload in workloads:
        print(f"\n{workload}: {args.runs} runs per set, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  flag")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for index, runs in enumerate(results[workload]):
                values = [run["metrics"][name]["value"] for run in runs]
                mid, q1, q3, share = spread(values)
                medians.append(mid)
                flag = "OVER" if share > bound else "high" if share > bound / 3 else "ok"
                bad |= flag == "OVER"
                print(f"  {name:<16} {index + 1:>3} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{share:>8.4f} {bound:>6}  {flag}")
            if len(medians) == 2:
                drift = worse_by(medians[0], medians[1], metric["better"])
                verdict = "OVER" if drift > bound else "ok"
                bad |= verdict == "OVER"
                print(f"  {name:<16} second set worse by {drift:+.4f} (bound {bound})  {verdict}")
        failed = sum(run["failed"] for runs in results[workload] for run in runs)
        incorrect = sum(not run["correct"] for runs in results[workload] for run in runs)
        print(f"  failed operations {failed}, incorrect runs {incorrect}")
        bad |= bool(failed or incorrect)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
