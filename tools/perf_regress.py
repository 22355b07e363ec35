#!/usr/bin/env python
"""Fail the build when a measured engine rate regresses past tolerance.

Each performance bench writes its measured throughputs to
``benchmarks/results/BENCH_<name>.json``; this tool compares every fresh
measurement against its committed conservative baseline under
``benchmarks/baselines/`` and exits nonzero when any rate falls more
than ``TOLERANCE`` below its floor — a machine-readable perf gate.  The
gated suites are *derived* from the committed baselines (see
:func:`tools._repo.bench_suites`): committing a new
``benchmarks/baselines/BENCH_<name>.json`` automatically gates
``make bench-<name>``.

The committed baselines are deliberately set well *below* the reference
container's measured rates (about half), so the gate trips on genuine
order-of-magnitude regressions — a vectorized path silently falling back
to scalar loops, a lazy engine accidentally walking its universe —
rather than on scheduler noise or modest hardware differences.
Regenerate them with ``--update-baseline`` after an intentional
performance change (and commit the result).

Exit codes (distinct so CI and scripts can tell the failure modes
apart):

* ``0`` — every fresh rate is within tolerance of its floor;
* ``1`` — at least one rate **regressed** past tolerance;
* ``2`` — usage error or a measurement file that is not valid JSON;
* ``3`` — a measurement or baseline file is **missing** (run the bench
  target first — nothing regressed, nothing was compared).

Usage::

    python tools/perf_regress.py                    # compare all, exit 1 on regression
    python tools/perf_regress.py columnar           # compare one suite
    python tools/perf_regress.py --update-baseline  # rewrite baselines at 50%
                                                    # of the fresh rates
"""

from __future__ import annotations

import json
import pathlib
import sys

if __package__ in (None, ""):  # run as a script: put the repo root on sys.path
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from tools import _repo

#: A fresh rate may fall at most this fraction below its baseline.
TOLERANCE = 0.20

#: ``--update-baseline`` records this fraction of the fresh rates.
BASELINE_FRACTION = 0.50

#: Rate tables a measurement may carry (every rate higher-is-better),
#: each with the unit its lines print in.  A baseline gates the tables
#: it holds.
RATE_TABLES = {
    "updates_per_second": "up/s",
    "checkpoint_bytes_per_second": "B/s",
}

#: Exit codes (see the module docstring).
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_INVALID = 2
EXIT_MISSING = 3


class _Missing(Exception):
    """A measurement/baseline file does not exist."""


class _Invalid(Exception):
    """A measurement/baseline file is not valid JSON."""


def load(path: pathlib.Path, target: str) -> dict:
    """Parse one measurement file, raising a typed, pointed error."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise _Missing(
            f"perf_regress: {path} is missing — run "
            f"`{target}` (or commit the baseline) first"
        ) from None
    except ValueError as error:
        raise _Invalid(f"perf_regress: {path} is not valid JSON: {error}") from None


def update_baseline(suite: _repo.BenchSuite) -> None:
    """Rewrite one suite's committed floors from its fresh measurement."""
    fresh = load(suite.results_path, suite.target)
    baseline = {
        "note": (
            f"Conservative {suite.name}-engine throughput floors: "
            f"{BASELINE_FRACTION:.0%} of a reference-container run of "
            f"`{suite.target}`.  Compared by tools/perf_regress.py with "
            f"{TOLERANCE:.0%} tolerance; regenerate with "
            "`python tools/perf_regress.py --update-baseline`."
        ),
    }
    for table in RATE_TABLES:
        if table in fresh:
            baseline[table] = {
                name: round(rate * BASELINE_FRACTION, 1)
                for name, rate in fresh[table].items()
            }
    for key in ("stream_updates", "batch_size", "universe", "phase_seconds"):
        if key in fresh:
            baseline[key] = fresh[key]
    suite.baseline_path.parent.mkdir(exist_ok=True)
    suite.baseline_path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n"
    )
    print(f"perf_regress: {suite.name} baseline rewritten at {suite.baseline_path}")


def compare(suite: _repo.BenchSuite) -> list[str]:
    """Compare one suite's fresh rates against its floors; return failures."""
    fresh_tables = load(suite.results_path, suite.target)
    baseline_tables = load(suite.baseline_path, suite.target)
    failures: list[str] = []
    print(
        f"perf_regress[{suite.name}]: fresh rates vs committed floors "
        f"({TOLERANCE:.0%} tolerance)"
    )
    for table, unit in RATE_TABLES.items():
        if table not in baseline_tables:
            continue
        fresh = fresh_tables.get(table, {})
        baseline = baseline_tables[table]
        width = max(len(name) for name in baseline)
        for name, floor in sorted(baseline.items()):
            rate = fresh.get(name)
            if rate is None:
                failures.append(
                    f"{suite.name}/{name}: missing from the fresh measurement"
                )
                continue
            allowed = floor * (1.0 - TOLERANCE)
            verdict = "ok" if rate >= allowed else "REGRESSION"
            print(
                f"  {name:<{width}} {rate:>12,.0f} {unit}  "
                f"(floor {floor:>12,.0f}, min {allowed:>12,.0f})  {verdict}"
            )
            if rate < allowed:
                failures.append(
                    f"{suite.name}/{name}: {rate:,.0f} {unit} is more than "
                    f"{TOLERANCE:.0%} below the baseline floor {floor:,.0f}"
                )
        for name in sorted(set(fresh) - set(baseline)):
            print(f"  {name:<{width}} {fresh[name]:>12,.0f} {unit}  (no baseline yet)")
    return failures


def main(argv: list[str]) -> int:
    """CLI entry: compare (default) or ``--update-baseline``; an optional
    suite name restricts the run to one bench.  Returns one of the
    ``EXIT_*`` codes documented in the module docstring."""
    all_suites = _repo.bench_suites()
    update = "--update-baseline" in argv
    names = [arg for arg in argv if not arg.startswith("--")]
    unknown = [name for name in names if name not in all_suites]
    if unknown:
        print(
            f"perf_regress: unknown suite(s) {unknown}; "
            f"choose from {sorted(all_suites)}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    suites = [all_suites[name] for name in (names or sorted(all_suites))]
    try:
        if update:
            for suite in suites:
                update_baseline(suite)
            return EXIT_OK
        failures: list[str] = []
        for suite in suites:
            failures.extend(compare(suite))
    except _Missing as error:
        print(error, file=sys.stderr)
        return EXIT_MISSING
    except _Invalid as error:
        print(error, file=sys.stderr)
        return EXIT_INVALID
    if failures:
        print("perf_regress: FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return EXIT_REGRESSION
    print("perf_regress: all rates within tolerance")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
