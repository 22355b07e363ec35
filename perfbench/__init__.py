"""The repository's benchmark: three seeded GraphSession workloads.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` is the
methods note.
"""
