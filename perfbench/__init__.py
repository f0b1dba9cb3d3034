"""Benchmark harness for gjms6: run it with ``python3 perfbench/run.py``.

See ``perfbench/README.md`` for the workloads, the metrics and how times are
normalized by the reference kernel.
"""
