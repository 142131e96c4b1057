"""Benchmark for cliffdunkl: seeded workloads, oracle checks, layer tracing.

Run one workload with `python3 cdbench/run.py --workload NAME --seed N
--seconds S --trace 0|1` from the repository root; see cdbench/README.md.
"""
