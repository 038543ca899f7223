"""Repository benchmark: timed workloads plus per-layer attribution.

See ``perfbench/README.md`` for the workloads, the metrics and how to run
the timed and traced passes.
"""
