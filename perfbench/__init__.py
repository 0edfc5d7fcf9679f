"""Benchmark harness of the RobustScaler reproduction; see ``perfbench/README.md``."""
