"""Benchmark of the geo/corpus engine; run ``perfbench/run.py``."""
