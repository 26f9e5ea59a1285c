"""Benchmark of the KG ingest jobs; see README.md. Run ``python3 kgbench/run.py``."""
