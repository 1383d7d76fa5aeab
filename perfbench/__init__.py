"""Benchmark of opcalc: seeded, verified workloads with traced per-layer timings."""
