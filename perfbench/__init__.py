"""perfbench: the repository's benchmark, measuring every layer from outside.

Two families of numbers, never mixed: *host* metrics say how fast the
simulator runs on this machine, *simulated* metrics say what the modelled
bufferpool and SSD did and must not move when only host speed changes.
See README.md for the workloads, the metric -> layer -> workload map and
what cannot be seen from outside ``src/``.
"""
