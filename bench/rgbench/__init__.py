"""Benchmark harness for rgdwpf: workloads, oracles, statistics and tracing."""
