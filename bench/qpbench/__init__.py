"""Workloads, tracing and the timed loop behind bench/run.py."""
