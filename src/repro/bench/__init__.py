"""Benchmark harness and paper-style reporting."""
