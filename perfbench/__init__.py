"""Benchmark and output checks for perckit; see README.md."""
