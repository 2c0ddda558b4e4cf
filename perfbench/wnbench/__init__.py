"""Benchmark of the why-not engine, measured from outside the program."""
