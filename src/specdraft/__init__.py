"""Cascade speculative drafting over a pluggable language-model interface,
with the matching expected-walltime analysis toolkit."""

__version__ = "0.1.0"
