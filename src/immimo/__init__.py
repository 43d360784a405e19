"""Index-modulation MIMO simulation and detection toolkit."""

__version__ = "0.1.0"
