"""Noise-spectroscopy toolkit for electron-on-neon charge qubits.

Measurement-analysis chain: cavity-qubit spectroscopy models and fits,
CPMG filter functions, coherence-decay fitting, noise-PSD reconstruction,
temperature-dependent decoherence models, kinetic-inductance resonator
calculations, and a Monte Carlo dephasing simulator that serves as the
internal ground truth.
"""

__version__ = "0.4.0"
