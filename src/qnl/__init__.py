"""Noise-spectroscopy toolkit for electron-on-neon charge qubits.

Measurement-analysis chain: cavity-qubit spectroscopy models and fits,
CPMG filter functions, coherence-decay fitting, noise-PSD reconstruction,
temperature-dependent decoherence models, kinetic-inductance resonator
calculations, and a Monte Carlo dephasing simulator that serves as the
internal ground truth.
"""

from .units import TWO_PI, hz_to_omega, omega_to_hz
from .fitutil import FitError
from .spectro import (
    CavityQubitParams,
    QubitDispersion,
    dressed_frequencies,
    fit_dispersion,
    fit_transmission,
    lever_arm,
    purcell_rate,
    qubit_frequency,
    transmission,
)
from .ddfilter import (
    FilterPeak,
    PulseSequence,
    filter_value,
    first_harmonic_peak,
    pulse_times,
)
from .decayfit import (
    CoherenceFit,
    DecayTrace,
    ScalingError,
    ScalingFit,
    fit_cpmg,
    fit_ramsey,
    fit_relaxation,
    fit_scaling,
    t2_from_dephasing,
)
from .noisespec import (
    FREQ_NOISE,
    VOLTAGE_NOISE,
    FrequencySeries,
    PSDPoint,
    periodogram,
    powerlaw_fit,
    reconstruct_psd_point,
    to_voltage_noise,
    transverse_noise,
)
from .thermal import (
    ThermalModel,
    electron_temperature,
    photon_occupation,
    resonator_dephasing,
    t1_vs_temperature,
    thermal_population,
)
from .resonator import (
    FilmParams,
    LumpedModel,
    coupling_ratio,
    kinetic_inductance,
    lumped_model,
)
from .mcsim import (
    SyntheticNoise,
    Trajectory,
    band_variance,
    dephasing_integral,
    simulate_sequence,
    synthesize_noise,
)

__version__ = "0.2.0"
