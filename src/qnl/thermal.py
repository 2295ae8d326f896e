"""Temperature-dependent decoherence models for a dispersively read qubit.

Single-phonon relaxation versus temperature, two-level thermal population
and the effective electron temperature inferred from it, resonator photon
occupation, and dephasing from thermal photons in a dispersively coupled
resonator.  Physical constants are the exact SI values of qnl.units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .units import H, K_B


@dataclass(frozen=True)
class ThermalModel:
    """Qubit-resonator parameters entering the thermal models.

    f_q     : qubit transition frequency (Hz)
    f_r     : readout resonator frequency (Hz)
    kappa   : resonator linewidth (rad/s)
    chi     : dispersive shift per qubit state (rad/s); the full pull
              between qubit states is 2*chi
    t1_zero : zero-temperature relaxation time T1(0) (s)
    """

    f_q: float
    f_r: float
    kappa: float
    chi: float
    t1_zero: float

    def __post_init__(self):
        if self.f_q <= 0 or self.f_r <= 0:
            raise ValueError("frequencies must be positive")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.t1_zero <= 0:
            raise ValueError("t1_zero must be positive")


def _boltzmann_exponent(f: float, temperature) -> np.ndarray:
    """h*f/(k_B*T) elementwise, with T = 0 mapping to +inf."""
    temperature = np.asarray(temperature, dtype=float)
    if np.any(temperature < 0):
        raise ValueError("temperature must be non-negative")
    x = np.full_like(temperature, np.inf)
    np.divide(H * f, K_B * temperature, out=x, where=temperature > 0)
    return x


def t1_vs_temperature(model: ThermalModel, temperature):
    """T1(T) for single-phonon coupling to a bosonic thermal bath.

    Stimulated emission and absorption shorten T1 as
    T1(T) = T1(0) * tanh(h f_q / (2 k_B T)).  Accepts scalar or array
    temperatures in K; T = 0 returns T1(0).
    """
    x = _boltzmann_exponent(model.f_q, temperature)
    result = model.t1_zero * np.tanh(0.5 * x)
    return float(result) if result.ndim == 0 else result


def thermal_population(f_q: float, temperature):
    """Equilibrium excited-state population of a two-level system.

    p_e = 1 / (1 + exp(h f_q / (k_B T))); T = 0 returns 0, and the
    high-temperature limit is 1/2.  Evaluated as e^-x / (1 + e^-x), which
    cannot overflow.
    """
    decay = np.exp(-_boltzmann_exponent(f_q, temperature))
    result = decay / (1.0 + decay)
    return float(result) if result.ndim == 0 else result


def electron_temperature(p_e: float, f_q: float) -> float:
    """Effective temperature (K) implied by a measured excited population.

    Exact inverse of thermal_population:
    T = h f_q / (k_B * ln(1/p_e - 1)).  Requires 0 < p_e < 0.5.
    """
    if not 0.0 < p_e < 0.5:
        raise ValueError("p_e must lie in (0, 0.5) for a positive "
                         "two-level temperature")
    return H * f_q / (K_B * np.log(1.0 / p_e - 1.0))


def photon_occupation(f_r: float, temperature):
    """Bose-Einstein mean photon number of the resonator mode.

    n_th = 1 / (exp(h f_r / (k_B T)) - 1); T = 0 returns 0.  Evaluated
    as e^-x / (1 - e^-x), which cannot overflow.
    """
    x = _boltzmann_exponent(f_r, temperature)
    result = np.exp(-x) / -np.expm1(-x)
    return float(result) if result.ndim == 0 else result


def resonator_dephasing(model: ThermalModel, n_th):
    """Qubit dephasing rate (1/s) from thermal photons in the resonator.

    Photon-number fluctuations in the dispersively coupled resonator give

        Gamma_phi = (kappa/2) * Re[ sqrt( (1 + 2i chi/kappa)**2
                                          + 8i chi n_th / kappa ) - 1 ]

    with the principal square-root branch, the only branch that vanishes
    at n_th = 0.  The rate is even in chi and has no fitted constants.
    """
    n_th = np.asarray(n_th, dtype=float)
    if np.any(n_th < 0):
        raise ValueError("n_th must be non-negative")
    ratio = 2.0 * model.chi / model.kappa
    inner = (1.0 + 1j * ratio) ** 2 + 4j * ratio * n_th
    result = 0.5 * model.kappa * (np.sqrt(inner).real - 1.0)
    return float(result) if result.ndim == 0 else result
