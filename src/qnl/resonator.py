"""Lumped-element estimates for kinetic-inductance microwave resonators.

Covers the chain from superconducting film properties to a differential
half-wave mode: sheet kinetic inductance from the normal-state sheet
resistance and T_c, the equivalent lumped L and C of the differential mode,
its characteristic impedance, and the voltage-coupling ratio between two
modes at fixed coupler geometry.  Geometric and mutual inductance are
neglected; for high-resistivity films the kinetic term dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .units import HBAR, K_B, TWO_PI

# BCS weak-coupling gap: Delta_0 = 1.76 k_B T_c
_GAP_COEFF = 1.76


@dataclass(frozen=True)
class FilmParams:
    """Superconducting film parameters.

    t_c      : critical temperature (K)
    r_square : normal-state sheet resistance just above T_c (ohm/square)
    """

    t_c: float
    r_square: float

    def __post_init__(self):
        if self.t_c <= 0 or self.r_square <= 0:
            raise ValueError("t_c and r_square must be positive")


@dataclass(frozen=True)
class LumpedModel:
    """Equivalent lumped series-LC model of a differential half-wave mode.

    l_diff       : lumped inductance (H)
    c_diff       : lumped capacitance (F)
    z_diff       : characteristic impedance sqrt(L/C) (ohm)
    f_diff       : resonance frequency (Hz)
    l_per_length : inductance per unit strip length (H/m)
    length       : strip length (m)
    width        : strip width (m)
    """

    l_diff: float
    c_diff: float
    z_diff: float
    f_diff: float
    l_per_length: float
    length: float
    width: float

    def __post_init__(self):
        for name in ("l_diff", "c_diff", "z_diff", "f_diff",
                     "l_per_length", "length", "width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        omega = TWO_PI * self.f_diff
        if abs(omega**2 * self.l_diff * self.c_diff - 1.0) > 1e-9:
            raise ValueError("inconsistent lumped model: omega^2*L*C != 1")


def kinetic_inductance(film: FilmParams) -> float:
    """Kinetic sheet inductance L_k (H/square) in the dirty local limit.

    L_k = hbar * R_square / (pi * Delta_0) with Delta_0 = 1.76 k_B T_c.
    Linear in R_square and inversely proportional to T_c.
    """
    delta0 = _GAP_COEFF * K_B * film.t_c
    return HBAR * film.r_square / (np.pi * delta0)


def lumped_model(l_k: float, width: float, length: float,
                 f_diff: float) -> LumpedModel:
    """Map a kinetic sheet inductance onto the lumped differential mode.

    L_l = L_k / width is the inductance per unit length, the half-wave
    differential mode has L_diff = 2 L_l length / pi^2, and C_diff is fixed
    by the resonance condition omega^2 L C = 1.
    """
    if min(l_k, width, length, f_diff) <= 0:
        raise ValueError("l_k, width, length, f_diff must all be positive")
    l_per_length = l_k / width
    l_diff = 2.0 * l_per_length * length / np.pi**2
    omega = TWO_PI * f_diff
    c_diff = 1.0 / (omega**2 * l_diff)
    z_diff = float(np.sqrt(l_diff / c_diff))
    return LumpedModel(l_diff=l_diff, c_diff=c_diff, z_diff=z_diff,
                       f_diff=f_diff, l_per_length=l_per_length,
                       length=length, width=width)


def coupling_ratio(z_a: float, f_a: float, z_b: float, f_b: float) -> float:
    """Coupling-strength ratio of mode a relative to mode b.

    For a fixed coupler geometry the coupling scales with the zero-point
    voltage, g ~ f * sqrt(Z), so the ratio is (f_a sqrt(z_a)) / (f_b sqrt(z_b)).
    """
    if min(z_a, f_a, z_b, f_b) <= 0:
        raise ValueError("impedances and frequencies must be positive")
    return (f_a * np.sqrt(z_a)) / (f_b * np.sqrt(z_b))
