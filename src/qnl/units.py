"""Frequency-unit conventions used across the package.

Plain frequencies are stored in Hz.  Rates that enter Lorentzian/exponential
expressions directly (kappa, gamma, g, chi) are stored in rad/s.  Convert at
the boundary with TWO_PI: omega = TWO_PI * f and f = omega / TWO_PI.
"""

import math

TWO_PI = 2.0 * math.pi

# exact SI values, bit for bit those of scipy.constants (h, k, hbar)
H = 6.62607015e-34          # Planck constant (J s)
K_B = 1.380649e-23          # Boltzmann constant (J/K)
HBAR = H / TWO_PI
