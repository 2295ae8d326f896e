"""Frequency-unit conventions used across the package.

Plain frequencies are stored in Hz.  Rates that enter Lorentzian/exponential
expressions directly (kappa, gamma, g, chi) are stored in rad/s.  Convert at
the boundary with TWO_PI: omega = TWO_PI * f and f = omega / TWO_PI.
"""

import math

TWO_PI = 2.0 * math.pi
