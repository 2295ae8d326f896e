"""Cavity-qubit spectroscopy walkthrough on synthetic data.

Generates the two standard datasets -- a two-tone map of qubit frequency
versus gate voltage, and a transmission trace through the avoided
crossing -- fits both, and derives the operating numbers that matter for
noise work: the sweet spot, the lever arm at the bias point, and the
Purcell limit at the detuned operating point.
"""

import numpy as np

from qnl.spectro import (CavityQubitParams, QubitDispersion,
                         dressed_frequencies, fit_dispersion,
                         fit_transmission, lever_arm, purcell_rate,
                         qubit_frequency, transmission)
from qnl.units import TWO_PI

rng = np.random.default_rng(3)

# ---------------------------------------------------------------- two-tone

truth = QubitDispersion(f_ss=5.065e9, lever_c=2.348e12, v_ss=0.0)
volts = np.linspace(-2e-3, 2e-3, 17)
freqs = qubit_frequency(truth, volts - truth.v_ss)
freqs = freqs * (1.0 + 2e-4 * rng.standard_normal(freqs.size))

fit = fit_dispersion(list(zip(volts, freqs)))
disp = QubitDispersion(f_ss=fit["f_ss"], lever_c=fit["lever_c"],
                       v_ss=fit["v_ss"])
print("hyperbolic dispersion fit")
print(f"  f_ss    = {disp.f_ss/1e9:.4f} GHz  (true {truth.f_ss/1e9:.4f})")
print(f"  lever_c = {disp.lever_c/1e12:.3f} GHz/mV "
      f"(true {truth.lever_c/1e12:.3f})")
print(f"  v_ss    = {disp.v_ss*1e3:+.4f} mV")

# the lever arm vanishes at the sweet spot and grows with bias; report it
# where the qubit is pulled ~16 MHz above the minimum
dv = np.sqrt((truth.f_ss + 15.9e6) ** 2 - truth.f_ss**2) / truth.lever_c
print(f"  lever arm at dv = {dv*1e3:.3f} mV: "
      f"{lever_arm(disp, dv)/1e9:.1f} MHz/mV")

# ------------------------------------------------------- avoided crossing

cavity = CavityQubitParams(f_r=5.668e9, kappa=TWO_PI * 0.38e6,
                           f_q=5.668e9, gamma=TWO_PI * 3.18e6,
                           g=TWO_PI * 6.43e6)
probe = np.linspace(5.653e9, 5.683e9, 221)
amps = np.abs(transmission(cavity, probe))
amps = amps + 0.005 * rng.standard_normal(amps.size)

result = fit_transmission(list(zip(probe, amps)),
                          {"f_r": cavity.f_r, "kappa": cavity.kappa})
print("\nvacuum Rabi splitting fit (qubit tuned onto the resonator)")
print(f"  g/2pi     = {result['g']/TWO_PI/1e6:.2f} MHz "
      f"(true {cavity.g/TWO_PI/1e6:.2f})")
print(f"  gamma/2pi = {result['gamma']/TWO_PI/1e6:.2f} MHz "
      f"(true {cavity.gamma/TWO_PI/1e6:.2f})")
print(f"  f_q       = {result['f_q']/1e9:.4f} GHz")
# on resonance the dressed peaks lie 2g/2pi apart
f_plus, f_minus = dressed_frequencies(cavity)
print(f"  splitting = {2*result['g']/TWO_PI/1e6:.2f} MHz "
      f"(true {(f_plus - f_minus)/1e6:.2f}: dressed peaks at "
      f"{f_minus/1e9:.5f} and {f_plus/1e9:.5f} GHz)")

# ----------------------------------------------------------- Purcell limit

# at the operating point the qubit sits ~600 MHz below the resonator, so
# radiative decay through the cavity is strongly suppressed
operating = CavityQubitParams(f_r=5.668e9, kappa=TWO_PI * 0.38e6,
                              f_q=5.065e9, gamma=TWO_PI * 3.18e6,
                              g=result["g"])
rate = purcell_rate(operating)
print(f"\nPurcell limit at {abs(operating.f_r-operating.f_q)/1e6:.0f} MHz "
      f"detuning: 1/Gamma = {1e3/rate:.1f} ms")
