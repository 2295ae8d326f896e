# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
#       format_version: '1.3'
# ---

# %% [markdown]
# # Noise spectroscopy round trip
#
# The whole point of CPMG noise spectroscopy is that a measured
# dephasing time, together with the sequence's filter function, pins the
# noise density at the filter-peak frequency.  Here we close the loop on
# synthetic data where the answer is known:
#
# 1. pick a power-law spectrum S(f) = A/f^1.5 of qubit-frequency noise,
# 2. Monte-Carlo the CPMG decay for several pulse numbers,
# 3. fit each decay for T_phi,
# 4. reconstruct S at each filter peak and compare with the input.

# %%
import numpy as np

from qnl.ddfilter import PulseSequence
from qnl.decayfit import fit_cpmg
from qnl.fitutil import find_root
from qnl.mcsim import SyntheticNoise, dephasing_integral, simulate_sequence
from qnl.noisespec import powerlaw_fit, reconstruct_psd_point
from qnl.units import TWO_PI

# frequency noise lambda(t) in Hz -> phase sensitivity 2 pi rad/(Hz s)
SENS = TWO_PI
alpha = 1.5
band = {"f_min": 2.1e3, "f_max": 2.5e6}

# %% [markdown]
# ## Pick the noise amplitude
#
# Scale A so that the N=2 sequence dephases in about 15 us; the filter
# integral tells us the expected chi(tau) for any amplitude, so this is
# just a normalization.

# %%
def chi(amplitude, n_pulses, tau):
    seq = PulseSequence(n_pulses=n_pulses, tau=tau)
    return dephasing_integral({"amplitude": amplitude, "alpha": alpha,
                               **band}, seq, sensitivity=SENS)


amplitude = 1.0 / chi(1.0, 2, 15e-6)
print(f"A = {amplitude:.3e} Hz^2/Hz at 1 Hz")

# %% [markdown]
# ## Simulate, fit, reconstruct

# %%
points = []
print("  N   T_phi pred (us)   T_phi fit (us)   f_N (kHz)   S_rec/S_true")
for n_pulses in (2, 4, 8):
    t_pred = find_root(lambda tau: chi(amplitude, n_pulses, tau) - 1.0,
                       1e-6, 3e-4)
    taus = np.linspace(0.3, 2.0, 10) * t_pred
    seq = PulseSequence(n_pulses=n_pulses, tau=float(taus[-1]))
    spec = SyntheticNoise(amplitude=amplitude, alpha=alpha,
                          seed=40 + n_pulses, **band)
    trace = simulate_sequence(spec, seq, sensitivity=SENS, n_traj=800,
                              dt=0.3 * t_pred / (16 * n_pulses), taus=taus)
    fit = fit_cpmg(trace, t1=np.inf)

    point = reconstruct_psd_point(fit.t_phi,
                                  PulseSequence(n_pulses=n_pulses,
                                                tau=fit.t_phi))
    s_true = amplitude * point.freq**-alpha
    points.append((point.freq, point.value))
    print(f"{n_pulses:3d} {t_pred*1e6:15.2f} {fit.t_phi*1e6:15.2f} "
          f"{point.freq/1e3:12.1f} {point.value/s_true:13.2f}")

# %% [markdown]
# The narrow-band estimate carries a modest systematic excess (the
# filter lobe is not a perfect box, and the harmonics above the first
# peak also dephase the qubit), but each point lands well within a
# factor of two of the injected density.

# %%
law = powerlaw_fit(points)
print(f"reconstructed exponent: {law['exponent']:.2f} "
      f"+- {law['exponent_err']:.2f} (injected {alpha})")
print(f"reconstructed amplitude: {law['amplitude']:.2e} "
      f"(injected {amplitude:.2e})")
