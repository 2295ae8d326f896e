"""Coherence-decay fitting, end to end on synthetic traces.

Relaxation fixes T1; Ramsey gives T2* and the residual detuning; CPMG
decays at fixed T1 give the pure-dephasing time T_phi and the stretch
exponent; and the scaling of T_phi with pulse number yields the
power-law exponent of the underlying noise, beta -> alpha = beta/(1-beta).
"""

import numpy as np

from qnl.decayfit import (DecayTrace, fit_cpmg, fit_ramsey, fit_relaxation,
                          fit_scaling, t2_from_dephasing)

rng = np.random.default_rng(12)


def noisy(y, sigma=0.008):
    return y + sigma * rng.standard_normal(y.size)


# relaxation --------------------------------------------------------------

t1_true = 11.6e-6
t = np.linspace(0.4e-6, 60e-6, 40)
trace = DecayTrace(times=t,
                   populations=noisy(0.02 + 0.9 * np.exp(-t / t1_true)),
                   kind="relaxation")
relax = fit_relaxation(trace)
print(f"T1 = {relax.t1*1e6:.2f} +- {relax.errors['t1']*1e6:.2f} us "
      f"(true {t1_true*1e6:.1f})")

# Ramsey ------------------------------------------------------------------

t2s_true, detuning = 8.2e-6, 0.5e6
t = np.linspace(0.2e-6, 30e-6, 150)
fringes = 0.5 + 0.45 * np.exp(-t / t2s_true) * np.cos(
    2 * np.pi * detuning * t + 0.2)
ramsey = fit_ramsey(DecayTrace(times=t, populations=noisy(fringes),
                               kind="ramsey"))
print(f"T2* = {ramsey.t2*1e6:.2f} us (true {t2s_true*1e6:.1f}), "
      f"detuning = {ramsey.detuning/1e6:.3f} MHz (true {detuning/1e6:.1f})")

# CPMG versus pulse number ------------------------------------------------

# dephasing times that follow T_phi ~ N^0.61, i.e. 1/f^1.56 noise
beta_true = 0.61
t1_fixed = relax.t1
print("\n  N   T_phi (us)   stretch   T2 (us)")
scaling_points = []
for n_pulses in (1, 2, 4, 8):
    t_phi_n = 4e-6 * n_pulses**beta_true
    span = 3.0 * t_phi_n
    t = np.linspace(span / 40, span, 40)
    curve = 0.03 + 0.9 * np.exp(-t / (2 * t1_fixed)) \
        * np.exp(-(t / t_phi_n) ** 2.0)
    kind = "echo" if n_pulses == 1 else "cpmg"
    fit = fit_cpmg(DecayTrace(times=t, populations=noisy(curve), kind=kind,
                              n_pulses=n_pulses), t1=t1_fixed)
    scaling_points.append((n_pulses, fit.t_phi))
    print(f"{n_pulses:3d} {fit.t_phi*1e6:10.2f} {fit.stretch:9.2f} "
          f"{fit.t2*1e6:9.2f}")

scaling = fit_scaling(scaling_points)
print(f"\nT_phi ~ N^beta: beta = {scaling['beta']:.3f} +- "
      f"{scaling['beta_err']:.3f} (true {beta_true})")
print(f"implied noise exponent alpha = {scaling['alpha']:.2f} "
      f"(true {beta_true/(1-beta_true):.2f})")

# sanity: the 1/e identity tau/2T1 + (tau/T_phi)^s = 1 at tau = T2
n, t_phi = scaling_points[-1]
t2 = t2_from_dephasing(t1_fixed, t_phi, 2.0)
balance = t2 / (2 * t1_fixed) + (t2 / t_phi) ** 2.0
print(f"\n1/e balance at N={n}: {balance:.12f}")
