# %%
# CPMG filter functions: where each sequence listens in frequency space.
#
# A free-evolution (Ramsey) experiment integrates noise all the way down
# to DC; adding pi pulses carves that response into a passband centered
# near N/(2 tau).  This script tabulates the passbands and writes a
# plot-ready CSV of g_N(2 pi f, tau) for a few N.

from pathlib import Path

import numpy as np

from qnl.ddfilter import PulseSequence, filter_value, first_harmonic_peak
from qnl.fileio import atomic_write_text, format_csv
from qnl.units import TWO_PI

tau = 40e-6
orders = [0, 1, 2, 4, 8, 16]

# %%
# passband table: peak position against the ideal-comb estimate N/(2 tau)

print(f"tau = {tau*1e6:.0f} us")
print("  N    f_peak (kHz)   N/(2 tau)   ratio   FWHM (kHz)")
for n in orders[1:]:
    seq = PulseSequence(n_pulses=n, tau=tau)
    peak = first_harmonic_peak(seq)
    comb = n / (2.0 * tau)
    print(f"{n:4d} {peak.f_peak/1e3:11.2f} {comb/1e3:11.2f} "
          f"{peak.f_peak/comb:7.4f} {peak.delta_omega/TWO_PI/1e3:9.2f}")

# the low-order peaks sit visibly above N/(2 tau); the comb picture only
# becomes exact in the large-N limit

# %%
# DC rejection: the echo kills what Ramsey integrates

f_slow = np.array([1.0, 10.0, 100.0, 1e3])
g0 = filter_value(PulseSequence(n_pulses=0, tau=tau), TWO_PI * f_slow)
g1 = filter_value(PulseSequence(n_pulses=1, tau=tau), TWO_PI * f_slow)
for f, a, b in zip(f_slow, g0, g1):
    print(f"f = {f:6.0f} Hz   g_ramsey = {a:.6f}   g_echo = {b:.3e}")

# %%
# plot-ready CSV: one frequency column, one column per sequence order

grid = np.geomspace(1e2, 5e6, 2000)
columns = {"freq_hz": grid}
for n in orders:
    seq = PulseSequence(n_pulses=n, tau=tau)
    columns[f"g_n{n}"] = filter_value(seq, TWO_PI * grid)

out = Path(__file__).parent / "out"
atomic_write_text(out / "filter_functions.csv", format_csv(columns))
print(f"\nwrote {out / 'filter_functions.csv'}")

# %%
# finite pulse width shifts the odd-N filters slightly; compare an ideal
# echo with one whose pi pulse lasts 2% of the total evolution

ideal = first_harmonic_peak(PulseSequence(n_pulses=1, tau=tau))
wide = first_harmonic_peak(PulseSequence(n_pulses=1, tau=tau,
                                         tau_pi=0.02 * tau))
print(f"echo peak, ideal pulse: {ideal.f_peak/1e3:.3f} kHz")
print(f"echo peak, 2% pulse:    {wide.f_peak/1e3:.3f} kHz")
