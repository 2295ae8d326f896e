# Temperature budget for a charge qubit read out through a resonator.
#
# Three thermal effects matter as the fridge warms: stimulated emission
# shortens T1 by tanh(hf/2kT), the equilibrium excited-state population
# climbs toward 1/2, and thermal photons in the readout mode dephase the
# qubit through the dispersive shift.  Tabulate all three and write the
# model curves next to this script.

from pathlib import Path

import numpy as np

from qnl.fileio import atomic_write_text, format_csv
from qnl.pipeline import thermal_curves
from qnl.thermal import ThermalModel, electron_temperature
from qnl.units import TWO_PI

model = ThermalModel(f_q=5.065e9, f_r=5.668e9, kappa=TWO_PI * 0.38e6,
                     chi=-TWO_PI * 0.06e6, t1_zero=11.6e-6)

temps = np.linspace(0.02, 0.40, 20)
curves = thermal_curves(model, temps)   # temp_k, t1_s, pe, n_th, gamma_phi

print("T (mK)   T1 (us)    p_e       n_th      Gamma_phi (1/s)")
for row in zip(*curves.values()):
    print(f"{row[0]*1e3:6.0f} {row[1]*1e6:9.2f} {row[2]:9.5f} "
          f"{row[3]:9.5f} {row[4]:12.3f}")

out = Path(__file__).parent / "out"
atomic_write_text(out / "thermal_model.csv", format_csv(curves))
print(f"\nwrote {out / 'thermal_model.csv'}")

# reading a temperature off a measured residual population
p_measured = 0.02
print(f"\na residual excited population of {p_measured} implies an "
      f"electron temperature of "
      f"{electron_temperature(p_measured, model.f_q)*1e3:.0f} mK")

# half-T1 point: where stimulated emission has doubled the decay rate
t1 = np.array(curves["t1_s"])
half = temps[np.argmin(np.abs(t1 / model.t1_zero - 0.5))]
print(f"T1 falls to half its base value near {half*1e3:.0f} mK")
