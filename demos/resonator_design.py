# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
#       format_version: '1.3'
# ---

# %% [markdown]
# # High-impedance kinetic-inductance resonator design
#
# Working through the lumped-element numbers for a thin-film NbTiN
# differential half-wave resonator: sheet kinetic inductance from the
# film's normal-state sheet resistance and T_c, then the equivalent
# series L, C and characteristic impedance of the mode, and finally how
# strongly such a mode couples to a charge compared with an ordinary
# 50-ohm-class coplanar resonator.

# %%
from qnl.resonator import (FilmParams, coupling_ratio, kinetic_inductance,
                           lumped_model)

# %% [markdown]
# ## Sheet kinetic inductance
#
# The film is characterized just above its transition: R_square is the
# normal-state sheet resistance, and the superconducting gap follows
# from T_c in the weak-coupling limit.

# %%
film = FilmParams(t_c=3.8, r_square=64.42)
l_k = kinetic_inductance(film)
print(f"L_k = {l_k * 1e12:.1f} pH/square")

# %%
# sensitivity to film quality: L_k is linear in R_square
for r_sq in (30.0, 64.42, 120.0):
    lk = kinetic_inductance(FilmParams(t_c=3.8, r_square=r_sq))
    print(f"  R_square = {r_sq:6.2f} ohm  ->  L_k = {lk*1e12:5.1f} pH/sq")

# %% [markdown]
# ## Lumped model of the differential mode
#
# A narrow strip concentrates the inductance: the mode frequency is set
# by the strip length, and C follows from the resonance condition.

# %%
width = 0.3e-6
length = 1061e-6
mode = lumped_model(l_k, width=width, length=length, f_diff=5.6681e9)
print(f"strip {width*1e6:.1f} um x {length*1e6:.0f} um at "
      f"{mode.f_diff/1e9:.4f} GHz")
print(f"  L_diff = {mode.l_diff*1e9:.2f} nH")
print(f"  C_diff = {mode.c_diff*1e15:.1f} fF")
print(f"  Z_diff = {mode.z_diff:.1f} ohm")

# %%
# halving the width doubles L per length and hence Z at fixed frequency
narrow = lumped_model(l_k, width=width / 2, length=length,
                      f_diff=mode.f_diff)
print(f"half width: Z = {narrow.z_diff:.1f} ohm "
      f"(x{narrow.z_diff / mode.z_diff:.2f})")

# %% [markdown]
# ## Why impedance matters for charge coupling
#
# At fixed coupler geometry the coupling strength scales with the
# zero-point voltage, i.e. with f*sqrt(Z).  Compare against a standard
# coplanar mode at 57.3 ohm.

# %%
ratio = coupling_ratio(mode.z_diff, mode.f_diff, 57.3, 6.42e9)
print(f"coupling ratio vs 57.3-ohm CPW mode: {ratio:.2f}")

# %%
# scan: what impedance would a few strip widths buy?
print("width (um)   Z (ohm)   coupling gain")
for w in (0.15e-6, 0.3e-6, 0.6e-6, 1.2e-6):
    m = lumped_model(l_k, width=w, length=length, f_diff=5.6681e9)
    r = coupling_ratio(m.z_diff, m.f_diff, 57.3, 6.42e9)
    print(f"  {w*1e6:8.2f}   {m.z_diff:7.1f}   {r:6.2f}")
