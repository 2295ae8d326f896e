"""Invariant checks driven by generated inputs rather than pinned cases."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnl.ddfilter import PulseSequence, filter_value
from qnl.decayfit import fit_scaling, t2_from_dephasing
from qnl.mcsim import SyntheticNoise
from qnl.noisespec import (FrequencySeries, PSDPoint, periodogram,
                           reconstruct_psd_point)
from qnl.resonator import coupling_ratio
from qnl.spectro import QubitDispersion, lever_arm, qubit_frequency
from qnl.thermal import electron_temperature, thermal_population

finite = dict(allow_nan=False, allow_infinity=False)


@given(n=st.integers(0, 32),
       tau=st.floats(1e-7, 1e-3),
       omega=st.floats(-1e8, 1e8, **finite))
def test_filter_even_in_omega(n, tau, omega):
    seq = PulseSequence(n_pulses=n, tau=tau)
    assert filter_value(seq, omega) == filter_value(seq, -omega)


@given(n=st.integers(0, 16),
       tau_a=st.floats(1e-7, 1e-3),
       tau_b=st.floats(1e-7, 1e-3),
       x=st.floats(1e-6, 1e3))
def test_filter_depends_only_on_omega_tau_product(n, tau_a, tau_b, x):
    # with instantaneous pulses g_N(omega, tau) is a function of x = omega*tau
    g_a = filter_value(PulseSequence(n_pulses=n, tau=tau_a), x / tau_a)
    g_b = filter_value(PulseSequence(n_pulses=n, tau=tau_b), x / tau_b)
    # rounding floor: the linear-in-x parts of the sine sum cancel exactly,
    # so each evaluation carries an absolute error ~ eps * |y| = eps*sqrt(g)
    floor = 200.0 * (n + 2) * np.finfo(float).eps * np.sqrt(g_b + 1e-300)
    assert abs(g_a - g_b) <= 1e-9 * g_b + floor


@given(n=st.integers(0, 32),
       tau=st.floats(1e-7, 1e-3),
       omega=st.floats(0, 1e9, **finite))
def test_filter_non_negative_and_finite(n, tau, omega):
    g = filter_value(PulseSequence(n_pulses=n, tau=tau), omega)
    assert np.isfinite(g)
    assert g >= 0.0


@given(n=st.integers(1, 32), tau=st.floats(1e-7, 1e-3))
def test_filter_dc_rejection(n, tau):
    assert filter_value(PulseSequence(n_pulses=n, tau=tau), 0.0) == 0.0


@given(f_q=st.floats(1e8, 2e10), temp=st.floats(0.01, 2.0))
def test_electron_temperature_inverts_population(f_q, temp):
    p_e = thermal_population(f_q, temp)
    assert electron_temperature(p_e, f_q) == pytest.approx(temp, rel=1e-9)


@given(t1=st.floats(1e-6, 1e-3),
       t_phi=st.floats(1e-6, 1e-3),
       stretch=st.floats(0.5, 4.0))
def test_t2_balance_identity(t1, t_phi, stretch):
    t2 = t2_from_dephasing(t1, t_phi, stretch)
    assert 0 < t2 < min(2.0 * t1, t_phi) + 1e-30
    budget = t2 / (2.0 * t1) + (t2 / t_phi) ** stretch
    assert budget == pytest.approx(1.0, rel=1e-9)


@given(z_a=st.floats(1.0, 1e4), f_a=st.floats(1e8, 2e10),
       z_b=st.floats(1.0, 1e4), f_b=st.floats(1e8, 2e10))
def test_coupling_ratio_antisymmetry(z_a, f_a, z_b, f_b):
    forward = coupling_ratio(z_a, f_a, z_b, f_b)
    backward = coupling_ratio(z_b, f_b, z_a, f_a)
    assert forward * backward == pytest.approx(1.0, rel=1e-12)


@given(beta=st.floats(0.05, 0.9),
       t0=st.floats(1e-7, 1e-4))
def test_scaling_round_trip(beta, t0):
    points = [(n, t0 * n**beta) for n in (1, 2, 4, 8, 16)]
    fit = fit_scaling(points)
    assert fit["beta"] == pytest.approx(beta, abs=1e-9)
    assert fit["alpha"] == pytest.approx(beta / (1.0 - beta), rel=1e-6)


@settings(deadline=None)
@given(n=st.integers(8, 128), seed=st.integers(0, 2**31 - 1),
       dt=st.floats(1e-6, 10.0))
def test_periodogram_parseval(n, seed, dt):
    rng = np.random.default_rng(seed)
    freqs = rng.normal(size=n)
    series = FrequencySeries(timestamps=np.arange(n) * dt, freqs=freqs)
    points = periodogram(series)
    df = 1.0 / (n * dt)
    total = points[:, 1].sum() * df
    assert total == pytest.approx(np.var(freqs), rel=1e-9)


@given(dv=st.floats(-0.01, 0.01, **finite),
       f_ss=st.floats(1e9, 1e10), lever=st.floats(0.0, 1e13))
def test_dispersion_symmetries(dv, f_ss, lever):
    disp = QubitDispersion(f_ss=f_ss, lever_c=lever)
    assert qubit_frequency(disp, dv) == qubit_frequency(disp, -dv)
    assert qubit_frequency(disp, dv) >= f_ss
    assert lever_arm(disp, dv) == -lever_arm(disp, -dv)


@given(t_phi=st.floats(1e-6, 1e-3), n=st.integers(1, 16),
       scale=st.floats(0.1, 10.0))
def test_psd_reconstruction_time_scaling(t_phi, n, scale):
    # stretching the dephasing time by c moves the sample to f/c, S*c... the
    # reconstructed value scales as 1/c against the 1/T^2 sensitivity gain
    base = reconstruct_psd_point(t_phi, PulseSequence(n_pulses=n, tau=t_phi))
    moved = reconstruct_psd_point(scale * t_phi,
                                  PulseSequence(n_pulses=n,
                                                tau=scale * t_phi))
    assert moved.freq == pytest.approx(base.freq / scale, rel=1e-6)
    assert moved.value == pytest.approx(base.value / scale, rel=1e-6)


@given(amp=st.floats(-10, -1e-3))
def test_synthetic_noise_rejects_negative_amplitude(amp):
    with pytest.raises(ValueError):
        SyntheticNoise(amplitude=amp, alpha=1.0, f_min=1.0, f_max=10.0)


@given(lo=st.floats(1e-3, 1e3), hi=st.floats(1e-3, 1e3))
def test_synthetic_noise_band_ordering(lo, hi):
    if lo < hi:
        SyntheticNoise(amplitude=1.0, alpha=1.0, f_min=lo, f_max=hi)
    else:
        with pytest.raises(ValueError):
            SyntheticNoise(amplitude=1.0, alpha=1.0, f_min=lo, f_max=hi)


@given(bad=st.floats(1.11, 10.0))
def test_decay_trace_rejects_out_of_tolerance(bad):
    from qnl.decayfit import DecayTrace
    with pytest.raises(ValueError):
        DecayTrace(times=np.array([1e-6, 2e-6, 3e-6]),
                   populations=np.array([0.9, bad, 0.1]), kind="relaxation")


@given(units=st.text(max_size=12).filter(
    lambda s: s not in ("freq_noise", "voltage_noise")))
def test_psd_point_rejects_unknown_units(units):
    with pytest.raises(ValueError):
        PSDPoint(freq=1.0, value=1.0, units=units)
