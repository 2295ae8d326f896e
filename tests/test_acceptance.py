"""Release acceptance suite: one test per headline gate.

Each test is self-contained and asserts the pinned numbers or tolerance
windows it is named after, so ``pytest -v tests/test_acceptance.py``
reads as a checklist.  The Monte Carlo gates (6-8) use frozen seeds and
print the measured figures; their wall-time budgets are asserted
loosely (they run with an order-of-magnitude margin on a laptop).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from qnl.ddfilter import PulseSequence
from qnl.decayfit import (DecayTrace, fit_cpmg, fit_ramsey, fit_relaxation,
                          fit_scaling)
from qnl.mcsim import (SyntheticNoise, dephasing_integral, simulate_sequence,
                       synthesize_noise)
from qnl.noisespec import (FREQ_NOISE, VOLTAGE_NOISE, FrequencySeries,
                           PSDPoint, periodogram, powerlaw_fit,
                           reconstruct_psd_point, to_voltage_noise)
from qnl.resonator import (FilmParams, coupling_ratio, kinetic_inductance,
                           lumped_model)
from qnl.spectro import (CavityQubitParams, QubitDispersion, fit_dispersion,
                         fit_transmission, purcell_rate, qubit_frequency,
                         transmission)
from qnl.thermal import (ThermalModel, electron_temperature,
                         resonator_dephasing, t1_vs_temperature,
                         thermal_population)
from qnl.units import TWO_PI


def test_criterion_01_resonator_pins():
    l_k = kinetic_inductance(FilmParams(t_c=3.8, r_square=64.42))
    assert l_k == pytest.approx(23.4e-12, rel=5e-3)
    model = lumped_model(l_k, width=0.3e-6, length=1061e-6, f_diff=5.6681e9)
    print(f"L_k={l_k*1e12:.3f} pH/sq  Z={model.z_diff:.1f} ohm  "
          f"L={model.l_diff:.3e} H  C={model.c_diff:.3e} F")
    assert model.z_diff == pytest.approx(598.5, rel=0.01)
    assert model.l_diff == pytest.approx(1.68e-8, rel=0.01)
    assert model.c_diff == pytest.approx(4.69e-14, rel=0.01)


def test_criterion_02_purcell_window():
    params = CavityQubitParams(f_r=5.668e9, kappa=TWO_PI * 0.38e6,
                               f_q=5.065e9, gamma=TWO_PI * 3.18e6,
                               g=TWO_PI * 6.43e6)
    lifetime = 1.0 / purcell_rate(params)
    print(f"Purcell limit 1/Gamma = {lifetime*1e3:.2f} ms")
    assert 3.5e-3 <= lifetime <= 4.3e-3


def test_criterion_03_scaling_inversion():
    # exact T_phi ~ N^0.61 points: the fitted exponent must invert to 1.56
    n = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_scaling(list(zip(n, 4e-6 * n**0.61)))
    print(f"beta={fit.beta:.4f} -> alpha={fit.alpha:.4f}")
    assert fit.beta == pytest.approx(0.61, abs=1e-9)
    assert abs(fit.alpha - 1.56) <= 0.01
    # and the inverse map sends 1.56 back to 0.61
    assert 1.56 / (1.0 + 1.56) == pytest.approx(0.61, abs=0.01)


def test_criterion_04_thermal_pins():
    model = ThermalModel(f_q=5.065e9, f_r=5.668e9, kappa=TWO_PI * 0.38e6,
                         chi=-TWO_PI * 0.06e6, t1_zero=11.6e-6)
    ratio = t1_vs_temperature(model, 0.200) / model.t1_zero
    print(f"T1(200 mK)/T1(0) = {ratio:.4f}")
    assert 0.50 <= ratio <= 0.58
    assert resonator_dephasing(model, 0.0) == 0.0
    temperature = 0.120
    p_e = thermal_population(model.f_q, temperature)
    assert 0.0 < p_e < 0.5
    assert electron_temperature(p_e, model.f_q) == pytest.approx(
        temperature, rel=1e-12)


def test_criterion_05_coupling_ratio():
    ratio = coupling_ratio(598.5, 5.6681e9, 57.3, 6.42e9)
    print(f"coupling ratio = {ratio:.3f}")
    assert ratio == pytest.approx(2.85, rel=0.02)


# ------------------------------------------------------------------
# Monte Carlo gates.  All use frequency noise lambda(t) in Hz, so the
# phase sensitivity is 2*pi rad per Hz*s, and a band whose infrared
# edge is incommensurate with the record grid.


def _chi(amplitude, alpha, band, n_pulses, tau):
    seq = PulseSequence(n_pulses=n_pulses, tau=tau)
    return dephasing_integral({"amplitude": amplitude, "alpha": alpha,
                               **band}, seq, sensitivity=TWO_PI)


def test_criterion_06_psd_round_trip():
    start = time.perf_counter()
    alpha = 1.5
    band = {"f_min": 2.1e3, "f_max": 2.5e6}
    # normalize so chi(N=2, tau=15 us) = 1, i.e. T_phi(N=2) = 15 us
    amplitude = 1.0 / _chi(1.0, alpha, band, 2, 15e-6)

    points = []
    for n_pulses in (2, 4, 8, 16):
        t_pred = brentq(
            lambda tau: _chi(amplitude, alpha, band, n_pulses, tau) - 1.0,
            1e-6, 3e-4)
        taus = np.linspace(0.3, 2.0, 12) * t_pred
        seq = PulseSequence(n_pulses=n_pulses, tau=float(taus[-1]))
        spec = SyntheticNoise(amplitude=amplitude, alpha=alpha,
                              seed=60 + n_pulses, **band)
        dt = 0.3 * t_pred / (16 * n_pulses)
        trace = simulate_sequence(spec, seq, sensitivity=TWO_PI,
                                  n_traj=10_000, dt=dt, taus=taus)
        fit = fit_cpmg(trace, t1=np.inf)
        point = reconstruct_psd_point(fit.t_phi, PulseSequence(
            n_pulses=n_pulses, tau=fit.t_phi))
        s_true = amplitude * point.freq**-alpha
        print(f"N={n_pulses:2d}: T_phi={fit.t_phi*1e6:6.2f} us  "
              f"f={point.freq/1e3:7.2f} kHz  "
              f"S_rec/S_true={point.value/s_true:.3f}")
        assert 0.5 < point.value / s_true < 2.0
        points.append((point.freq, point.value))

    exponent = powerlaw_fit(points)["exponent"]
    elapsed = time.perf_counter() - start
    print(f"exponent={exponent:.3f}  ({elapsed:.1f} s)")
    assert abs(exponent - 1.5) <= 0.25
    assert elapsed < 25.0


def test_criterion_07_integral_vs_monte_carlo():
    start = time.perf_counter()
    tau = 25e-6
    band = {"f_min": 2.1e3, "f_max": 2e6}
    for alpha in (1.0, 1.5):
        for n_pulses in (1, 4, 8):
            # scale the noise so the predicted chi is exactly 0.7
            chi = 0.7
            amplitude = chi / _chi(1.0, alpha, band, n_pulses, tau)
            spec = SyntheticNoise(amplitude=amplitude, alpha=alpha,
                                  seed=70 + n_pulses + int(10 * alpha),
                                  **band)
            seq = PulseSequence(n_pulses=n_pulses, tau=tau)
            trace = simulate_sequence(spec, seq, sensitivity=TWO_PI,
                                      n_traj=6000, dt=tau / 160, taus=[tau])
            chi_mc = -np.log(2.0 * trace.populations[0] - 1.0)
            err = abs(chi_mc - chi) / chi
            print(f"alpha={alpha}  N={n_pulses}: chi_mc={chi_mc:.3f}  "
                  f"err={100*err:.1f}%")
            assert err < 0.10
    elapsed = time.perf_counter() - start
    print(f"({elapsed:.1f} s)")
    assert elapsed < 15.0


def test_criterion_08_echo_refocusing():
    start = time.perf_counter()
    tau = 12e-6
    sigma = 1.2e5           # rms static frequency offset, Hz
    band = {"f_min": 0.01, "f_max": 1.0}
    spec = SyntheticNoise(amplitude=sigma**2 / 0.99, alpha=0.0, seed=8,
                          **band)
    coherence = {}
    for n_pulses in (0, 1):
        seq = PulseSequence(n_pulses=n_pulses, tau=tau)
        # the whole band is slower than one record: it enters as the
        # per-record static offset the refocusing pulse must cancel
        with pytest.warns(UserWarning, match="below the record resolution"):
            trace = simulate_sequence(spec, seq, sensitivity=TWO_PI,
                                      n_traj=3000, dt=0.1e-6, taus=[tau])
        coherence[n_pulses] = 2.0 * trace.populations[0] - 1.0
    elapsed = time.perf_counter() - start
    print(f"ramsey={coherence[0]:.4f}  echo={coherence[1]:.6f}  "
          f"({elapsed:.3f} s)")
    assert coherence[0] < 0.5
    assert coherence[1] >= 0.99
    assert elapsed < 0.1


def test_criterion_09_periodogram_parseval_and_drift_exponent():
    rng = np.random.default_rng(9)
    values = rng.normal(size=4096)
    series = FrequencySeries(timestamps=np.arange(4096) * 0.7, freqs=values)
    total = periodogram(series)[:, 1].sum() / (4096 * 0.7)
    assert total == pytest.approx(np.var(values), rel=1e-9)

    n, dt = 2**14, 1.0
    spec = SyntheticNoise(amplitude=2.5e4, alpha=1.11, f_min=1.0 / (n * dt),
                          f_max=0.5 / dt, seed=19)
    record = synthesize_noise(spec, dt, n)
    series = FrequencySeries(timestamps=np.arange(n) * dt,
                             freqs=record.samples)
    fit = powerlaw_fit(periodogram(series))
    print(f"drift exponent = {fit['exponent']:.3f}")
    assert abs(fit["exponent"] - 1.11) <= 0.2


def test_criterion_10_fit_recovery_suite():
    start = time.perf_counter()

    # --- noiseless recovery -------------------------------------------
    t = np.linspace(0.5e-6, 60e-6, 40)
    relax = DecayTrace(times=t, populations=0.02 + 0.9 * np.exp(-t / 11.6e-6),
                       kind="relaxation")
    assert fit_relaxation(relax).t1 == pytest.approx(11.6e-6, rel=1e-3)

    t = np.linspace(0.2e-6, 30e-6, 120)
    fringe = 0.5 + 0.45 * np.exp(-t / 8.2e-6) * np.cos(
        2 * np.pi * 0.5e6 * t + 0.3)
    ram = fit_ramsey(DecayTrace(times=t, populations=fringe, kind="ramsey"))
    assert ram.t2 == pytest.approx(8.2e-6, rel=1e-2)
    assert ram.detuning == pytest.approx(0.5e6, rel=1e-2)

    t = np.linspace(0.5e-6, 15e-6, 40)
    t1, t_phi, stretch = 11.94e-6, 5e-6, 2.5
    curve = 0.02 + 0.9 * np.exp(-t / (2 * t1)) * np.exp(-(t / t_phi)**stretch)
    cpmg = fit_cpmg(DecayTrace(times=t, populations=curve, kind="cpmg",
                               n_pulses=4), t1=t1)
    assert cpmg.t_phi == pytest.approx(t_phi, rel=1e-2)
    assert cpmg.stretch == pytest.approx(stretch, rel=1e-2)

    n = np.array([1.0, 2.0, 4.0, 8.0])
    scaling = fit_scaling(list(zip(n, 3e-6 * n**0.6)))
    assert scaling.alpha == pytest.approx(1.5, rel=1e-6)

    truth = QubitDispersion(f_ss=5.065e9, lever_c=2.348e12, v_ss=1e-4)
    volts = np.linspace(-2e-3, 2e-3, 15)
    disp = fit_dispersion(
        list(zip(volts, qubit_frequency(truth, volts - truth.v_ss))))
    assert disp["f_ss"] == pytest.approx(truth.f_ss, rel=1e-4)
    assert disp["lever_c"] == pytest.approx(truth.lever_c, rel=1e-4)

    cavity = CavityQubitParams(f_r=5.668e9, kappa=TWO_PI * 0.38e6,
                               f_q=5.668e9, gamma=TWO_PI * 3.18e6,
                               g=TWO_PI * 6.43e6)
    freqs = np.linspace(5.653e9, 5.683e9, 241)
    amps = np.abs(transmission(cavity, freqs))
    known = {"f_r": cavity.f_r, "kappa": cavity.kappa}
    res = fit_transmission(list(zip(freqs, amps)), known)
    assert res["g"] == pytest.approx(cavity.g, rel=2e-2)
    assert res["gamma"] == pytest.approx(cavity.gamma, rel=2e-2)
    assert res["f_q"] == pytest.approx(cavity.f_q, rel=1e-4)

    f = np.geomspace(1e3, 1e6, 24)
    law = powerlaw_fit(list(zip(f, 2e5 * f**-1.3)))
    assert law["exponent"] == pytest.approx(1.3, rel=1e-9)
    assert law["amplitude"] == pytest.approx(2e5, rel=1e-6)

    # --- noisy medians over 100 seeds ---------------------------------
    t1_errs, disp_errs, g_errs, gamma_errs, alpha_errs = [], [], [], [], []
    t = np.linspace(0.5e-6, 60e-6, 40)
    clean_relax = 0.02 + 0.9 * np.exp(-t / 11.6e-6)
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)

        noisy = clean_relax + 0.02 * rng.standard_normal(t.size)
        fit = fit_relaxation(DecayTrace(times=t, populations=noisy,
                                        kind="relaxation"))
        t1_errs.append(abs(fit.t1 - 11.6e-6) / 11.6e-6)

        f_pts = qubit_frequency(truth, volts - truth.v_ss) \
            * (1.0 + 1e-3 * rng.standard_normal(volts.size))
        d = fit_dispersion(list(zip(volts, f_pts)))
        disp_errs.append(max(abs(d["f_ss"] - truth.f_ss) / truth.f_ss,
                             abs(d["lever_c"] - truth.lever_c)
                             / truth.lever_c))

        noisy_amps = amps + 0.01 * rng.standard_normal(amps.size)
        r = fit_transmission(list(zip(freqs, noisy_amps)), known)
        g_errs.append(abs(r["g"] - cavity.g) / cavity.g)
        gamma_errs.append(abs(r["gamma"] - cavity.gamma) / cavity.gamma)

        scatter = 2e5 * f**-1.3 * np.exp(0.2 * rng.standard_normal(f.size))
        alpha_errs.append(abs(powerlaw_fit(list(zip(f, scatter)))["exponent"]
                              - 1.3))

    elapsed = time.perf_counter() - start
    print(f"medians: t1={100*np.median(t1_errs):.2f}%  "
          f"dispersion={100*np.median(disp_errs):.3f}%  "
          f"g={100*np.median(g_errs):.2f}%  "
          f"gamma={100*np.median(gamma_errs):.2f}%  "
          f"|d alpha|={np.median(alpha_errs):.3f}  ({elapsed:.1f} s)")
    assert np.median(t1_errs) < 0.03
    assert np.median(disp_errs) < 0.01
    assert np.median(g_errs) < 0.05
    assert np.median(gamma_errs) < 0.05
    assert np.median(alpha_errs) < 0.15
    assert elapsed < 120.0


def test_criterion_11_voltage_noise_conversion():
    point = PSDPoint(freq=1e5, value=1e6, units=FREQ_NOISE)
    converted = to_voltage_noise(point, lever=1.807e11)   # 180.7 MHz/mV
    print(f"S_v = {converted.value:.4e} uV^2/Hz")
    assert converted.units == VOLTAGE_NOISE
    assert converted.value == pytest.approx(3.06e-5, rel=0.01)
