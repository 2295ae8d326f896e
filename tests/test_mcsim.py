import numpy as np
import pytest

from qnl.ddfilter import PulseSequence
from qnl.mcsim import (SyntheticNoise, Trajectory, band_variance,
                       dephasing_integral, simulate_sequence,
                       synthesize_noise)
from qnl.noisespec import FrequencySeries, periodogram, powerlaw_fit


def spec(**kw):
    base = dict(amplitude=1e4, alpha=1.0, f_min=1e4, f_max=1e5, seed=0)
    base.update(kw)
    return SyntheticNoise(**base)


class TestSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            spec(amplitude=-1.0)
        with pytest.raises(ValueError):
            spec(alpha=3.5)
        with pytest.raises(ValueError):
            spec(f_min=1e5, f_max=1e2)
        with pytest.raises(ValueError):
            spec(f_min=0.0)

    def test_zero_amplitude_allowed(self):
        traj = synthesize_noise(spec(amplitude=0.0), dt=1e-6, n=64)
        assert np.all(traj.samples == 0.0)


class TestBandVariance:
    def test_white(self):
        s = spec(alpha=0.0, amplitude=2.0, f_min=10.0, f_max=110.0)
        assert band_variance(s, 10.0, 110.0) == pytest.approx(200.0)

    def test_one_over_f(self):
        s = spec(alpha=1.0, amplitude=3.0, f_min=1.0, f_max=100.0)
        assert band_variance(s, 1.0, 100.0) == pytest.approx(
            3.0 * np.log(100.0))

    def test_general_alpha(self):
        s = spec(alpha=1.5, amplitude=2.0, f_min=1.0, f_max=16.0)
        expected = 2.0 / 0.5 * (1.0 - 16.0 ** -0.5)
        assert band_variance(s, 1.0, 16.0) == pytest.approx(expected)


class TestSynthesizeNoise:
    def test_deterministic(self):
        a = synthesize_noise(spec(), dt=1e-6, n=512, stream=3)
        b = synthesize_noise(spec(), dt=1e-6, n=512, stream=3)
        c = synthesize_noise(spec(), dt=1e-6, n=512, stream=4)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_seed_changes_output(self):
        a = synthesize_noise(spec(seed=1), dt=1e-6, n=256)
        b = synthesize_noise(spec(seed=2), dt=1e-6, n=256)
        assert not np.array_equal(a.samples, b.samples)

    def test_ensemble_variance_matches_band(self):
        # flat spectrum so the discrete synthesis grid integrates exactly
        s = spec(alpha=0.0, amplitude=1e4, f_min=1e3, f_max=4e5)
        dt, n = 1e-6, 1024
        var = np.mean([synthesize_noise(s, dt, n, stream=i).samples.var()
                       for i in range(300)])
        expected = band_variance(s, s.f_min, s.f_max)
        assert var == pytest.approx(expected, rel=0.03)

    def test_flat_spectrum_ensemble(self):
        # alpha = 0: mean periodogram level in the band equals the
        # amplitude, and out-of-band bins carry no power at all
        s = spec(alpha=0.0, amplitude=7.5, f_min=1e4, f_max=4e5)
        dt, n = 1e-6, 256
        psd = np.zeros(n // 2)
        for i in range(200):
            traj = synthesize_noise(s, dt, n, stream=i)
            series = FrequencySeries(timestamps=np.arange(n) * dt,
                                     freqs=traj.samples)
            psd += periodogram(series)[:, 1]
        psd /= 200
        freqs = np.fft.rfftfreq(n, dt)[1:]
        band = (freqs >= s.f_min) & (freqs <= s.f_max)
        assert np.mean(psd[band]) == pytest.approx(7.5, rel=0.05)
        # out of band only fft round-trip noise survives
        assert np.all(psd[~band] < 1e-12 * 7.5)

    def test_powerlaw_spectrum_ensemble(self):
        s = spec(alpha=1.5, amplitude=1e3, f_min=4e3, f_max=4e5)
        dt, n = 1e-6, 512
        psd = np.zeros(n // 2)
        for i in range(200):
            traj = synthesize_noise(s, dt, n, stream=i)
            series = FrequencySeries(timestamps=np.arange(n) * dt,
                                     freqs=traj.samples)
            psd += periodogram(series)[:, 1]
        psd /= 200
        freqs = np.fft.rfftfreq(n, dt)[1:]
        band = (freqs >= s.f_min) & (freqs <= s.f_max)
        fit = powerlaw_fit(list(zip(freqs[band], psd[band])))
        assert fit["exponent"] == pytest.approx(1.5, abs=0.1)
        assert fit["amplitude"] == pytest.approx(1e3, rel=0.2)

    def test_nyquist_clip_warns(self):
        with pytest.warns(UserWarning, match="Nyquist"):
            synthesize_noise(spec(f_min=2e4, f_max=1e7), dt=1e-6, n=64)

    def test_subresolution_band_folds_to_static(self):
        # band entirely below the record resolution: static offsets with
        # the full band variance
        s = spec(alpha=0.0, amplitude=1.0, f_min=0.01, f_max=1.0)
        dt, n = 1e-6, 64
        offsets = []
        with pytest.warns(UserWarning, match="static"):
            for i in range(400):
                traj = synthesize_noise(s, dt, n, stream=i)
                assert np.ptp(traj.samples) < 1e-9 * max(
                    1.0, abs(traj.samples[0]))
                offsets.append(traj.samples[0])
        expected = band_variance(s, 0.01, 1.0)
        assert np.var(offsets) == pytest.approx(expected, rel=0.25)


class TestSimulateSequence:
    def test_no_noise_full_coherence(self):
        seq = PulseSequence(n_pulses=2, tau=20e-6)
        trace = simulate_sequence(spec(amplitude=0.0), seq, sensitivity=1.0,
                                  n_traj=32, dt=1e-7)
        assert np.allclose(trace.populations, 1.0)
        assert trace.kind == "cpmg"
        assert trace.n_pulses == 2

    def test_zero_sensitivity_full_coherence(self):
        seq = PulseSequence(n_pulses=0, tau=20e-6)
        trace = simulate_sequence(spec(), seq, sensitivity=0.0,
                                  n_traj=32, dt=1e-7)
        assert np.allclose(trace.populations, 1.0)
        assert trace.kind == "ramsey"

    def test_deterministic_repeat(self):
        seq = PulseSequence(n_pulses=1, tau=20e-6)
        kw = dict(sensitivity=1e5, n_traj=64, dt=2e-7)
        a = simulate_sequence(spec(), seq, **kw)
        b = simulate_sequence(spec(), seq, **kw)
        assert np.array_equal(a.populations, b.populations)

    def test_dt_too_coarse_rejected(self):
        seq = PulseSequence(n_pulses=8, tau=20e-6)
        with pytest.raises(ValueError):
            simulate_sequence(spec(), seq, sensitivity=1.0, n_traj=8,
                              dt=1e-6)

    def test_finite_pulses_rejected(self):
        seq = PulseSequence(n_pulses=2, tau=1e-4, tau_pi=1e-6)
        with pytest.raises(ValueError, match="instantaneous pulses"):
            simulate_sequence(spec(), seq, sensitivity=1.0, n_traj=8,
                              dt=1e-7)

    def test_quasi_static_gaussian_ramsey(self):
        # static Gaussian detuning noise: C(tau) = exp(-(sigma tau)^2/2)
        tau = 20e-6
        sigma_omega = 6e4  # rad/s at unit sensitivity
        s = SyntheticNoise(amplitude=sigma_omega ** 2 / 0.99, alpha=0.0,
                           f_min=0.01, f_max=1.0, seed=7)
        seq = PulseSequence(n_pulses=0, tau=tau)
        taus = np.linspace(tau / 8, tau, 8)
        with pytest.warns(UserWarning, match="static"):
            trace = simulate_sequence(s, seq, sensitivity=1.0,
                                      n_traj=10_000, dt=5e-7, taus=taus)
        coherence = 2.0 * trace.populations - 1.0
        expected = np.exp(-0.5 * (sigma_omega * taus) ** 2)
        assert np.allclose(coherence, expected, atol=0.03)

    def test_echo_refocuses_quasi_static(self):
        tau = 20e-6
        sigma_omega = 1.2e5
        s = SyntheticNoise(amplitude=sigma_omega ** 2 / 0.99, alpha=0.0,
                           f_min=0.01, f_max=1.0, seed=7)
        taus = np.array([tau])
        with pytest.warns(UserWarning, match="static"):
            ramsey = simulate_sequence(s, PulseSequence(n_pulses=0, tau=tau),
                                       sensitivity=1.0, n_traj=3000,
                                       dt=5e-7, taus=taus)
            echo = simulate_sequence(s, PulseSequence(n_pulses=1, tau=tau),
                                     sensitivity=1.0, n_traj=3000,
                                     dt=5e-7, taus=taus)
        assert 2 * ramsey.populations[0] - 1 < 0.5
        assert 2 * echo.populations[0] - 1 >= 0.99


class TestDephasingIntegral:
    def test_zero_amplitude(self):
        seq = PulseSequence(n_pulses=1, tau=20e-6)
        assert dephasing_integral(spec(amplitude=0.0), seq, 1.0) == 0.0

    def test_quadratic_in_sensitivity(self):
        seq = PulseSequence(n_pulses=4, tau=20e-6)
        chi1 = dephasing_integral(spec(), seq, 1.0)
        chi2 = dephasing_integral(spec(), seq, 2.0)
        assert chi2 == pytest.approx(4.0 * chi1, rel=1e-12)

    def test_accepts_mapping(self):
        seq = PulseSequence(n_pulses=4, tau=20e-6)
        from_spec = dephasing_integral(spec(), seq, 1.0)
        from_map = dephasing_integral(
            {"amplitude": 1e4, "alpha": 1.0, "f_min": 1e4, "f_max": 1e5},
            seq, 1.0)
        assert from_map == pytest.approx(from_spec, rel=1e-12)

    def test_white_noise_ramsey_closed_form(self):
        # wide white band: chi -> sens^2 * S0 * tau / 4
        tau = 20e-6
        s = SyntheticNoise(amplitude=5.0, alpha=0.0, f_min=1e-3 / tau,
                           f_max=1e4 / tau, seed=0)
        seq = PulseSequence(n_pulses=0, tau=tau)
        chi = dephasing_integral(s, seq, sensitivity=2.0)
        assert chi == pytest.approx(4.0 * 5.0 * tau / 4.0, rel=0.01)

    def test_grid_refinement_converged(self):
        seq = PulseSequence(n_pulses=8, tau=20e-6)
        s = spec(alpha=1.5, amplitude=1e7, f_min=1e3, f_max=2e6)
        coarse = dephasing_integral(s, seq, 1.0, points_per_cycle=64)
        fine = dephasing_integral(s, seq, 1.0, points_per_cycle=256)
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_ir_divergence_rejected(self):
        seq = PulseSequence(n_pulses=0, tau=20e-6)
        with pytest.raises(ValueError):
            dephasing_integral({"amplitude": 1.0, "alpha": 1.0,
                                "f_min": 0.0, "f_max": 1e5}, seq, 1.0)

    def test_monte_carlo_cross_check_single(self):
        # one (alpha, N) combination here; the acceptance suite sweeps more
        tau = 25e-6
        s = SyntheticNoise(amplitude=1.1e10, alpha=1.0, f_min=2.1e3,
                           f_max=2e6, seed=11)
        seq = PulseSequence(n_pulses=4, tau=tau)
        chi = dephasing_integral(s, seq, sensitivity=1.0)
        assert 0.2 < chi < 2.0  # keep the comparison well conditioned
        trace = simulate_sequence(s, seq, sensitivity=1.0, n_traj=4000,
                                  dt=tau / 160, taus=np.array([tau]))
        coherence = 2.0 * trace.populations[0] - 1.0
        assert -np.log(coherence) == pytest.approx(chi, rel=0.10)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(dt=0.0, samples=np.zeros(8))
