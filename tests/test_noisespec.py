import numpy as np
import pytest

from qnl.ddfilter import PulseSequence, filter_value, first_harmonic_peak
from qnl.noisespec import (FREQ_NOISE, VOLTAGE_NOISE, FrequencySeries,
                           PSDPoint, periodogram, powerlaw_fit,
                           reconstruct_psd_point, to_voltage_noise,
                           transverse_noise)


class TestFrequencySeries:
    def test_uniformity_enforced(self):
        t = np.arange(32) * 0.5
        t[20] += 0.2
        with pytest.raises(ValueError):
            FrequencySeries(timestamps=t, freqs=np.zeros(32))

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            FrequencySeries(timestamps=np.arange(4.0),
                            freqs=np.zeros(4))

    def test_dt(self):
        series = FrequencySeries(timestamps=np.arange(16) * 0.25,
                                 freqs=np.zeros(16))
        assert series.dt == pytest.approx(0.25)

    @pytest.mark.parametrize("column", ["timestamps", "freqs"])
    def test_non_finite_rejected(self, column):
        values = {"timestamps": np.arange(16) * 0.25, "freqs": np.zeros(16)}
        values[column][-1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            FrequencySeries(**values)


class TestPeriodogram:
    def make_series(self, values, dt=1.0):
        values = np.asarray(values, dtype=float)
        return FrequencySeries(timestamps=np.arange(values.size) * dt,
                               freqs=values)

    def test_parseval(self):
        rng = np.random.default_rng(42)
        for n in (64, 255, 1024):
            dt = 0.37
            x = rng.normal(size=n)
            points = periodogram(self.make_series(x, dt))
            df = 1.0 / (n * dt)
            total = points[:, 1].sum() * df
            var = np.var(x)
            assert total == pytest.approx(var, rel=1e-9)

    def test_grid_limits(self):
        n, dt = 256, 0.5
        points = periodogram(self.make_series(np.random.default_rng(0)
                                              .normal(size=n), dt))
        freqs = points[:, 0]
        assert freqs[0] == pytest.approx(1.0 / (n * dt))
        assert freqs[-1] == pytest.approx(1.0 / (2 * dt))
        assert len(points) == n // 2

    def test_constant_series_zero(self):
        points = periodogram(self.make_series(np.full(64, 7.5)))
        assert all(points[:, 1] == 0.0)

    def test_single_tone_localized(self):
        n, dt = 256, 1.0
        k = 10
        t = np.arange(n) * dt
        x = np.sin(2 * np.pi * k / (n * dt) * t)
        points = periodogram(self.make_series(x, dt))
        values = points[:, 1]
        assert np.argmax(values) == k - 1  # DC bin excluded
        df = 1.0 / (n * dt)
        assert values.sum() * df == pytest.approx(np.var(x), rel=1e-9)

    def test_white_noise_level(self):
        # mean PSD of unit-variance white noise = sigma^2/f_Nyquist
        n, dt = 512, 2.0
        means = []
        for seed in range(200):
            x = np.random.default_rng(seed).normal(size=n)
            points = periodogram(self.make_series(x, dt))
            means.append(np.mean(points[:, 1]))
        f_nyq = 1.0 / (2 * dt)
        assert np.mean(means) == pytest.approx(1.0 / f_nyq, rel=0.10)

    def test_overflow_rejected(self):
        x = 1e200 * np.random.default_rng(1).normal(size=64)
        with pytest.raises(ValueError, match="finite"):
            periodogram(self.make_series(x))


class TestPowerlawFit:
    def test_noiseless_exact(self):
        f = np.geomspace(1e3, 1e6, 24)
        points = [(x, 2.5e8 / x ** 1.55) for x in f]
        fit = powerlaw_fit(points)
        assert fit["exponent"] == pytest.approx(1.55, abs=1e-6)
        assert fit["amplitude"] == pytest.approx(2.5e8, rel=1e-6)
        assert fit["exponent_err"] < 1e-8

    def test_flat_spectrum(self):
        points = [(x, 4.2) for x in np.geomspace(1.0, 100.0, 12)]
        fit = powerlaw_fit(points)
        assert fit["exponent"] == pytest.approx(0.0, abs=1e-9)

    def test_lognormal_scatter_median(self):
        f = np.geomspace(1e3, 1e6, 30)
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            values = 1e8 / f ** 1.2 * np.exp(0.2 * rng.normal(size=f.size))
            errs.append(abs(powerlaw_fit(list(zip(f, values)))["exponent"]
                            - 1.2))
        assert np.median(errs) < 0.15

    def test_rejects_nonpositive(self):
        from qnl.fitutil import FitError
        with pytest.raises(FitError):
            powerlaw_fit([(1.0, 1.0), (2.0, 0.0), (4.0, 0.5)])

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (-3.0, 1.0),
                                     (np.inf, 1.0), (3.0, np.nan)],
                             ids=["zero_freq", "negative_freq", "inf_freq",
                                  "nan_value"])
    def test_rejects_non_finite_pairs(self, bad):
        from qnl.fitutil import FitError
        with pytest.raises(FitError, match="finite"):
            powerlaw_fit([(1.0, 1.0), (2.0, 0.5), (4.0, 0.25), bad])

    @pytest.mark.parametrize("points, message", [
        (np.ones((3, 3)), r"expected \(freq, value\) pairs"),
        ([(1.0, 1.0), (2.0, 0.5), (2.0, 0.4)], "distinct"),
    ], ids=["three_columns", "repeated_freq"])
    def test_rejects_malformed_points(self, points, message):
        from qnl.fitutil import FitError
        with pytest.raises(FitError, match=message):
            powerlaw_fit(points)


class TestReconstructPsdPoint:
    def test_formula_pin(self):
        t_phi = 20e-6
        seq = PulseSequence(n_pulses=4, tau=t_phi)
        point = reconstruct_psd_point(t_phi, seq)
        peak = first_harmonic_peak(seq)
        g_pk = filter_value(seq, 2 * np.pi * peak.f_peak)
        assert point.freq == pytest.approx(peak.f_peak, rel=1e-12)
        # 1/pi: angular box estimate -> one-sided qubit-frequency Hz^2/Hz
        assert point.value == pytest.approx(
            1.0 / (np.pi * t_phi ** 2 * g_pk * peak.delta_omega), rel=1e-12)
        assert point.units == FREQ_NOISE

    def test_filter_evaluated_at_t_phi(self):
        # seq.tau is a grid artifact; the estimate must use tau = T_phi
        t_phi = 20e-6
        a = reconstruct_psd_point(t_phi, PulseSequence(n_pulses=4,
                                                       tau=t_phi))
        b = reconstruct_psd_point(t_phi, PulseSequence(n_pulses=4,
                                                       tau=55e-6))
        assert a.freq == pytest.approx(b.freq, rel=1e-12)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_time_rescaling_covariance(self):
        base = reconstruct_psd_point(20e-6, PulseSequence(n_pulses=8,
                                                          tau=20e-6))
        scaled = reconstruct_psd_point(40e-6, PulseSequence(n_pulses=8,
                                                            tau=40e-6))
        assert scaled.freq == pytest.approx(base.freq / 2.0, rel=1e-9)
        # S ~ 1/(T^2 g dw): T^2 up 4x, dw down 2x -> S down 2x
        assert scaled.value == pytest.approx(base.value / 2.0, rel=1e-9)


class TestVoltageConversion:
    def test_pinned_value(self):
        lever = 180.7e9  # 180.7 MHz/mV in Hz/V
        point = to_voltage_noise(PSDPoint(freq=5e4, value=1e6), lever)
        assert point.value == pytest.approx(3.06e-5, rel=0.01)
        assert point.units == VOLTAGE_NOISE
        assert point.freq == 5e4

    def test_zero_noise(self):
        assert to_voltage_noise(PSDPoint(freq=1.0, value=0.0), 1e9).value \
            == 0.0

    def test_inverse_square_lever(self):
        a = to_voltage_noise(PSDPoint(freq=1.0, value=1e6), 1e11)
        b = to_voltage_noise(PSDPoint(freq=1.0, value=1e6), 2e11)
        assert a.value == pytest.approx(4 * b.value, rel=1e-12)

    def test_sweet_spot_error(self):
        with pytest.raises(ValueError):
            to_voltage_noise(PSDPoint(freq=1.0, value=1e6), 0.0)


class TestTransverseNoise:
    def test_pinned_value(self):
        point = transverse_noise(11.6e-6, 5.065e9)
        assert point.value == pytest.approx(5.49e4, rel=0.01)
        assert point.freq == 5.065e9
        assert point.units == FREQ_NOISE

    def test_long_t1_vanishes(self):
        assert transverse_noise(1e6, 5.065e9).value < 1e-6

    def test_band_mean_fixture(self):
        # measured T1-vs-frequency table: transverse-noise band mean
        import csv
        from pathlib import Path
        rows = list(csv.DictReader(
            (Path(__file__).parent / "data"
             / "q1_t1_vs_frequency.csv").open()))
        values = [transverse_noise(float(r["t1_s"]),
                                   float(r["freq_hz"])).value for r in rows]
        assert np.mean(values) == pytest.approx(3.6e5, rel=0.20)


def test_psd_point_units_default():
    assert PSDPoint(freq=1.0, value=1.0).units == FREQ_NOISE


@pytest.mark.parametrize("freq, value", [
    (0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
    (1.0, -1.0), (1.0, np.nan), (1.0, np.inf)])
def test_psd_point_rejects_bad_values(freq, value):
    with pytest.raises(ValueError):
        PSDPoint(freq=freq, value=value)
