import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qnl import spectro
from qnl.fitutil import FitError, run_least_squares
from qnl.spectro import (CavityQubitParams, QubitDispersion,
                         _prominent_peaks, dressed_frequencies,
                         fit_dispersion, fit_transmission, lever_arm,
                         purcell_rate, qubit_frequency, transmission)

DISP = QubitDispersion(f_ss=5.065e9, lever_c=2.348e12)  # 2.348 GHz/mV


class TestQubitFrequency:
    def test_sweet_spot(self):
        assert qubit_frequency(DISP, 0.0) == 5.065e9

    def test_pinned_point(self):
        assert qubit_frequency(DISP, 0.167e-3) == pytest.approx(5.0801e9,
                                                                rel=1e-4)

    def test_even_and_minimized_at_zero(self):
        dv = np.linspace(-0.5e-3, 0.5e-3, 101)
        f = qubit_frequency(DISP, dv)
        assert np.allclose(f, f[::-1], rtol=1e-14)
        assert f.min() == f[50]

    def test_linear_asymptote(self):
        dv = 1.0  # far from the sweet spot
        assert qubit_frequency(DISP, dv) == pytest.approx(DISP.lever_c * dv,
                                                          rel=1e-5)


class TestLeverArm:
    def test_zero_at_sweet_spot(self):
        assert lever_arm(DISP, 0.0) == 0.0

    def test_paper_operating_point(self):
        # dv such that f_q - f_ss = 15.9 MHz
        f_q = DISP.f_ss + 15.9e6
        dv = np.sqrt(f_q ** 2 - DISP.f_ss ** 2) / DISP.lever_c
        lever = lever_arm(DISP, dv)
        assert lever == pytest.approx(180.7e9, rel=0.10)  # 180.7 MHz/mV

    def test_finite_difference_oracle(self):
        dv = 0.1e-3
        h = 1e-9
        numeric = (qubit_frequency(DISP, dv + h)
                   - qubit_frequency(DISP, dv - h)) / (2 * h)
        assert lever_arm(DISP, dv) == pytest.approx(numeric, rel=1e-6)

    def test_saturates_at_curvature_scale(self):
        assert abs(lever_arm(DISP, 1.0)) == pytest.approx(DISP.lever_c,
                                                          rel=1e-5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_raises_without_warning(self):
        for func in (qubit_frequency, lever_arm):
            with pytest.raises(OverflowError):
                func(DISP, -1e300)
            with pytest.raises(OverflowError):
                func(DISP, np.array([0.0, 1e300]))
        # lever_c^2 dv alone would overflow; f_q and the lever arm do not
        big = QubitDispersion(f_ss=5e9, lever_c=1e154)
        assert lever_arm(big, 10.0) == pytest.approx(1e154, rel=1e-12)


class TestFitDispersion:
    def test_noiseless_recovery(self):
        truth = QubitDispersion(f_ss=5.065e9, lever_c=2.348e12, v_ss=2e-4)
        v = np.linspace(-1e-3, 1.4e-3, 15)
        points = [(float(vv), float(qubit_frequency(truth, vv - truth.v_ss)))
                  for vv in v]
        fit = fit_dispersion(points)
        assert fit["f_ss"] == pytest.approx(truth.f_ss, rel=1e-4)
        assert fit["lever_c"] == pytest.approx(truth.lever_c, rel=1e-4)
        assert fit["v_ss"] == pytest.approx(truth.v_ss, abs=1e-8)

    def test_flat_spectrum_gives_zero_lever(self):
        points = [(v, 5.065e9) for v in np.linspace(-1e-3, 1e-3, 9)]
        fit = fit_dispersion(points)
        assert abs(fit["lever_c"]) < 1e-3 * 5.065e9 / 1e-3

    def test_noisy_recovery_median(self):
        truth = QubitDispersion(f_ss=5.065e9, lever_c=2.348e12, v_ss=0.0)
        v = np.linspace(-1e-3, 1e-3, 21)
        clean = qubit_frequency(truth, v)
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean * (1.0 + 1e-3 * rng.normal(size=v.size))
            fit = fit_dispersion(list(zip(v, noisy)))
            errs.append(max(abs(fit["f_ss"] / truth.f_ss - 1),
                            abs(fit["lever_c"] / truth.lever_c - 1)))
        assert np.median(errs) < 0.01

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_dispersion([(0.0, 5e9), (1e-3, 5.1e9)])

    @pytest.mark.parametrize("points, message", [
        ([(0.0, 5e9), (1e-3, -5.1e9), (2e-3, 5.2e9)], "must be positive"),
        ([(1e-3, 5e9), (1e-3, 5.1e9), (1e-3, 5.2e9)], "same voltage"),
    ], ids=["negative_freq", "single_voltage"])
    def test_rejects_degenerate_points(self, points, message):
        with pytest.raises(FitError, match=message):
            fit_dispersion(points)


class TestDressedFrequencies:
    def test_resonant_splitting(self):
        g = 2 * np.pi * 6.43e6
        p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                              f_q=5.668e9, gamma=2 * np.pi * 3.18e6, g=g)
        f_plus, f_minus = dressed_frequencies(p)
        assert f_plus - f_minus == pytest.approx(2 * 6.43e6, rel=1e-9)
        assert 0.5 * (f_plus + f_minus) == pytest.approx(5.668e9, rel=1e-12)

    def test_uncoupled(self):
        p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                              f_q=5.065e9, gamma=2 * np.pi * 3.18e6, g=0.0)
        assert dressed_frequencies(p) == (5.668e9, 5.065e9)

    def test_detuned_closed_form(self):
        g = 2 * np.pi * 6.43e6
        delta = 2 * 6.43e6  # detuning = 2 g/2pi
        p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                              f_q=5.668e9 - delta,
                              gamma=2 * np.pi * 3.18e6, g=g)
        f_plus, f_minus = dressed_frequencies(p)
        assert f_plus - f_minus == pytest.approx(2 * np.sqrt(2) * 6.43e6,
                                                 rel=1e-9)

    def test_level_repulsion(self):
        g = 2 * np.pi * 2e6
        for f_q in (5.60e9, 5.668e9, 5.75e9):
            p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                                  f_q=f_q, gamma=2 * np.pi * 3.18e6, g=g)
            f_plus, f_minus = dressed_frequencies(p)
            assert f_plus >= max(p.f_r, p.f_q) - 1e-3
            assert f_minus <= min(p.f_r, p.f_q) + 1e-3


class TestTransmission:
    def params(self, **kw):
        base = dict(f_r=5.668e9, kappa=2 * np.pi * 0.38e6, f_q=5.668e9,
                    gamma=2 * np.pi * 3.81e6, g=2 * np.pi * 6.43e6)
        base.update(kw)
        return CavityQubitParams(**base)

    def test_bare_lorentzian_peak(self):
        p = self.params(g=0.0, f_q=5.0e9)
        assert abs(transmission(p, 5.668e9)) == pytest.approx(1.0, rel=1e-12)
        # half-power at probe detuning kappa/2 (angular)
        f_half = 5.668e9 + p.kappa / (2 * 2 * np.pi)
        assert abs(transmission(p, f_half)) == pytest.approx(1 / np.sqrt(2),
                                                             rel=1e-9)

    def test_amplitude_bounded(self):
        p = self.params()
        f = np.linspace(5.6e9, 5.74e9, 4001)
        assert np.all(np.abs(transmission(p, f)) <= 1.0 + 1e-12)

    def test_vacuum_rabi_splitting(self):
        p = self.params()
        f = np.linspace(5.668e9 - 25e6, 5.668e9 + 25e6, 20001)
        s = np.abs(transmission(p, f))
        # two local maxima straddling f_r, separated by ~2g/2pi
        mid = f.size // 2
        lo, hi = f[np.argmax(s[:mid])], f[mid + np.argmax(s[mid:])]
        assert hi - lo == pytest.approx(2 * 6.43e6, rel=0.05)

    def test_peaks_match_dressed_frequencies(self):
        p = self.params(f_q=5.668e9 + 4e6)
        f = np.linspace(5.64e9, 5.70e9, 60001)
        s = np.abs(transmission(p, f))
        mask = (np.diff(np.sign(np.diff(s))) < 0).nonzero()[0] + 1
        peaks = sorted(f[i] for i in mask[np.argsort(s[mask])][-2:])
        f_plus, f_minus = dressed_frequencies(p)
        tol = p.kappa / (2 * np.pi)
        assert abs(peaks[0] - f_minus) < tol
        assert abs(peaks[1] - f_plus) < tol


class TestFitTransmission:
    def make_trace(self, p, noise=0.0, seed=0, span=25e6, n=601):
        f = np.linspace(p.f_r - span, p.f_r + span, n)
        amp = np.abs(transmission(p, f))
        if noise:
            amp = amp + noise * np.random.default_rng(seed).normal(size=n)
        return np.column_stack([f, amp])

    def test_noiseless_recovery(self):
        p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                              f_q=5.668e9 + 1e6,
                              gamma=2 * np.pi * 3.18e6, g=2 * np.pi * 6.43e6)
        result = fit_transmission(self.make_trace(p),
                                  {"f_r": p.f_r, "kappa": p.kappa})
        assert result["g"] == pytest.approx(p.g, rel=0.02)
        assert result["gamma"] == pytest.approx(p.gamma, rel=0.02)
        assert result["f_q"] == pytest.approx(p.f_q, abs=0.02 * 6.43e6)

    @pytest.mark.filterwarnings("error")
    def test_uncoupled_degenerates_to_bare_resonator(self):
        p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                              f_q=5.668e9, gamma=2 * np.pi * 3.18e6, g=0.0)
        result = fit_transmission(self.make_trace(p, span=5e6),
                                  {"f_r": p.f_r, "kappa": p.kappa})
        assert result["g"] < 2 * np.pi * 0.2e6
        assert "single-peak" in result["warnings"][0]

    def test_noisy_recovery_median(self):
        p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                              f_q=5.668e9, gamma=2 * np.pi * 3.18e6,
                              g=2 * np.pi * 6.43e6)
        errs = []
        for seed in range(100):
            trace = self.make_trace(p, noise=0.01, seed=seed)
            result = fit_transmission(trace, {"f_r": p.f_r, "kappa": p.kappa})
            errs.append(max(abs(result["g"] / p.g - 1),
                            abs(result["gamma"] / p.gamma - 1)))
        assert np.median(errs) < 0.05

    def record_starts(self, monkeypatch):
        starts = []

        def run(model, x0, bounds):
            starts.append(x0)
            return run_least_squares(model, x0, bounds)
        monkeypatch.setattr(spectro, "run_least_squares", run)
        return starts

    @pytest.mark.filterwarnings("error")
    def test_clipped_single_peak_takes_its_plateau_width(self, monkeypatch):
        p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                              f_q=5.0e9, gamma=2 * np.pi * 3.18e6, g=0.0)
        trace = self.make_trace(p, span=2e6, n=801)
        top = 0.6
        trace[:, 1] = np.minimum(trace[:, 1], top)
        assert np.count_nonzero(trace[:, 1] == top) > 50
        starts = self.record_starts(monkeypatch)
        result = fit_transmission(trace, {"f_r": p.f_r, "kappa": p.kappa})
        assert "single-peak" in result["warnings"][0]
        assert np.isfinite([result["g"], result["gamma"], result["f_q"]]).all()
        # the bare |S21| = 1/sqrt(1 + (2 dw/kappa)^2) crosses half the
        # plateau's prominence, level h, at dw = (kappa/2) sqrt(1/h^2 - 1),
        # and g0 = pi * (width in Hz) = dw
        h = 0.5 * (top + max(trace[0, 1], trace[-1, 1]))
        assert starts[0][0] == pytest.approx(
            0.5 * p.kappa * np.sqrt(1 / h**2 - 1), rel=1e-3)

    @pytest.mark.filterwarnings("error")
    def test_trace_without_a_peak_starts_from_a_quarter_span(self,
                                                             monkeypatch):
        freqs = np.linspace(5.66e9, 5.676e9, 41)
        trace = np.column_stack([freqs, np.linspace(0.1, 0.9, freqs.size)])
        kappa = 2 * np.pi * 0.38e6
        starts = self.record_starts(monkeypatch)
        result = fit_transmission(trace, {"f_r": 5.668e9, "kappa": kappa})
        assert "single-peak" in result["warnings"][0]
        assert np.isfinite([result["g"], result["gamma"], result["f_q"]]).all()
        assert starts[0][0] == pytest.approx(
            np.pi * (freqs.size / 4) * (freqs[1] - freqs[0]), rel=1e-9)
        assert starts[0][0] > 0.25 * kappa


# few distinct levels, so plateaus and ties, at the ends too, are common
_levels = st.lists(st.integers(0, 4), min_size=3, max_size=40).map(
    lambda v: np.array(v) / 4.0)
_walks = st.lists(st.integers(-1, 1), min_size=3, max_size=60).map(
    lambda steps: 0.1 * np.cumsum(steps))
_noise = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=40).map(
    np.array)


def _noisy_crossing(n):
    """A two-peak |S21| trace across the avoided crossing, seeded noise."""
    p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                          f_q=5.668e9, gamma=2 * np.pi * 3.18e6,
                          g=2 * np.pi * 6.43e6)
    f = np.linspace(p.f_r - 25e6, p.f_r + 25e6, n)
    return (np.abs(transmission(p, f))
            + 0.01 * np.random.default_rng(0).normal(size=n))


@settings(max_examples=400, deadline=None)
@given(x=st.one_of(_levels, _walks, _noise),
       share=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
@example(x=np.arange(6.0), share=0.0)
@example(x=np.arange(6.0)[::-1], share=0.0)
@example(x=np.array([0.0, 1.0, 0.0]), share=0.0)
@example(x=np.array([0.0, 1.0, 1.0]), share=0.0)
@example(x=np.array([1.0, 1.0, 0.0]), share=0.0)
@example(x=np.array([1.0, 1.0, 1.0]), share=0.0)
@example(x=np.random.default_rng(0).normal(size=20001), share=0.1)
@example(x=_noisy_crossing(2001), share=0.1)
@example(x=np.r_[np.arange(5000.0), 0.0], share=0.0)  # one wide peak
@example(x=np.array([0.0, 5e-324, 0.0]), share=0.0)  # a width of 0.0
def test_prominent_peaks_match_scipy_to_the_bit(x, share):
    from scipy.signal import find_peaks, peak_widths
    min_prominence = share * np.ptp(x)
    expected = find_peaks(x, prominence=min_prominence)[0]
    with warnings.catch_warnings():
        # scipy warns where a width is 0; the bits are compared below
        warnings.filterwarnings("ignore", "some peaks have a width of 0")
        expected_widths = peak_widths(x, expected, rel_height=0.5)[0]
    peaks, widths = _prominent_peaks(x, min_prominence)
    assert peaks.tolist() == expected.tolist()
    assert widths.tobytes() == expected_widths.tobytes()


class TestPurcellRate:
    def test_paper_pin(self):
        p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                              f_q=5.065e9, gamma=2 * np.pi * 3.18e6,
                              g=2 * np.pi * 6.43e6)
        rate = purcell_rate(p)
        assert 1.0 / rate == pytest.approx(3.9e-3, rel=0.10)
        assert 3.5e-3 <= 1.0 / rate <= 4.3e-3

    def test_uncoupled(self):
        p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                              f_q=5.065e9, gamma=2 * np.pi * 3.18e6, g=0.0)
        assert purcell_rate(p) == 0.0

    def test_detuning_scaling(self):
        def rate(delta):
            return purcell_rate(CavityQubitParams(
                f_r=5.668e9, kappa=2 * np.pi * 0.38e6, f_q=5.668e9 - delta,
                gamma=2 * np.pi * 3.18e6, g=2 * np.pi * 6.43e6))
        assert rate(2 * 603e6) == pytest.approx(rate(603e6) / 4, rel=1e-9)

    def test_zero_detuning_error(self):
        p = CavityQubitParams(f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                              f_q=5.668e9, gamma=2 * np.pi * 3.18e6,
                              g=2 * np.pi * 6.43e6)
        with pytest.raises(ValueError):
            purcell_rate(p)
