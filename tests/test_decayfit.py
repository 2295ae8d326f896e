import numpy as np
import pytest

from qnl.decayfit import (DecayTrace, fit_cpmg, fit_ramsey, fit_relaxation,
                          fit_scaling, t2_from_dephasing)
from conftest import make_cpmg, make_ramsey, make_relaxation


class TestDecayTrace:
    def test_validation(self):
        t = np.linspace(0, 1e-5, 20)
        p = np.full(20, 0.5)
        with pytest.raises(ValueError):
            DecayTrace(times=t[::-1], populations=p, kind="relaxation")
        with pytest.raises(ValueError):
            DecayTrace(times=t, populations=p, kind="t1")
        with pytest.raises(ValueError):
            bad = p.copy()
            bad[3] = 1.5
            DecayTrace(times=t, populations=bad, kind="relaxation")
        with pytest.raises(ValueError):
            DecayTrace(times=t, populations=p, kind="cpmg", n_pulses=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DecayTrace(times=[-5.0, 1e-6, 2e-6], populations=[0.9, 0.5, 0.4],
                       kind="relaxation")
        DecayTrace(times=[0.0, 1e-6], populations=[0.9, 0.5],
                   kind="relaxation")

    @pytest.mark.parametrize("times, populations", [
        ([0.0, np.nan, 2.0], [1.0, 0.5, np.nan]),
        ([0.0, 1.0, np.inf], [1.0, 0.5, 0.2]),
    ], ids=["nan", "inf_time"])
    def test_non_finite_rejected(self, times, populations):
        with pytest.raises(ValueError, match="finite"):
            DecayTrace(times=times, populations=populations,
                       kind="relaxation")

    def test_echo_is_one_pulse(self):
        t = np.linspace(0, 1e-5, 20)
        trace = DecayTrace(times=t, populations=np.full(20, 0.5), kind="echo")
        assert trace.n_pulses == 1

    def test_population_tolerance_edges(self):
        t = np.linspace(0, 1e-5, 20)
        p = np.full(20, 0.5)
        p[0], p[-1] = -0.1, 1.1  # exactly at the tolerance: allowed
        DecayTrace(times=t, populations=p, kind="relaxation")


class TestFitRelaxation:
    def test_noiseless_pin(self):
        fit = fit_relaxation(make_relaxation(t1=11.6e-6))
        assert fit.t1 == pytest.approx(11.6e-6, rel=1e-3)
        assert fit.amplitude == pytest.approx(0.9, rel=1e-3)
        assert fit.offset == pytest.approx(0.05, abs=1e-3)
        assert fit.errors["t1"] < 0.01 * fit.t1 + 1e-12

    def test_constant_trace(self):
        t = np.linspace(1e-7, 5e-5, 30)
        trace = DecayTrace(times=t, populations=np.full(30, 0.31),
                           kind="relaxation")
        fit = fit_relaxation(trace)
        assert abs(fit.amplitude) < 1e-6
        assert "low_confidence" in fit.flags

    def test_noisy_median(self):
        errs = []
        for seed in range(100):
            fit = fit_relaxation(make_relaxation(noise=0.02, seed=seed))
            errs.append(abs(fit.t1 / 11.6e-6 - 1.0))
        assert np.median(errs) < 0.03


class TestFitRamsey:
    def test_noiseless_pin(self):
        fit = fit_ramsey(make_ramsey(t2=8.2e-6, detuning=0.5e6))
        assert fit.t2 == pytest.approx(8.2e-6, rel=0.01)
        assert fit.detuning == pytest.approx(0.5e6, rel=0.01)
        assert fit.amplitude == pytest.approx(0.45, rel=0.01)

    def test_phase_recovery(self):
        fit = fit_ramsey(make_ramsey(phase=0.7))
        assert fit.phase == pytest.approx(0.7, abs=0.02)

    def test_detuning_matches_fft_bin(self):
        trace = make_ramsey(t2=8.2e-6, detuning=0.5e6)
        fit = fit_ramsey(trace)
        dt = trace.times[1] - trace.times[0]
        bin_width = 1.0 / (trace.times.size * dt)
        spectrum = np.abs(np.fft.rfft(trace.populations
                                      - trace.populations.mean()))
        f_fft = np.fft.rfftfreq(trace.times.size, dt)[np.argmax(spectrum[1:])
                                                      + 1]
        assert abs(fit.detuning - f_fft) <= bin_width

    @pytest.mark.filterwarnings("error")
    def test_zero_amplitude_flags(self):
        t = np.linspace(0, 2e-5, 64)
        trace = DecayTrace(times=t, populations=np.full(64, 0.5),
                           kind="ramsey")
        fit = fit_ramsey(trace)
        assert abs(fit.amplitude) < 1e-6
        assert fit.flags == ("no_oscillation", "detuning_unconstrained")

    def test_nine_points_rejected(self):
        from qnl.fitutil import FitError
        t = np.linspace(0, 2e-5, 9)
        trace = DecayTrace(times=t, populations=np.full(9, 0.5),
                           kind="ramsey")
        with pytest.raises(FitError, match="at least 10 points"):
            fit_ramsey(trace)

    def test_noisy_median(self):
        errs = []
        for seed in range(60):
            fit = fit_ramsey(make_ramsey(noise=0.02, seed=seed))
            errs.append(abs(fit.t2 / 8.2e-6 - 1.0))
        assert np.median(errs) < 0.05


class TestFitCpmg:
    def test_noiseless_pin(self):
        trace = make_cpmg(4, t1=11.94e-6, t_phi=5e-6, stretch=2.5)
        fit = fit_cpmg(trace, t1=11.94e-6)
        assert fit.t_phi == pytest.approx(5e-6, rel=0.03)
        assert fit.stretch == pytest.approx(2.5, rel=0.03)
        assert fit.t2 is not None and fit.t2 < 2 * 11.94e-6

    def test_t2_identity(self):
        trace = make_cpmg(2, t1=11.94e-6, t_phi=5e-6, stretch=2.0)
        fit = fit_cpmg(trace, t1=11.94e-6)
        lhs = fit.t2 / (2 * 11.94e-6) + (fit.t2 / fit.t_phi) ** fit.stretch
        assert lhs == pytest.approx(1.0, rel=1e-9)

    def test_stretch_bound_flag(self):
        # stretch far above the allowed window pins at the bound and flags
        trace = make_cpmg(4, t1=np.inf, t_phi=5e-6, stretch=6.0, noise=0.0)
        fit = fit_cpmg(trace, t1=1.0)
        assert "stretch_at_bound" in fit.flags

    def test_noisy_median(self):
        errs = []
        for seed in range(60):
            trace = make_cpmg(4, noise=0.01, seed=seed)
            fit = fit_cpmg(trace, t1=11.94e-6)
            errs.append(abs(fit.t_phi / 5e-6 - 1.0))
        assert np.median(errs) < 0.05


class TestT2FromDephasing:
    def test_relaxation_limit(self):
        assert t2_from_dephasing(11.94e-6, np.inf, 2.0) == pytest.approx(
            2 * 11.94e-6, rel=1e-9)

    def test_pure_dephasing_limit(self):
        assert t2_from_dephasing(np.inf, 5e-6, 2.0) == pytest.approx(
            5e-6, rel=1e-9)

    def test_balance_identity(self):
        for t1, t_phi, s in [(11.94e-6, 5e-6, 2.5), (1e-3, 2e-4, 1.0),
                             (5e-6, 50e-6, 0.7)]:
            t2 = t2_from_dephasing(t1, t_phi, s)
            assert t2 / (2 * t1) + (t2 / t_phi) ** s == pytest.approx(
                1.0, rel=1e-9)
            assert t2 < min(2 * t1, t_phi) + 1e-18


class TestFitScaling:
    def test_exact_power_law(self):
        points = [(n, 4e-6 * n ** 0.47) for n in (1, 2, 4, 8, 16)]
        fit = fit_scaling(points)
        assert fit.beta == pytest.approx(0.47, abs=1e-9)
        assert fit.alpha == pytest.approx(0.47 / 0.53, rel=1e-6)
        assert fit.alpha == pytest.approx(0.887, rel=1e-3)

    def test_paper_exponent_pair(self):
        points = [(n, 1e-6 * n ** 0.61) for n in (1, 2, 4, 8)]
        fit = fit_scaling(points)
        assert fit.alpha == pytest.approx(1.56, abs=0.01)

    def test_beta_alpha_round_trip(self):
        for beta in (0.2, 0.5, 0.8):
            points = [(n, 1e-6 * n ** beta) for n in (1, 2, 4, 8)]
            fit = fit_scaling(points)
            assert fit.beta / (1 + fit.beta * 0) == pytest.approx(beta,
                                                                  abs=1e-9)
            assert fit.alpha / (1 + fit.alpha) == pytest.approx(beta,
                                                                abs=1e-9)

    def test_too_few_points(self):
        from qnl.fitutil import FitError
        with pytest.raises(FitError):
            fit_scaling([(1, 1e-6), (2, 2e-6)])

    def test_n_below_one_rejected(self):
        from qnl.fitutil import FitError
        with pytest.raises(FitError, match="N >= 1"):
            fit_scaling([(0.5, 1e-6), (1, 2e-6), (2, 3e-6)])

    def test_single_n_rejected(self):
        # three dephasing times at one N fix no slope
        from qnl.fitutil import FitError
        with pytest.raises(FitError, match="distinct N"):
            fit_scaling([(4, 1e-6), (4, 2e-6), (4, 3e-6)])

    def test_unphysical_slope(self):
        # beta >= 1 cannot come from a finite alpha; flagged via error
        from qnl.fitutil import FitError
        points = [(n, 1e-6 * n ** 1.2) for n in (1, 2, 4, 8)]
        with pytest.raises(FitError, match=r"beta = 1\.2 "):
            fit_scaling(points)
