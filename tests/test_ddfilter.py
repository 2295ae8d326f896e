import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from qnl import ddfilter
from qnl.ddfilter import (FilterPeak, PulseSequence, _cpmg_filter,
                          filter_value, first_harmonic_peak)
from qnl.units import TWO_PI

# Peak position of g_N relative to the nominal N/(2 tau), frozen from a
# dense independent scan (1e-7 relative bracketing of the maximum).
PEAK_RATIO = {1: 1.4840, 2: 1.1478, 3: 1.0710, 4: 1.0413, 8: 1.0107,
              16: 1.0027}


def seq(n, tau=100e-6, tau_pi=0.0):
    return PulseSequence(n_pulses=n, tau=tau, tau_pi=tau_pi)


class TestSequenceValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PulseSequence(n_pulses=-1, tau=1e-4)
        with pytest.raises(ValueError):
            PulseSequence(n_pulses=0, tau=0.0)
        with pytest.raises(ValueError):
            PulseSequence(n_pulses=2, tau=1e-4, tau_pi=-1e-6)
        with pytest.raises(ValueError):
            # pulses don't fit in the window
            PulseSequence(n_pulses=10, tau=1e-4, tau_pi=1.1e-5)

    @pytest.mark.parametrize("args, field", [
        ((2, np.nan), "tau"), ((2, np.inf), "tau"),
        ((2, 1e-5, np.nan), "tau_pi"), ((2, 1e-5, np.inf), "tau_pi"),
        ((2.5, 1e-5), "n_pulses"), ((True, 1e-5), "n_pulses")])
    def test_rejects_fields_it_cannot_use(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            PulseSequence(*args)

    def test_accepts_numpy_integer_pulse_count(self):
        s = PulseSequence(np.int64(3), 1e-5, 1e-6)
        assert s._free_fraction == PulseSequence(3, 1e-5, 1e-6)._free_fraction
        assert filter_value(s, 4e5) == filter_value(seq(3, 1e-5, 1e-6), 4e5)


class TestSwitchingJumps:
    @pytest.mark.parametrize("fields, c, t", [
        pytest.param((4, 8.0), [1, -2, 2, -2, 2, -1], [0, 1, 3, 5, 7, 8],
                     id="cpmg4"),
        pytest.param((0, 8.0), [1, -1], [0, 8], id="ramsey"),
        pytest.param((2, 8.0, 1.0), [1, -1, -1, 1, 1, -1],
                     [0, 1.5, 2.5, 5.5, 6.5, 8], id="finite_pulses")])
    def test_hand_written_lists(self, fields, c, t):
        got_c, got_t = ddfilter.switching_jumps(PulseSequence(*fields))
        assert got_c.tolist() == c
        assert got_t.tolist() == t

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 200),
           q=st.one_of(st.just(0.0),
                       st.floats(0.0, 0.99, exclude_max=True)),
           log_tau=st.floats(-9.0, 0.0))
    # N tau_pi within rounding of tau, where the rounded times were out of
    # order: the last pulse's end 1.7e-21 s past tau at N = 7, and 15 and
    # 61 steps back in t at N = 64 and 200
    @example(n=7, q=1 - 2**-53, log_tau=-5.0)
    @example(n=64, q=1 - 2**-53, log_tau=-5.0)
    @example(n=200, q=1 - 2**-53, log_tau=-5.0)
    def test_jumps_property(self, n, q, log_tau):
        tau = 10.0 ** log_tau
        s = seq(n, tau, q * tau / max(n, 1))
        c, t = ddfilter.switching_jumps(s)
        # s(t) starts and ends at 0 outside the window ...
        assert c.sum() == 0.0
        # ... and for N >= 1 integrates to 0 (the filter rejects DC), to
        # rounding: over 300,000 draws the worst was 0.50 of this bound
        if n >= 1:
            bound = np.finfo(float).eps * tau * np.abs(c).sum()
            assert abs(c @ t) <= bound
        assert len(c) == len(t) == (n + 2 if s.tau_pi == 0 else 2 * n + 2)
        assert t[0] == 0.0 and t[-1] == tau
        assert np.all(np.diff(t) >= 0.0)


class TestRamseyFilter:
    def test_dc_limit(self):
        assert filter_value(seq(0), 0.0) == pytest.approx(1.0)

    def test_sinc_squared(self):
        tau = 100e-6
        omega = np.linspace(1.0, 3e5, 400)
        x = omega * tau / 2.0
        expected = (np.sin(x) / x) ** 2
        assert np.allclose(filter_value(seq(0, tau), omega), expected,
                           rtol=1e-10)

    def test_zeros_at_harmonics(self):
        tau = 100e-6
        for m in (1, 2, 3):
            omega = 2.0 * np.pi * m / tau
            assert filter_value(seq(0, tau), omega) < 1e-20


class TestCpmgFilter:
    def test_dc_rejection(self):
        for n in (1, 2, 4, 8):
            assert filter_value(seq(n), 0.0) == 0.0

    def test_echo_closed_form(self):
        # N=1, tau_pi=0: y = 1 + e^{ix} - 2 e^{ix/2} -> g = 16 sin^4(x/4)/x^2
        tau = 100e-6
        omega = np.linspace(1e3, 4e5, 300)
        x = omega * tau
        expected = 16.0 * np.sin(x / 4.0) ** 4 / x ** 2
        assert np.allclose(filter_value(seq(1, tau), omega), expected,
                           rtol=1e-9)

    def test_small_argument_asymptotics(self):
        # echo rises as x^2/16 out of DC; even N cancels the quadratic
        # term too and rises quartically (N=2: x^4/1024)
        tau = 100e-6
        for x in (1e-3, 1e-5, 1e-8):
            assert filter_value(seq(1, tau), x / tau) == pytest.approx(
                x ** 2 / 16.0, rel=1e-4)
            assert filter_value(seq(2, tau), x / tau) == pytest.approx(
                x ** 4 / 1024.0, rel=1e-4)

    def test_matches_naive_exponential_sum(self):
        # closed form == the sum over switching_jumps, c @ e^{i omega t},
        # where the latter is accurate (x >= 0.01 N; below, its O(1) terms
        # cancel to |y| << 1), and at and within 1e-12 relative of the odd
        # harmonics x = (2m+1) N pi
        tau = 100e-6
        for n in (1, 2, 3, 5, 8, 16, 33, 64):
            harmonics = np.outer((2 * np.arange(4) + 1) * n * np.pi,
                                 [1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-15])
            x = np.concatenate((np.geomspace(1e-2 * n, 1e2 * n, 200),
                                harmonics.ravel()))
            omega = x / tau
            for tau_pi in (0.0, 1e-3 * tau / n, 0.13 * tau / n):
                c, t = ddfilter.switching_jumps(seq(n, tau, tau_pi))
                y = np.exp(1j * np.outer(omega, t)) @ c
                expected = np.abs(y) ** 2 / x ** 2
                assert np.allclose(filter_value(seq(n, tau, tau_pi), omega),
                                   expected, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8, 16))
    def test_pulse_filled_limit_matches_mpmath(self, n):
        # as N tau_pi -> tau the pulse-shape factor sin((u - v)/2) goes to
        # zero; g stays accurate to 1e-12 relative across the first lobe
        # against a 60-digit direct pulse sum at the same float inputs
        tau = 100e-6
        for q in (0.3, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9):
            s = seq(n, tau, q * tau / n)
            x_pk = TWO_PI * first_harmonic_peak(s).f_peak * tau
            omega = np.linspace(0.3, 1.7, 41) * x_pk / tau
            got = filter_value(s, omega)
            with mp.workdps(60):
                for w, g in zip(omega, got):
                    w = mp.mpf(w)
                    y = 1 + (-1) ** (1 + n) * mp.expj(w * tau) + 2 * mp.cos(
                        w * mp.mpf(s.tau_pi) / 2) * mp.fsum(
                        (-1) ** j * mp.expj(w * tau * (j - mp.mpf(0.5)) / n)
                        for j in range(1, n + 1))
                    ref = abs(y) ** 2 / (w * tau) ** 2
                    assert abs(g - ref) <= 1e-12 * ref, (q, float(w))

    def test_scalar_at_harmonic_is_finite_float(self):
        tau = 100e-6
        for n in (1, 2, 3, 8, 64):
            for m in (0, 1, 5):
                g = filter_value(seq(n, tau), (2 * m + 1) * n * np.pi / tau)
                assert isinstance(g, float)
                assert np.isfinite(g)
                # |y| = 2N at every odd harmonic of instantaneous pulses
                assert g == pytest.approx(
                    (2.0 / ((2 * m + 1) * np.pi)) ** 2, rel=1e-12)

    def test_scalar_rounds_as_an_array_point(self):
        # one rounding of the formula: a scalar call squares as an array
        # does, so g(w) == g([w])[0] bit for bit
        rng = np.random.default_rng(24)
        sequences = [seq(n, 20e-6, tau_pi) for n in range(1, 17)
                     for tau_pi in (0.0, 20e-9)]
        picks = rng.integers(0, len(sequences), 20000)
        omegas = rng.uniform(0.0, 4e7, 20000)
        differ = [(sequences[i], w) for i, w in zip(picks, omegas)
                  if filter_value(sequences[i], w)
                  != filter_value(sequences[i], [w])[0]]
        # N = 0 as well: a 0-d sinc^2 once differed in the last bit at
        # about 3 of 5000 points, the first of these among them
        ramsey = seq(0, 20e-6)
        omegas = np.concatenate(([950954.030859895],
                                 rng.uniform(-4e7, 4e7, 5000)))
        differ += [(ramsey, w) for w in omegas
                   if filter_value(ramsey, w) != filter_value(ramsey, [w])[0]]
        assert differ == []

    # float.hex of g at N = 4, tau = 2^-16 s, tau_pi = 20 ns, so that
    # x = omega tau is exact: DC, three points below u = x/2N = 1, u = 1,
    # the odd harmonics x = 4 pi and 12 pi (e == 0 exactly) and two points
    # above; taken before _tail took its products in place
    PINNED_OMEGA = np.array([0.0, 1e3, 2e5, 8 * 2**16, 4 * np.pi * 2**16,
                             12 * np.pi * 2**16, 1e6, 3.3e7])
    PINNED_G = ["0x0.0p+0", "0x1.d1a0c8db26d6dp-39", "0x1.50f96a5f21a2dp-9",
                "0x1.a8881c572e7bbp-6", "0x1.9efbc18033932p-2",
                "0x1.70ac8db9d101cp-5", "0x1.0f45c8a46bba2p-2",
                "0x1.cccbb78a372aep-28"]

    def test_pinned_array_bits(self):
        s = seq(4, 2.0**-16, 20e-9)
        u = 0.5 * (self.PINNED_OMEGA * s.tau) / 4
        assert list(u < 1.0) == [True] * 3 + [False] * 5
        assert list(ddfilter._phase(u[4:6])) == [0.0, 0.0]
        g = filter_value(s, self.PINNED_OMEGA)
        assert [float(x).hex() for x in g] == self.PINNED_G

    def test_deep_dc_tail(self):
        # even N: g -> x^4 / (64 N^4) with no rounding floor as x -> 0
        tau = 100e-6
        for n in (2, 4, 16, 64):
            for x in (1e-6, 1e-12, 1e-20):
                assert filter_value(seq(n, tau), x / tau) == pytest.approx(
                    x ** 4 / (64.0 * n ** 4), rel=1e-9)

    def test_even_in_omega(self):
        tau = 55e-6
        omega = np.linspace(1e2, 6e5, 57)
        for n in (0, 1, 4):
            assert np.allclose(filter_value(seq(n, tau), -omega),
                               filter_value(seq(n, tau), omega), rtol=1e-12)

    def test_nominal_harmonic_near_peak(self):
        # g at omega = 2 pi N/(2 tau) is within 5% of the global max
        tau = 100e-6
        s = seq(8, tau)
        nominal = filter_value(s, 2.0 * np.pi * 8 / (2 * tau))
        peak = first_harmonic_peak(s)
        g_max = filter_value(s, 2.0 * np.pi * peak.f_peak)
        assert nominal >= 0.95 * g_max

    def test_scan_confirms_first_harmonic_is_global_max(self):
        tau = 100e-6
        for n in (1, 2, 4, 8):
            s = seq(n, tau)
            peak = first_harmonic_peak(s)
            omega = np.linspace(1.0, 2.0 * np.pi * 6 * n / tau, 200_001)
            g = filter_value(s, omega)
            g_pk = filter_value(s, 2.0 * np.pi * peak.f_peak)
            assert g.max() <= g_pk * (1.0 + 1e-6)


class TestFirstHarmonicPeak:
    def test_frozen_peak_ratios(self):
        tau = 100e-6
        for n, ratio in PEAK_RATIO.items():
            peak = first_harmonic_peak(seq(n, tau))
            nominal = n / (2.0 * tau)
            assert peak.f_peak / nominal == pytest.approx(ratio, abs=2e-4)

    def test_peak_height_range(self):
        for n in (1, 2, 4, 8, 16):
            s = seq(n)
            peak = first_harmonic_peak(s)
            g_pk = filter_value(s, 2.0 * np.pi * peak.f_peak)
            assert 0.40 <= g_pk <= 0.53

    def test_width_scaling(self):
        # FWHM·tau is a slowly varying constant of order 2 pi
        for n in (1, 2, 4, 8, 16):
            s = seq(n)
            peak = first_harmonic_peak(s)
            assert 4.9 <= peak.delta_omega * s.tau <= 5.6

    def test_tau_scaling(self):
        a = first_harmonic_peak(seq(4, tau=40e-6))
        b = first_harmonic_peak(seq(4, tau=80e-6))
        assert a.f_peak == pytest.approx(2.0 * b.f_peak, rel=1e-13)
        assert a.delta_omega == pytest.approx(2.0 * b.delta_omega, rel=1e-13)
        assert a.f_peak == pytest.approx(4 / (2 * 40e-6), rel=0.05)

    def test_width_matches_scalar_flank_walk(self):
        # reference: walk out from the peak one scalar step at a time
        def flank(s, omega_pk, half, direction):
            prev = omega_pk
            for i in range(1, 2001):
                w = max(omega_pk + direction * i * (omega_pk / 200.0),
                        1e-12 * omega_pk)
                if filter_value(s, w) < half:
                    return brentq(lambda u: filter_value(s, u) - half,
                                  *sorted((prev, w)), xtol=1e-300,
                                  rtol=4 * np.finfo(float).eps)
                prev = w
            raise AssertionError("no half-maximum crossing")

        for n, tau_pi in ((1, 0.0), (2, 0.0), (5, 3e-6), (16, 0.0),
                          (64, 1e-7)):
            s = seq(n, tau_pi=tau_pi)
            peak = first_harmonic_peak(s)
            omega_pk = 2.0 * np.pi * peak.f_peak
            half = 0.5 * filter_value(s, omega_pk)
            width = flank(s, omega_pk, half, 1) - flank(s, omega_pk, half, -1)
            assert peak.delta_omega == pytest.approx(width, rel=1e-14)

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 16, 64))
    @pytest.mark.parametrize("q", (0.0, 0.2, 0.9))
    def test_matches_mpmath_pulse_sum(self, n, q):
        # 30-digit direct pulse sum; q = N tau_pi / tau
        tau = 100e-6
        peak = first_harmonic_peak(seq(n, tau, q * tau / n))
        x_pk, width = TWO_PI * peak.f_peak * tau, peak.delta_omega * tau

        def g(x):
            y = 1 + (-1) ** (1 + n) * mp.expj(x) + 2 * mp.cos(
                x * mp.mpf(q) / (2 * n)) * mp.fsum(
                (-1) ** j * mp.expj(x * (j - mp.mpf(0.5)) / n)
                for j in range(1, n + 1))
            return abs(y) ** 2 / x ** 2

        with mp.workdps(30):
            ref_pk = mp.findroot(lambda x: mp.diff(g, x), x_pk)
            half = g(ref_pk) / 2
            ref_lo, ref_hi = (mp.findroot(lambda x: g(x) - half, x0)
                              for x0 in (x_pk - width / 2, x_pk + width / 2))
            assert ref_lo < ref_pk < ref_hi
            assert x_pk == pytest.approx(float(ref_pk), rel=1e-13)
            assert width == pytest.approx(float(ref_hi - ref_lo), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), q=st.floats(0.0, 0.99, exclude_max=True),
           log_tau=st.floats(-9.0, 0.0))
    def test_peak_and_half_maxima_property(self, n, q, log_tau):
        tau = 10.0 ** log_tau
        s = seq(n, tau, q * tau / n)
        peak = first_harmonic_peak(s)
        x_pk, width = TWO_PI * peak.f_peak * tau, peak.delta_omega * tau

        def g(x):
            return filter_value(s, x / tau)

        # the lobe holding the first harmonic: between the zeros of the
        # pulse-sum factor at (N -+ 2) pi, or for the echo up to the first
        # zero of the pulse-shape factor
        lo, hi = ((0.0, 4.0 * np.pi / (1.0 + q)) if n == 1 else
                  (max(n - 2, 0) * np.pi, (n + 2) * np.pi))
        g_pk = g(x_pk)
        assert g(np.linspace(lo, hi, 4001)).max() <= g_pk * (1.0 + 1e-12)
        # the FWHM pair: the points width apart with equal g
        x_lo = brentq(lambda x: g(x) - g(x + width), x_pk - width, x_pk,
                      xtol=1e-300, rtol=4 * np.finfo(float).eps)
        x_hi = x_lo + width
        assert lo < x_lo < x_pk < x_hi < hi
        assert g(x_lo) == pytest.approx(0.5 * g_pk, rel=1e-12)
        assert g(x_hi) == pytest.approx(0.5 * g_pk, rel=1e-12)
        # scale invariance in tau
        unit = first_harmonic_peak(seq(n, 1.0, q / n))
        assert peak.f_peak * tau == pytest.approx(unit.f_peak, rel=1e-13)
        assert peak.delta_omega * tau == pytest.approx(unit.delta_omega,
                                                       rel=1e-13)

    def test_peak_of_a_hundred_million_pulses(self):
        # the lobe ends lie above 2^27, where a billionth of the lobe is
        # less than half an ulp: the bracket steps in by an ulp instead
        peak = first_harmonic_peak(seq(10**8, 1e-6))
        assert abs(peak.f_peak / (10**8 / 2e-6) - 1.0) <= 1e-9

    @pytest.mark.parametrize("n, tau, f_peak, delta_omega", [
        (1, 2.7318e-05, "0x1.a86918d3f18d3p+14", "0x1.66c5e374177e7p+17"),
        (8, 1.29731e-05, "0x1.305362122c602p+18", "0x1.a01f9f9d4c667p+18"),
        (64, 4.0917e-06, "0x1.dd6967a63e61ap+22", "0x1.4c1557d053265p+20")])
    def test_frozen_peak_bits(self, n, tau, f_peak, delta_omega):
        # keys as psd_sweep has them (tau_pi = 20 ns), with the bits of a
        # search whose every g went through the array path
        ddfilter._harmonic_roots.cache_clear()
        peak = first_harmonic_peak(seq(n, tau, 2e-8))
        assert (peak.f_peak.hex(), peak.delta_omega.hex()) == (f_peak,
                                                               delta_omega)

    @pytest.mark.parametrize("n", (1, 2, 3, 8, 32, 64, 256))
    def test_roots_as_through_the_array_path(self, n, monkeypatch):
        # every g of the search taken as a point of a one-element array
        # gives the same three roots from the same number of calls
        cpmg = ddfilter._cpmg_filter

        def search(g, p, free):
            calls = []

            def counted(n, x, v, free):
                calls.append(x)
                return g(n, x, v, free)

            monkeypatch.setattr(ddfilter, "_cpmg_filter", counted)
            ddfilter._harmonic_roots.cache_clear()
            try:
                return ddfilter._harmonic_roots(n, p, free), len(calls)
            finally:
                ddfilter._harmonic_roots.cache_clear()

        for p in (0.0, 1e-3, 0.5 / n, 0.999 / n):
            free = PulseSequence(n, 1.0, p)._free_fraction
            as_float = search(cpmg, p, free)
            as_array = search(lambda n, x, v, free: float(
                cpmg(n, np.array([x]), np.array([v]), free)[0]), p, free)
            assert as_float == as_array
            assert as_float[1] > 0

    def test_ramsey_has_no_harmonic(self):
        with pytest.raises(ValueError):
            first_harmonic_peak(seq(0))

    def test_finite_pulse_width_lowers_peak(self):
        tau = 100e-6
        ideal = first_harmonic_peak(seq(8, tau))
        wide = first_harmonic_peak(seq(8, tau, tau_pi=2e-6))
        g_ideal = filter_value(seq(8, tau), 2 * np.pi * ideal.f_peak)
        g_wide = filter_value(seq(8, tau, tau_pi=2e-6),
                              2 * np.pi * wide.f_peak)
        assert g_wide < g_ideal


class TestIntegralOracles:
    def test_total_area_pi_over_tau(self):
        # integral of g_N over omega from 0 to inf equals pi/tau for all N
        tau = 100e-6
        omega = np.linspace(1e-3, 3000.0 / tau, 3_000_001)
        for n in (0, 1, 2, 4):
            g = filter_value(seq(n, tau), omega)
            area = np.trapezoid(g, omega)
            # tail beyond the grid decays as 2/(omega^2 tau^2) on average
            tail = 2.0 / (omega[-1] * tau ** 2)
            assert area + tail == pytest.approx(np.pi / tau, rel=2e-3)

    def test_band_limited_area_decreases_with_n(self):
        # within a fixed low-frequency band the filter passes less noise
        # as pulses are added: the passband migrates up and out
        tau = 100e-6
        omega = np.linspace(1e-3, 4.0 / tau, 20_001)
        areas = [np.trapezoid(filter_value(seq(n, tau), omega), omega)
                 for n in (0, 1, 2, 4, 8)]
        assert np.all(np.diff(areas) < 0)


def test_filter_peak_validation():
    with pytest.raises(ValueError):
        FilterPeak(f_peak=0.0, delta_omega=1.0)
    with pytest.raises(ValueError):
        FilterPeak(f_peak=1e4, delta_omega=-1.0)


@st.composite
def _pulse_fields(draw):
    """(n, tau, tau_pi) with n tau_pi < tau: tau_pi a share of tau/n, a
    subnormal, or tau/n stepped down by a few ulps."""
    n = draw(st.integers(0, 256))
    tau = draw(st.floats(5e-324, 1e300))
    kind = draw(st.sampled_from(("share", "subnormal", "edge")))
    if kind == "share" or n == 0:
        tau_pi = draw(st.floats(0.0, 0.999)) * tau / max(n, 1)
    elif kind == "subnormal":
        tau_pi = draw(st.floats(0.0, 2.2250738585072014e-308))
    else:
        tau_pi = tau / n
        for _ in range(draw(st.integers(0, 4))):
            tau_pi = float(np.nextafter(tau_pi, 0.0))
    assume(n * tau_pi < tau)
    return n, tau, tau_pi


@settings(max_examples=400, deadline=None)
@given(fields=_pulse_fields())
@example(fields=(3, 1e-5, 5e-324))
@example(fields=(3, 1e-5, float(np.nextafter(1e-5 / 3, 0.0))))
@example(fields=(7, 3e-320, 4e-321))
def test_free_fraction_is_the_exact_ratio_rounded_once(fields):
    n, tau, tau_pi = fields
    ref = float(1 - n * Fraction(tau_pi) / Fraction(tau))
    assert PulseSequence(n, tau, tau_pi)._free_fraction == ref


def _cpmg_filter_oracle(n, x, v, free):
    """The filter with both forms of r formed at every point and picked by
    np.where: the reference _cpmg_filter must match to the bit."""
    u = 0.5 * x / n
    e = np.mod(u, np.pi) - 0.5 * np.pi
    p = np.sin(0.5 * x) if n % 2 == 0 else np.cos(0.5 * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(u < 1.0, p / np.cos(u),
                     np.where(e == 0.0, n, np.sin(n * e) / np.sin(e)))
        s = np.sin(0.5 * (u + v)) * np.sin(0.5 * u * free)
        g = np.square(4.0 * r * s) / np.square(x)
    g = np.where(x < 1e-150, 0.0, g)
    return float(g) if g.ndim == 0 else g


def _edge_points(n):
    """DC, the 1e-150 cut, u = x/2N = 1 and the ulps around it, and the odd
    harmonics (2m+1) N pi, where e == 0 for a power-of-two N."""
    edge = 2.0 * n
    eps = np.finfo(float).eps
    return np.concatenate((
        [0.0, 1e-151, 1e-150, edge, edge * (1.0 + eps), edge * (1.0 - eps),
         np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)],
        (2 * np.arange(4) + 1) * n * np.pi))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 256),
       q=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
       drawn=st.lists(st.floats(0.0, 1e4), max_size=40))
@example(n=4, q=0.0, drawn=[])
@example(n=256, q=0.5, drawn=[])
def test_split_evaluation_matches_the_where_oracle(n, q, drawn):
    # q = N tau_pi / tau; v = x tau_pi / 2 tau as first_harmonic_peak has it
    p = q / n
    free = PulseSequence(n, 1.0, p)._free_fraction
    x = np.concatenate((_edge_points(n), drawn, [1.0] * (len(drawn) % 2)))
    v = 0.5 * x * p
    for shape in ((-1,), (2, -1), (-1, 1)):
        xs, vs = x.reshape(shape), v.reshape(shape)
        assert np.array_equal(_cpmg_filter(n, xs, vs, free),
                              _cpmg_filter_oracle(n, xs, vs, free))
    for xi, vi in zip(x, v):
        for kind in (float, np.float64, np.asarray):
            got = _cpmg_filter(n, kind(xi), kind(vi), free)
            assert type(got) is float
            assert got == _cpmg_filter_oracle(n, kind(xi), kind(vi), free)


@pytest.mark.parametrize("n", (1, 2, 7))
@pytest.mark.parametrize("x, kinds", [
    (np.linspace(0.0, 100.0, 51), set()),
    (np.float64(1e160), {"overflow"}),
    (np.array([1.0, 1e160]), {"overflow"}),
    (np.float64(np.inf), {"invalid value"}),
    (np.array([1.0, np.inf, np.nan]), {"invalid value"}),
    (np.float64(np.nan), set()),
    (1e160, {"overflow"}),
    (np.inf, {"invalid value"}),
    (np.nan, set()),
    (50.0, set())])
def test_same_warnings_escape_as_under_the_oracle(n, x, kinds):
    # the oracle also warns on sin(inf) in the form of r it then drops;
    # what escapes is the same kind of RuntimeWarning, or none
    def escaped(f):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f(n, x, 0.01 * x, 0.98)
        assert all(w.category is RuntimeWarning for w in caught)
        return {str(w.message).split(" encountered")[0] for w in caught}

    assert escaped(_cpmg_filter) == escaped(_cpmg_filter_oracle) == kinds
