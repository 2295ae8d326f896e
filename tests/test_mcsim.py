import bisect
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from qnl import mcsim
from qnl.ddfilter import PulseSequence, filter_value, switching_jumps
from qnl.mcsim import (SyntheticNoise, Trajectory, _band_variance,
                       dephasing_integral, simulate_sequence,
                       synthesize_noise)
from qnl.noisespec import FrequencySeries, periodogram, powerlaw_fit
from qnl.units import TWO_PI


def spec(**kw):
    base = dict(amplitude=1e4, alpha=1.0, f_min=1e4, f_max=1e5, seed=0)
    base.update(kw)
    return SyntheticNoise(**base)


def reseed(s, seed):
    return dataclasses.replace(s, seed=seed)


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
        for amplitude in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^amplitude must be finite"):
                spec(amplitude=amplitude)
        with pytest.raises(ValueError, match="f_max < inf, got 10000.0, inf$"):
            spec(f_max=np.inf)

    def test_zero_amplitude_allowed(self):
        traj = synthesize_noise(spec(amplitude=0.0), dt=1e-6, n=64)
        assert np.all(traj.samples == 0.0)


class TestBandVariance:
    def test_white(self):
        s = spec(alpha=0.0, amplitude=2.0, f_min=10.0, f_max=110.0)
        assert _band_variance(s, 10.0, 110.0) == pytest.approx(200.0)

    def test_one_over_f(self):
        s = spec(alpha=1.0, amplitude=3.0, f_min=1.0, f_max=100.0)
        assert _band_variance(s, 1.0, 100.0) == pytest.approx(
            3.0 * np.log(100.0))

    def test_general_alpha(self):
        s = spec(alpha=1.5, amplitude=2.0, f_min=1.0, f_max=16.0)
        expected = 2.0 / 0.5 * (1.0 - 16.0 ** -0.5)
        assert _band_variance(s, 1.0, 16.0) == pytest.approx(expected)


class TestSynthesizeNoise:
    def test_deterministic(self):
        a = synthesize_noise(spec(seed=3), dt=1e-6, n=512)
        b = synthesize_noise(spec(seed=3), dt=1e-6, n=512)
        c = synthesize_noise(spec(seed=4), dt=1e-6, n=512)
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
        var = np.mean([synthesize_noise(reseed(s, i), dt, n).samples.var()
                       for i in range(300)])
        expected = _band_variance(s, s.f_min, s.f_max)
        assert var == pytest.approx(expected, rel=0.03)

    def test_flat_spectrum_ensemble(self):
        # alpha = 0: mean periodogram level in the band equals the
        # amplitude, and out-of-band bins carry no power at all
        s = spec(alpha=0.0, amplitude=7.5, f_min=1e4, f_max=4e5)
        dt, n = 1e-6, 256
        psd = np.zeros(n // 2)
        for i in range(200):
            traj = synthesize_noise(reseed(s, i), dt, n)
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
            traj = synthesize_noise(reseed(s, i), dt, n)
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
                traj = synthesize_noise(reseed(s, i), dt, n)
                assert np.ptp(traj.samples) < 1e-9 * max(
                    1.0, abs(traj.samples[0]))
                offsets.append(traj.samples[0])
        expected = _band_variance(s, 0.01, 1.0)
        assert np.var(offsets) == pytest.approx(expected, rel=0.25)


def reference_spectra(s, dt, n, z=None):
    """The rfft of the records that the rows of z make (default: row 0 of
    s.seed's stream), written out in one piece from the documented layout
    and without the spectral helpers of mcsim.

    A row holds one standard normal per in-band real part, in bin order,
    then one per in-band imaginary part (an even n's Nyquist coefficient
    is real and has none), then the static offset's when the band reaches
    below the record resolution.
    """
    freqs = np.fft.rfftfreq(n, dt)
    in_band = (freqs >= s.f_min) & (freqs <= s.f_max) & (freqs > 0)
    psd = np.zeros(len(freqs))
    psd[in_band] = s.amplitude * freqs[in_band] ** -s.alpha
    scale_im = np.sqrt(psd * n / (2.0 * dt)) / np.sqrt(2.0)
    scale_re = scale_im.copy()
    if n % 2 == 0:
        scale_re[-1] = np.sqrt(psd[-1] * n / dt) / np.sqrt(2.0)
    k_re = np.flatnonzero(psd)
    k_im = k_re[k_re < n / 2]
    static = s.amplitude > 0 and s.f_min < freqs[1]
    width = len(k_re) + len(k_im) + static
    if z is None:
        z = np.random.default_rng(s.seed).standard_normal((1, width))
    assert z.shape[1] == width
    spectra = np.zeros((len(z), len(freqs)), dtype=complex)
    spectra.real[:, k_re] = scale_re[k_re] * z[:, :len(k_re)]
    spectra.imag[:, k_im] = (scale_im[k_im]
                             * z[:, len(k_re):len(k_re) + len(k_im)])
    if static:
        var_static = _band_variance(s, s.f_min, min(s.f_max, freqs[1]))
        spectra[:, 0] = n * np.sqrt(var_static) * z[:, -1]
    return spectra


def reference_synthesis(s, dt, n):
    """synthesize_noise written out: the record of row 0; the two agree
    bit for bit."""
    return np.fft.irfft(reference_spectra(s, dt, n)[0], n=n)


@pytest.mark.parametrize("fields, n", [
    (dict(alpha=1.5, f_min=2e4, f_max=5e5), 3048),       # Nyquist in band
    (dict(alpha=1.5, f_min=2e4, f_max=1e7), 64),         # clipped
    (dict(alpha=0.0, f_min=1e3, f_max=2e5), 7681),       # odd n
    (dict(alpha=1.0, f_min=10.0, f_max=1e5), 512),       # static offset
    (dict(alpha=1.0, f_min=2e4, f_max=5e5, amplitude=0.0), 65),
], ids=["nyquist", "clipped", "odd", "static", "no_noise"])
def test_synthesis_is_bit_identical_to_reference(fields, n):
    s = spec(**{"amplitude": 3e7, **fields})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in (0, 5):
            samples = synthesize_noise(reseed(s, seed), 1e-6, n).samples
            assert np.array_equal(
                samples, reference_synthesis(reseed(s, seed), 1e-6, n))


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

    @pytest.mark.parametrize("taus", [[], [np.nan], [5e-6, np.nan]],
                             ids=["empty", "nan", "nan_among_delays"])
    def test_bad_delays_rejected_before_any_draw(self, taus, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew normals before checking taus")

        monkeypatch.setattr(mcsim, "_rng", no_draws)
        seq = PulseSequence(n_pulses=1, tau=20e-6)
        with pytest.raises(ValueError, match="taus"):
            simulate_sequence(spec(), seq, sensitivity=1.0, n_traj=8,
                              dt=1e-7, taus=taus)

    @pytest.mark.parametrize("taus", [[0.0, 2e-5], [-1e-5, 2e-5]],
                             ids=["at_zero", "negative"])
    def test_delays_checked_before_dt(self, taus):
        # qnl simulate derives its default dt from the first delay, so a
        # delay at or below 0 must be named before the dt it made
        seq = PulseSequence(n_pulses=1, tau=20e-6)
        with pytest.raises(ValueError, match="^taus must be"):
            simulate_sequence(spec(), seq, sensitivity=1.0, n_traj=8,
                              dt=taus[0] / 32, taus=taus)

    def test_too_fine_dt_rejected_before_allocating(self):
        # a record of 1e26 samples: refused before numpy is asked for it
        seq = PulseSequence(n_pulses=1, tau=20e-6)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^dt = 1e-30 s is too "
                                                 r"small: .* exceeds the limit"):
                simulate_sequence(spec(), seq, sensitivity=1.0, n_traj=8,
                                  dt=1e-30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_record_bound_is_inclusive(self, monkeypatch):
        # a record of n samples at 16 delays passes at n * 16 equal to the
        # bound and reaches _row_layout, stubbed so that nothing is
        # allocated; one sample more is refused
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(mcsim, "_row_layout", reached)
        seq = PulseSequence(n_pulses=1, tau=20e-6)
        s = spec(f_min=1e6, f_max=2e6)      # the record spans 2 tau
        taus = np.full(16, seq.tau)
        n = mcsim._MAX_GAIN_SIZE // 16
        with pytest.raises(Reached):
            mcsim._gain(s, seq, 1.0, 2 * seq.tau / n, taus)
        with pytest.raises(ValueError, match="too small"):
            mcsim._gain(s, seq, 1.0, 2 * seq.tau / (n + 1), taus)

    def test_bound_applies_to_the_rounded_length(self, monkeypatch):
        # 695,000 samples at 24 delays are within the bound, but they round
        # up to 699,840 = 2^6 3^7 5, which is not: refused before
        # _row_layout, stubbed so that nothing is allocated
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(mcsim, "_row_layout", reached)
        seq = PulseSequence(n_pulses=1, tau=20e-6)
        s = spec(f_min=1e6, f_max=2e6)      # the record spans 2 tau
        taus = np.full(24, seq.tau)
        assert 695_001 * 24 <= mcsim._MAX_GAIN_SIZE < 699_840 * 24
        with pytest.raises(ValueError, match=r"too small: .* of 7e\+05 "
                                             r"samples at 24 delays"):
            mcsim._gain(s, seq, 1.0, 2 * seq.tau / 695_000, taus)

    def test_populations_are_pinned(self):
        # float.hex of the populations since 0.10.0: one normal per delay
        # per trajectory, P_e from the real part of <e^{i phi}>, and a
        # record of 3072 = 2^10 3 samples (3048 before the rounding)
        s = SyntheticNoise(amplitude=1.1e10, alpha=1.0, f_min=2.1e3,
                           f_max=2e6, seed=11)
        trace = simulate_sequence(s, PulseSequence(n_pulses=4, tau=25e-6),
                                  sensitivity=1.0, n_traj=200,
                                  dt=25e-6 / 160,
                                  taus=np.linspace(6.25e-6, 25e-6, 4))
        assert [p.hex() for p in trace.populations] == [
            "0x1.f65e3a01b4640p-1", "0x1.d8fc8ee4ec0a6p-1",
            "0x1.b00181166f6e4p-1", "0x1.73f47942946b8p-1"]

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


def record_length(s, seq, dt):
    """The record length simulate_sequence synthesizes for (s, seq, dt)."""
    return mcsim._record_length(s, seq, dt, 1)


def is_5_smooth(m):
    """Whether m >= 1 has no prime factor above 5."""
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_record_length_rounds_up_to_the_next_5_smooth_count():
    # brute force, for every m: the rounded n >= m is 5-smooth, and no
    # 5-smooth count lies in [m, n)
    limit = 20_000
    smooth = [k for k in range(1, 2 * limit) if is_5_smooth(k)]
    for m in range(1, limit + 1):
        n = mcsim._five_smooth_ceil(m)
        assert n >= m and is_5_smooth(n)
        assert smooth[bisect.bisect_left(smooth, m)] == n


def test_criterion_8_pair_record_is_5_smooth():
    # tau = 12 us and dt = 0.1 us on a band below 1/(64 tau): 768 us spans
    # 7681 samples, a prime, which round up to 7776 = 2^5 3^5
    s = SyntheticNoise(amplitude=1.2e5**2 / 0.99, alpha=0.0, f_min=0.01,
                       f_max=1.0, seed=8)
    for n_pulses in (0, 1):
        seq = PulseSequence(n_pulses=n_pulses, tau=12e-6)
        assert record_length(s, seq, 0.1e-6) == 7776


def reference_phases(s, seq, sensitivity, z, dt, taus):
    """phi, (rows of z, delays), record by record: the records of
    reference_spectra, their trapezoid integral, linear interpolation at
    the jumps of s(t) scaled to each delay, and the sum of s(t) times the
    integral's increments, which is minus the jumps times the integral."""
    n = record_length(s, seq, dt)
    t_knots = np.arange(n) * dt
    c, t = switching_jumps(seq)
    bounds = np.multiply.outer(taus, t / seq.tau)
    phases = np.empty((len(z), len(taus)))
    for i, spectrum in enumerate(reference_spectra(s, dt, n, z)):
        lam = np.fft.irfft(spectrum, n=n)
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (lam[1:] + lam[:-1]) * dt)))
        cum_at = np.interp(bounds.ravel(), t_knots, cum).reshape(bounds.shape)
        phases[i] = -sensitivity * (cum_at @ c)
    return phases


def populations(phases):
    """P_e = (1 + Re<e^{i phi}>)/2 at each delay (column) of phases."""
    return 0.5 * (1.0 + np.cos(phases).mean(axis=0))


TAU = 20e-6
# (spec fields, N, dt, taus, parity of the record length or None); the
# odd lengths are 675 = 3^3 5^2 and 10,935 = 3^7 5
EQUIVALENCE_CASES = {
    "even_nyquist_in_band": (
        dict(amplitude=4e10, alpha=1.0, f_min=1e4, f_max="nyquist"),
        2, 1.1e-7, None, 0),
    "odd_clipped_at_nyquist": (
        dict(amplitude=2e10, alpha=1.0, f_min=9e3, f_max=1e8),
        1, 1.65e-7, [5e-6, 12e-6, TAU], 1),
    "static_offset_ramsey": (
        dict(amplitude=4e9, alpha=0.0, f_min=0.01, f_max=1.0),
        0, 1.01e-7, [4e-6, 9e-6, TAU], 0),
    "static_offset_and_band_odd": (
        dict(amplitude=5e11, alpha=1.0, f_min=10.0, f_max=3e6),
        16, 1.174e-7, None, 1),
    "even_clipped_with_static_offset": (
        dict(amplitude=3e10, alpha=1.0, f_min=100.0, f_max=1e8),
        2, 1.01e-7, [TAU], 0),
    "no_noise": (
        dict(amplitude=0.0, alpha=1.0, f_min=1e4, f_max=1e6),
        1, 1e-7, None, None),
    "cpmg16_even": (
        dict(amplitude=5e11, alpha=1.0, f_min=1e4, f_max=2e6),
        16, 1.1e-7, None, 0),
}


def equivalence_case(case):
    """(spec, sequence, dt, delays) of an EQUIVALENCE_CASES entry, with
    its f_max and its default delays resolved."""
    fields, n_pulses, dt, taus, parity = EQUIVALENCE_CASES[case]
    seq = PulseSequence(n_pulses=n_pulses, tau=TAU)
    if fields["f_max"] == "nyquist":
        n = record_length(SyntheticNoise(**{**fields, "f_max": 1e9}), seq, dt)
        fields = {**fields, "f_max": np.fft.rfftfreq(n, dt)[-1]}
    s = SyntheticNoise(seed=5, **fields)
    if parity is not None:
        assert record_length(s, seq, dt) % 2 == parity
    if taus is None:
        taus = np.linspace(TAU / 24.0, TAU, 24)
    return s, seq, dt, np.asarray(taus, dtype=float)


def gain(s, seq, dt, taus):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return mcsim._gain(s, seq, 1.0, dt, taus)


@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_weights_match_record_by_record_reference(case):
    # for any fixed rows z, the phases of their records, integrated record
    # by record, are z @ G: the gain that simulate_sequence samples from
    s, seq, dt, taus = equivalence_case(case)
    g = gain(s, seq, dt, taus)
    z = np.random.default_rng(11).standard_normal((24, len(g)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = reference_phases(s, seq, 1.0, z, dt, taus)
    if s.amplitude > 0:
        # the phases are O(1), so the comparison is not a trivial one
        assert np.abs(expected).max() > 0.5
    np.testing.assert_allclose(z @ g, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_every_rfft_is_5_smooth(case, monkeypatch):
    lengths = []
    rfft = np.fft.rfft

    def recording(a, *args, **kwargs):
        lengths.append(np.shape(a)[-1])
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(mcsim.np.fft, "rfft", recording)
    s, seq, dt, taus = equivalence_case(case)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        simulate_sequence(s, seq, sensitivity=1.0, n_traj=3, dt=dt,
                          taus=taus)
    assert lengths == [record_length(s, seq, dt)]
    assert is_5_smooth(lengths[0])


@pytest.fixture
def drawn(monkeypatch):
    """The shape of every standard_normal draw from mcsim._rng's
    generators, in call order."""
    shapes = []
    make_rng = mcsim._rng

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size=None):
            out = self.rng.standard_normal(size)
            shapes.append(np.shape(out))
            return out

    monkeypatch.setattr(mcsim, "_rng", lambda s: Counting(make_rng(s)))
    return shapes


@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_each_trajectory_draws_k_normals(case, drawn):
    # k = delays: one normal per delay per trajectory, whatever the row
    # width, and every one of the n_traj trajectories draws; a record
    # still draws the full row
    s, seq, dt, taus = equivalence_case(case)
    n = record_length(s, seq, dt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        width = len(mcsim._row_layout(s, dt, n)[0])
        simulate_sequence(s, seq, sensitivity=1.0, n_traj=7, dt=dt,
                          taus=taus)
        synthesize_noise(s, dt, n)
    *blocks, record = drawn
    assert all(shape[1:] == (len(taus),) for shape in blocks)
    assert sum(shape[0] for shape in blocks) == 7
    assert record == (width,)


# case: (n_traj inside one block, n_traj over three or more blocks); a
# block holds 2^20 bytes of normals, 43,690 rows at 3 delays, 5461 at 24
BLOCK_CASES = {"odd_clipped_at_nyquist": (100, 100_000),
               "static_offset_and_band_odd": (10, 12_000)}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocks_change_nothing(case, drawn):
    s, seq, dt, taus = equivalence_case(case)
    inside, across = BLOCK_CASES[case]
    sigma = np.linalg.norm(gain(s, seq, dt, taus), axis=0)
    # one (across, delays) draw: its first n_traj rows are the phases of
    # every smaller ensemble, so they must not depend on n_traj
    phases = np.random.default_rng(s.seed).standard_normal(
        (across, len(taus))) * sigma
    rows = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n_traj in (1, 2, inside, across):
            drawn.clear()
            trace = simulate_sequence(s, seq, sensitivity=1.0,
                                      n_traj=n_traj, dt=dt, taus=taus)
            np.testing.assert_allclose(
                trace.populations, populations(phases[:n_traj]), rtol=0,
                atol=1e-12)
            rows[n_traj] = [shape[0] for shape in drawn]
    assert populations(phases[:2]).min() < 0.95
    assert rows[inside] == [inside]
    # three or more blocks, the last one partial
    assert len(rows[across]) >= 3 and rows[across][-1] < rows[across][0]
    assert sum(rows[across]) == across


@pytest.mark.parametrize("n_pulses", [0, 1])
def test_criterion_8_band_draws_one_normal_per_trajectory(n_pulses, drawn):
    s = SyntheticNoise(amplitude=1.2e5**2 / 0.99, alpha=0.0, f_min=0.01,
                       f_max=1.0, seed=8)
    with pytest.warns(UserWarning, match="static"):
        simulate_sequence(s, PulseSequence(n_pulses=n_pulses, tau=12e-6),
                          sensitivity=TWO_PI, n_traj=3000, dt=0.1e-6,
                          taus=[12e-6])
    assert all(shape[1:] == (1,) for shape in drawn)
    assert sum(shape[0] for shape in drawn) == 3000


@pytest.mark.parametrize("n", [910, 4096])
def test_dc_and_nyquist_weights_never_reach_the_phase(n):
    # simulate_sequence weights every band bin of W twice, as if no band
    # bin were DC or an even n's Nyquist bin: only the static offset enters
    # bin 0, and W at Nyquist telescopes to dt/2 (r_0 - r_n) = 0
    dt = 1.1e-7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for f_min in (1e4, 10.0):       # without and with a static offset
            bins, _ = mcsim._row_layout(spec(f_min=f_min, f_max=1e9), dt, n)
            assert np.count_nonzero(bins == 0) == (f_min == 10.0)
            # the Nyquist bin is in band, real: one normal
            assert np.count_nonzero(bins == n // 2) == 1
    for n_pulses in (0, 1, 2, 16):
        seq = PulseSequence(n_pulses=n_pulses, tau=20e-6)
        taus = np.linspace(seq.tau / 24, seq.tau, 24)
        w_hat = np.abs(np.fft.rfft(mcsim._phase_weights(seq, taus, dt, n)))
        assert np.all(w_hat[:, -1] <= 1e-15 * w_hat.max(axis=1))


@pytest.mark.parametrize("n_pulses", [0, 1, 8, 16])
@pytest.mark.parametrize("tau_pi", [0.0, 20e-9])
def test_weights_of_all_delays_are_the_one_delay_rows(n_pulses, tau_pi):
    # one pass over every delay gives each row the bits of a call on that
    # delay alone, on an odd and an even record
    seq = PulseSequence(n_pulses=n_pulses, tau=20e-6, tau_pi=tau_pi)
    taus = np.linspace(seq.tau / 24, seq.tau, 24)
    for dt, n in ((1.1e-7, 960), (1.65e-7, 675)):
        w = mcsim._phase_weights(seq, taus, dt, n)
        rows = [mcsim._phase_weights(seq, taus[i:i + 1], dt, n)
                for i in range(len(taus))]
        assert w.shape == (len(taus), n)
        assert np.array_equal(w, np.concatenate(rows))


def test_each_warning_once_per_call():
    # band both below the record resolution and above Nyquist
    s = spec(f_min=0.01, f_max=1e8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate_sequence(s, PulseSequence(n_pulses=1, tau=TAU),
                          sensitivity=1.0, n_traj=5, dt=1e-7)
    messages = [str(w.message) for w in caught]
    assert sum("Nyquist" in m for m in messages) == 1
    assert sum("static offset" in m for m in messages) == 1
    assert len(messages) == 2


def test_memory_does_not_grow_with_trajectories():
    # the benchmark's 24-delay ensemble: 6000 trajectories, dt = 25 us/160;
    # a held (n_traj, row width) draw matrix alone would need about 87 MiB
    s = SyntheticNoise(amplitude=1e9, alpha=1.0, f_min=2.1e3, f_max=2e6)
    seq = PulseSequence(n_pulses=8, tau=30e-6)
    tracemalloc.start()
    try:
        simulate_sequence(s, seq, sensitivity=TWO_PI, n_traj=6000,
                          dt=25e-6 / 160)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


class TestDephasingIntegral:
    def test_zero_amplitude(self):
        seq = PulseSequence(n_pulses=1, tau=20e-6)
        assert dephasing_integral(spec(amplitude=0.0), seq, 1.0) == 0.0

    def test_quadratic_in_sensitivity(self):
        seq = PulseSequence(n_pulses=4, tau=20e-6)
        chi1 = dephasing_integral(spec(), seq, 1.0)
        chi2 = dephasing_integral(spec(), seq, 2.0)
        assert chi2 == pytest.approx(4.0 * chi1, rel=1e-12, abs=0.0)

    def test_accepts_mapping(self):
        seq = PulseSequence(n_pulses=4, tau=20e-6)
        from_spec = dephasing_integral(spec(), seq, 1.0)
        from_map = dephasing_integral(
            {"amplitude": 1e4, "alpha": 1.0, "f_min": 1e4, "f_max": 1e5},
            seq, 1.0)
        assert from_map == pytest.approx(from_spec, rel=1e-12, abs=0.0)

    def test_white_noise_ramsey_closed_form(self):
        # wide white band: chi -> sens^2 * S0 * tau / 4
        tau = 20e-6
        s = SyntheticNoise(amplitude=5.0, alpha=0.0, f_min=1e-3 / tau,
                           f_max=1e4 / tau, seed=0)
        seq = PulseSequence(n_pulses=0, tau=tau)
        chi = dephasing_integral(s, seq, sensitivity=2.0)
        assert chi == pytest.approx(4.0 * 5.0 * tau / 4.0, rel=0.01)

    @pytest.mark.parametrize("alpha", np.arange(7) / 2)
    def test_flat_filter_integrates_the_band_variance(self, alpha,
                                                      monkeypatch):
        # with g = 1 the rule integrates the power law alone; these 200
        # bands span 0.01 to 3 decades and 0.01 to 1000 periods 1/tau, and
        # the worst error over them was 2.9e-15 relative (6.7e-15 over
        # 5000 such bands)
        rng = np.random.default_rng(0)
        f_min = 10.0 ** rng.uniform(0.0, 5.0, 200)
        f_max = f_min * 10.0 ** rng.uniform(0.01, 3.0, 200)
        tau = 10.0 ** rng.uniform(-2.0, 3.0, 200) / (f_max - f_min)
        monkeypatch.setattr(mcsim, "filter_value",
                            lambda seq, omega: np.ones_like(omega))
        for lo, hi, t in zip(f_min, f_max, tau):
            s = spec(amplitude=1.0, alpha=alpha, f_min=lo, f_max=hi)
            chi = dephasing_integral(s, PulseSequence(n_pulses=2, tau=t), 1.0)
            expected = 0.5 * t**2 * _band_variance(s, lo, hi)
            assert chi == pytest.approx(expected, rel=2e-14, abs=0.0)

    @pytest.mark.parametrize("n_pulses", (0, 1, 4, 64))
    @pytest.mark.parametrize("tau", (2e-6, 40e-6, 250e-6))
    def test_matches_adaptive_quadrature(self, tau, n_pulses):
        # scipy's adaptive Gauss-Kronrod rule, breaking at every period 1/tau
        # and at every decade, at a relative 1e-13; the worst error of the
        # rule over these 126 cases was 3.0e-11 relative (N = 64, tau = 2 us)
        from scipy.integrate import quad_vec

        f_min, f_max = 2.1e3, 2.5e6
        alphas = np.arange(1, 7) / 2
        breaks = np.union1d(np.arange(f_min, f_max, 1.0 / tau),
                            np.geomspace(f_min, f_max, 5))[1:-1]
        for tau_pi in (0.0, 20e-9) if n_pulses else (0.0,):
            seq = PulseSequence(n_pulses=n_pulses, tau=tau, tau_pi=tau_pi)
            band, _ = quad_vec(
                lambda f: f ** -alphas * filter_value(seq, TWO_PI * f),
                f_min, f_max, epsabs=0.0, epsrel=1e-13, points=breaks)
            chi = [dephasing_integral(spec(amplitude=1.0, alpha=alpha,
                                           f_min=f_min, f_max=f_max),
                                      seq, 1.0) for alpha in alphas]
            assert np.allclose(chi, 0.5 * tau**2 * band, rtol=1e-10, atol=0)

    def test_node_table_is_gauss_legendre_8(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert np.allclose(mcsim._GL_X, nodes, rtol=0, atol=1e-15)
        assert np.allclose(mcsim._GL_W, weights, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(12))
    def test_grid_is_the_sorted_union_of_both_grids(self, seed, monkeypatch):
        # one filter call on 8 nodes per panel; the panel edges are the
        # union of the periods 1/tau, 8 log edges per decade and f_max, so
        # a denser grid fails here before it shows in a benchmark
        rng = np.random.default_rng(seed)
        f_min = 10.0 ** rng.uniform(0.0, 5.0)
        f_max = f_min * 10.0 ** rng.uniform(0.01, 3.0)
        tau = 10.0 ** rng.uniform(-2.0, 3.0) / (f_max - f_min)
        seen = []
        monkeypatch.setattr(mcsim, "filter_value",
                            lambda seq, omega: seen.append(omega) or omega)
        dephasing_integral(spec(f_min=f_min, f_max=f_max),
                           PulseSequence(n_pulses=2, tau=tau), 1.0)
        n_log = int(np.ceil(8 * np.log10(f_max / f_min))) + 1
        edges = np.unique(np.concatenate((
            np.arange(f_min, f_max, 1.0 / tau),
            np.geomspace(f_min, f_max, n_log), [f_max])))
        lo, hi = edges[:-1, None], edges[1:, None]
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * mcsim._GL_X
        assert len(seen) == 1
        assert seen[0].shape == (len(edges) - 1, 8)
        assert np.allclose(seen[0], TWO_PI * nodes, rtol=1e-15, atol=0)
        assert len(edges) - 1 <= (np.ceil((f_max - f_min) * tau)
                                  + 8 * np.log10(f_max / f_min) + 2)

    @pytest.mark.parametrize("alpha", (0.5, 1.5, 2.5))
    def test_cold_memo_gives_the_warm_memo_bits(self, alpha):
        # each case is integrated once right after the memo is cleared and
        # once on the entry that call left behind
        band = {"amplitude": 1.0, "alpha": alpha, "f_min": 2.1e3,
                "f_max": 2.5e6}
        for n_pulses in (0, 1, 4, 64):
            for tau in (2e-6, 40e-6, 250e-6):
                for tau_pi in (0.0, 20e-9) if n_pulses else (0.0,):
                    seq = PulseSequence(n_pulses=n_pulses, tau=tau,
                                        tau_pi=tau_pi)
                    mcsim._log_edges.cache_clear()
                    cold = dephasing_integral(band, seq, TWO_PI)
                    warm = dephasing_integral(band, seq, TWO_PI)
                    assert mcsim._log_edges.cache_info().hits == 1
                    assert warm.hex() == cold.hex()

    # (alpha, N, tau, tau_pi) -> chi on the 2.1 kHz - 2.5 MHz band at unit
    # amplitude and sensitivity 2 pi, taken with the log edges built anew
    # on every call
    PINNED_CHI = {
        (1.5, 2, 15e-6, 20e-9): "0x1.d8500fef3bcacp-38",
        (1.0, 0, 40e-6, 0.0): "0x1.aada3301d8f7bp-25",
        (2.5, 64, 250e-6, 20e-9): "0x1.8ea59417445f5p-52",
        (0.5, 4, 2e-6, 0.0): "0x1.077a2ad5a0b4bp-26",
        # taken before the integrand and the filter were built in place:
        # odd N, N tau_pi / tau = 0.99, and the exponents 0 and -3
        (1.0, 3, 15e-6, 20e-9): "0x1.47192c1910e7cp-30",
        (2.0, 5, 40e-6, 20e-9): "0x1.747f48dadd6c2p-44",
        (1.5, 33, 250e-6, 20e-9): "0x1.0949f10194f0dp-33",
        (1.5, 8, 10e-6, 1.2375e-6): "0x1.be9188e319d4ep-54",
        (0.0, 4, 40e-6, 20e-9): "0x1.9a1a83ad5bf4fp-12",
        (3.0, 2, 40e-6, 0.0): "0x1.00df4d7df3744p-55",
    }

    @pytest.mark.parametrize("case", PINNED_CHI)
    def test_pinned_values(self, case):
        alpha, n_pulses, tau, tau_pi = case
        chi = dephasing_integral(
            {"amplitude": 1.0, "alpha": alpha, "f_min": 2.1e3,
             "f_max": 2.5e6},
            PulseSequence(n_pulses=n_pulses, tau=tau, tau_pi=tau_pi), TWO_PI)
        assert chi.hex() == self.PINNED_CHI[case]

    def test_mapping_and_spec_share_one_memo_entry(self):
        seq = PulseSequence(n_pulses=4, tau=20e-6)
        mcsim._log_edges.cache_clear()
        dephasing_integral(
            {"amplitude": 1e4, "alpha": 1.0, "f_min": 1e4, "f_max": 1e5},
            seq, 1.0)
        dephasing_integral(spec(alpha=2.0), PulseSequence(n_pulses=1,
                                                          tau=3e-6), 1.0)
        info = mcsim._log_edges.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

    def test_bands_do_not_share_edges(self):
        mcsim._log_edges.cache_clear()
        wide = mcsim._log_edges(2.1e3, 2.5e6)
        narrow = mcsim._log_edges(1e4, 1e5)
        assert mcsim._log_edges.cache_info().currsize == 2
        assert (wide[0], wide[-1], len(wide)) == (2.1e3, 2.5e6, 26 + 1)
        assert (narrow[0], narrow[-1], len(narrow)) == (1e4, 1e5, 9 + 1)
        assert mcsim._log_edges(2.1e3, 2.5e6) is wide

    def test_memo_edges_are_read_only(self):
        edges = mcsim._log_edges(2.1e3, 2.5e6)
        assert not edges.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            edges[0] = 0.0

    def test_oversize_band_rejected_before_allocating(self):
        # 1 Hz - 1 GHz at tau = 0.1 s is 1e8 periods: 8e8 nodes, 6.4 GB
        # per array, refused before numpy is asked for any of them
        band = {"amplitude": 1.0, "alpha": 1.0, "f_min": 1.0, "f_max": 1e9}
        seq = PulseSequence(n_pulses=1, tau=0.1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^\(f_max - f_min\) \* tau "
                                                 r"= 1e\+08 filter periods"):
                dephasing_integral(band, seq, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_node_bound_is_inclusive(self, monkeypatch):
        # the bound counts 8 nodes for each period and each log edge; a
        # call passes at that count and is refused one node below it
        band = {"amplitude": 1.0, "alpha": 1.0, "f_min": 2.1e3,
                "f_max": 2.5e6}
        seq = PulseSequence(n_pulses=4, tau=64e-6)
        count = 8 * ((2.5e6 - 2.1e3) * seq.tau
                     + len(mcsim._log_edges(2.1e3, 2.5e6)))
        monkeypatch.setattr(mcsim, "_MAX_CHI_NODES", count)
        dephasing_integral(band, seq, 1.0)
        monkeypatch.setattr(mcsim, "_MAX_CHI_NODES", count - 1)
        with pytest.raises(ValueError, match="filter periods"):
            dephasing_integral(band, seq, 1.0)

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


# a zero, negative or NaN step is refused by name, not by a later
# ZeroDivisionError, IndexError or an all-NaN record
NOT_POSITIVE_DT = {
    "simulate-zero": lambda: simulate_sequence(
        spec(), PulseSequence(n_pulses=1, tau=20e-6), sensitivity=1.0,
        n_traj=8, dt=0.0),
    "simulate-negative": lambda: simulate_sequence(
        spec(), PulseSequence(n_pulses=1, tau=20e-6), sensitivity=1.0,
        n_traj=8, dt=-1e-8),
    "simulate-nan": lambda: simulate_sequence(
        spec(), PulseSequence(n_pulses=1, tau=20e-6), sensitivity=1.0,
        n_traj=8, dt=np.nan),
    "synthesize-nan": lambda: synthesize_noise(spec(), np.nan, 8),
    "trajectory-nan": lambda: Trajectory(dt=np.nan, samples=np.zeros(8)),
}


@pytest.mark.parametrize("call", NOT_POSITIVE_DT.values(),
                         ids=NOT_POSITIVE_DT.keys())
def test_not_positive_dt_rejected(call):
    with pytest.raises(ValueError, match="dt must be positive"):
        call()
