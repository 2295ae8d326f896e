import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from qnl import mcsim
from qnl.ddfilter import PulseSequence, pulse_times
from qnl.mcsim import (SyntheticNoise, Trajectory, band_variance,
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
        expected = band_variance(s, s.f_min, s.f_max)
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
        expected = band_variance(s, 0.01, 1.0)
        assert np.var(offsets) == pytest.approx(expected, rel=0.25)


def reference_spectra(s, dt, n, n_traj):
    """The rfft of the records that the first n_traj rows of s.seed's
    stream make, written out in one piece from the documented layout and
    without the spectral helpers of mcsim.

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
    z = np.random.default_rng(s.seed).standard_normal(
        (n_traj, len(k_re) + len(k_im) + static))
    spectra = np.zeros((n_traj, len(freqs)), dtype=complex)
    spectra.real[:, k_re] = scale_re[k_re] * z[:, :len(k_re)]
    spectra.imag[:, k_im] = (scale_im[k_im]
                             * z[:, len(k_re):len(k_re) + len(k_im)])
    if static:
        var_static = band_variance(s, s.f_min, min(s.f_max, freqs[1]))
        spectra[:, 0] = n * np.sqrt(var_static) * z[:, -1]
    return spectra


def reference_synthesis(s, dt, n):
    """synthesize_noise written out: the record of row 0; the two agree
    bit for bit."""
    return np.fft.irfft(reference_spectra(s, dt, n, 1)[0], n=n)


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
    span = max(mcsim._RECORD_STRETCH * seq.tau,
               min(1.0 / s.f_min, mcsim._MAX_STRETCH * seq.tau))
    return int(np.ceil(span / dt))


def reference_phasors(s, seq, sensitivity, n_traj, dt, taus=None):
    """e^{i phi}, (n_traj, delays), record by record: the records of
    reference_spectra, their trapezoid integral, linear interpolation at
    the segment bounds, signed sums."""
    if taus is None:
        taus = np.linspace(seq.tau / 24.0, seq.tau, 24)
    taus = np.sort(np.asarray(taus, dtype=float))
    n = record_length(s, seq, dt)
    t_knots = np.arange(n) * dt
    frac = np.concatenate(([0.0], pulse_times(seq) / seq.tau, [1.0]))
    bounds = np.multiply.outer(taus, frac)
    seg_signs = (-1.0) ** np.arange(seq.n_pulses + 1)
    phasors = np.empty((n_traj, len(taus)), dtype=complex)
    for i, spectrum in enumerate(reference_spectra(s, dt, n, n_traj)):
        lam = np.fft.irfft(spectrum, n=n)
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (lam[1:] + lam[:-1]) * dt)))
        cum_at = np.interp(bounds.ravel(), t_knots, cum).reshape(bounds.shape)
        phi = sensitivity * (np.diff(cum_at, axis=1) * seg_signs).sum(axis=1)
        phasors[i] = np.exp(1j * phi)
    return phasors


def populations(phasors):
    return 0.5 * (1.0 + np.abs(phasors.mean(axis=0)))


TAU = 20e-6
# (spec fields, N, dt, taus, parity of the record length or None)
EQUIVALENCE_CASES = {
    "even_nyquist_in_band": (
        dict(amplitude=4e10, alpha=1.0, f_min=1e4, f_max="nyquist"),
        2, 1.1e-7, None, 0),
    "odd_clipped_at_nyquist": (
        dict(amplitude=2e10, alpha=1.0, f_min=9e3, f_max=1e8),
        1, 1.1e-7, [5e-6, 12e-6, TAU], 1),
    "static_offset_ramsey": (
        dict(amplitude=4e9, alpha=0.0, f_min=0.01, f_max=1.0),
        0, 1.01e-7, [4e-6, 9e-6, TAU], 0),
    "static_offset_and_band_odd": (
        dict(amplitude=5e11, alpha=1.0, f_min=10.0, f_max=3e6),
        16, 1e-7, None, 1),
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


@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_weights_match_record_by_record_reference(case):
    fields, n_pulses, dt, taus, parity = EQUIVALENCE_CASES[case]
    seq = PulseSequence(n_pulses=n_pulses, tau=TAU)
    if fields["f_max"] == "nyquist":
        n = record_length(SyntheticNoise(**{**fields, "f_max": 1e9}), seq, dt)
        fields = {**fields, "f_max": np.fft.rfftfreq(n, dt)[-1]}
    s = SyntheticNoise(seed=5, **fields)
    if parity is not None:
        assert record_length(s, seq, dt) % 2 == parity
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = populations(reference_phasors(s, seq, 1.0, 24, dt, taus))
        trace = simulate_sequence(s, seq, sensitivity=1.0, n_traj=24,
                                  dt=dt, taus=taus)
    if s.amplitude > 0:
        # the phases are O(1), so the comparison is not a trivial one
        assert expected.min() < 0.95
    np.testing.assert_allclose(trace.populations, expected, rtol=0,
                               atol=1e-12)


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


# case: (n_traj inside one block, n_traj over three or more blocks)
BLOCK_CASES = {"odd_clipped_at_nyquist": (100, 300),
               "static_offset_and_band_odd": (10, 40)}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocks_change_nothing(case, drawn):
    fields, n_pulses, dt, taus, _ = EQUIVALENCE_CASES[case]
    inside, across = BLOCK_CASES[case]
    s = SyntheticNoise(seed=5, **fields)
    seq = PulseSequence(n_pulses=n_pulses, tau=TAU)
    rows = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # one (across, width) draw: its first n_traj rows are the phases of
        # every smaller ensemble, so they must not depend on n_traj
        phasors = reference_phasors(s, seq, 1.0, across, dt, taus)
        for n_traj in (1, 2, inside, across):
            drawn.clear()
            trace = simulate_sequence(s, seq, sensitivity=1.0,
                                      n_traj=n_traj, dt=dt, taus=taus)
            np.testing.assert_allclose(
                trace.populations, populations(phasors[:n_traj]), rtol=0,
                atol=1e-12)
            rows[n_traj] = [shape[0] for shape in drawn]
    assert populations(phasors[:2]).min() < 0.95
    assert rows[inside] == [inside]
    # three or more blocks, the last one partial
    assert len(rows[across]) >= 3 and rows[across][-1] < rows[across][0]
    assert sum(rows[across]) == across


@pytest.mark.parametrize("case", [c for c in EQUIVALENCE_CASES
                                  if c != "even_nyquist_in_band"])
def test_each_trajectory_draws_one_normal_per_nonzero_scale(case, drawn):
    fields, n_pulses, dt, taus, _ = EQUIVALENCE_CASES[case]
    s = SyntheticNoise(seed=5, **fields)
    seq = PulseSequence(n_pulses=n_pulses, tau=TAU)
    n = record_length(s, seq, dt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        width = len(mcsim._row_layout(s, dt, n)[0])
        simulate_sequence(s, seq, sensitivity=1.0, n_traj=7, dt=dt,
                          taus=taus)
        synthesize_noise(s, dt, n)
    *blocks, record = drawn
    assert all(shape[1:] == (width,) for shape in blocks)
    assert sum(shape[0] for shape in blocks) == 7
    assert record == (width,)


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
        for tau in np.linspace(seq.tau / 24, seq.tau, 24):
            w_hat = np.abs(np.fft.rfft(mcsim._phase_weights(seq, tau, dt, n)))
            assert w_hat[-1] <= 1e-15 * w_hat.max()


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

    @pytest.mark.parametrize("points", (0, -64))
    def test_points_per_cycle_below_one_rejected(self, points):
        seq = PulseSequence(n_pulses=2, tau=20e-6)
        s = spec(alpha=1.5, amplitude=1e7, f_min=1e3, f_max=2e6)
        with pytest.raises(ValueError, match="points_per_cycle"):
            dephasing_integral(s, seq, 1.0, points_per_cycle=points)

    @pytest.mark.parametrize("seed", range(12))
    def test_grid_is_the_sorted_union_of_both_grids(self, seed, monkeypatch):
        # the grid merges the sorted linear and log halves; the reference
        # is np.unique of the same points
        rng = np.random.default_rng(seed)
        f_min = 10.0 ** rng.uniform(0.0, 5.0)
        f_max = f_min * 10.0 ** rng.uniform(0.01, 3.0)
        points = int(rng.integers(1, 130))
        tau = rng.uniform(0.1, 4e4) / (points * (f_max - f_min))
        seen = []
        monkeypatch.setattr(mcsim, "filter_value",
                            lambda seq, omega: seen.append(omega) or omega)
        dephasing_integral(spec(f_min=f_min, f_max=f_max),
                           PulseSequence(n_pulses=2, tau=tau), 1.0,
                           points_per_cycle=points)
        lin = np.arange(f_min, f_max, 1.0 / (points * tau))
        n_log = max(2, int(np.log10(f_max / f_min) * max(2, 8 * points)))
        ref = np.unique(np.concatenate(
            (lin, np.geomspace(f_min, f_max, n_log), [f_max])))
        assert np.array_equal(seen[0], TWO_PI * ref)

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
