"""Noise spectral-density reconstruction and low-frequency spectra.

High-frequency total noise comes from CPMG dephasing times: a sequence
with N pulses samples noise in a narrow band around its filter peak, so

    S(f_N) = 1 / (pi * T_phi^2 * g_N(2 pi f_N, T_phi) * delta_omega_N)

with the filter evaluated at total time T_phi.  The 1/pi re-expresses
the box estimate, which is native to the angular phase-accumulation
integral, as a one-sided density of the qubit frequency in Hz^2/Hz,
the convention used throughout.  Frequency-noise points
(Hz^2/Hz) convert to gate-referred voltage noise (uV^2/Hz) through the
lever arm, transverse noise at the qubit frequency follows from T1, and
slow drift spectra come from an unwindowed mean-subtracted periodogram
of repeated Ramsey frequency estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ddfilter import PulseSequence, filter_value, first_harmonic_peak
from .fitutil import FitError, line_fit
from .units import TWO_PI

#: units tag for qubit-frequency noise, Hz^2/Hz
FREQ_NOISE = "freq_noise"
#: units tag for gate-referred voltage noise, uV^2/Hz
VOLTAGE_NOISE = "voltage_noise"

_UV2_PER_V2 = 1e12


@dataclass(frozen=True)
class PSDPoint:
    """One point of a noise spectrum.

    freq  : frequency (Hz), finite and > 0
    value : spectral density, finite and >= 0
    units : FREQ_NOISE (Hz^2/Hz) or VOLTAGE_NOISE (uV^2/Hz)
    """

    freq: float
    value: float
    units: str = FREQ_NOISE

    def __post_init__(self):
        if not 0 < self.freq < np.inf:
            raise ValueError("freq must be finite and positive")
        if not 0 <= self.value < np.inf:
            raise ValueError("value must be finite and non-negative")
        if self.units not in (FREQ_NOISE, VOLTAGE_NOISE):
            raise ValueError(f"unknown units tag {self.units!r}")


@dataclass(frozen=True)
class FrequencySeries:
    """Uniformly sampled record of tracked qubit frequency.

    timestamps : s, finite, uniformly spaced within 1%
    freqs      : qubit frequency per Ramsey iteration (Hz), finite
    """

    timestamps: np.ndarray
    freqs: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        fs = np.asarray(self.freqs, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "freqs", fs)
        if ts.ndim != 1 or ts.shape != fs.shape:
            raise ValueError("timestamps and freqs must be 1-d, equal length")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(fs))):
            raise ValueError("timestamps and freqs must be finite")
        if len(ts) < 8:
            raise ValueError("need at least 8 samples")
        steps = np.diff(ts)
        if np.any(steps <= 0):
            raise ValueError("timestamps must increase strictly")
        mean_step = steps.mean()
        if np.any(np.abs(steps - mean_step) > 0.01 * mean_step):
            raise ValueError("timestamps must be uniform within 1%")

    @property
    def dt(self) -> float:
        return float(np.diff(self.timestamps).mean())


def reconstruct_psd_point(t_phi: float, seq: PulseSequence) -> PSDPoint:
    """Total noise density sampled by a CPMG sequence at its filter peak.

    Evaluates the filter of `seq` at total time T_phi, finds the
    first-harmonic peak (f_N, delta_omega_N), and returns
    S = 1 / (pi * T_phi^2 * g_N(2 pi f_N) * delta_omega_N) at f_N in
    Hz^2/Hz.  The 1/pi maps the box estimate, native to the angular
    phase-accumulation integral, onto the one-sided qubit-frequency
    density sampled at 2 pi rad/s per Hz of detuning, so a round trip
    (synthesize frequency noise -> decay -> fit -> reconstruct) lands on
    the injected spectrum.  Requires n_pulses >= 1 (Ramsey has no
    harmonic passband).
    """
    if seq.n_pulses < 1:
        raise ValueError("reconstruction needs n_pulses >= 1")
    if t_phi <= 0:
        raise ValueError("t_phi must be positive")
    seq_at_tphi = replace(seq, tau=t_phi)
    peak = first_harmonic_peak(seq_at_tphi)
    g_pk = filter_value(seq_at_tphi, TWO_PI * peak.f_peak)
    try:
        value = 1.0 / (np.pi * t_phi**2 * g_pk * peak.delta_omega)
    except ArithmeticError:
        value = 0.0
    if not value > 0:    # a denominator of 0 or inf, or a quotient of 0
        raise ValueError(f"t_phi = {t_phi!r} s is out of range")
    return PSDPoint(freq=peak.f_peak, value=value, units=FREQ_NOISE)


def to_voltage_noise(point: PSDPoint, lever: float) -> PSDPoint:
    """Convert frequency noise (Hz^2/Hz) to voltage noise (uV^2/Hz).

    S_v = S_f / lever^2 with the lever arm in Hz/V; undefined at the
    sweet spot where the lever arm vanishes.
    """
    if point.units != FREQ_NOISE:
        raise ValueError("input must be in frequency-noise units")
    if lever == 0:
        raise ValueError("lever arm is zero (sweet spot): voltage-noise "
                         "conversion undefined")
    return PSDPoint(freq=point.freq,
                    value=point.value / lever**2 * _UV2_PER_V2,
                    units=VOLTAGE_NOISE)


def transverse_noise(t1: float, f_q: float) -> PSDPoint:
    """Transverse noise density at the qubit frequency implied by T1.

    1/T1 = (pi/2) S(2 pi f_q), so S = 2/(pi T1) in Hz^2/Hz.
    """
    if t1 <= 0:
        raise ValueError("t1 must be positive")
    return PSDPoint(freq=f_q, value=2.0 / (np.pi * t1), units=FREQ_NOISE)


def powerlaw_fit(points) -> dict:
    """Fit S = A / f^alpha by log-log linear regression.

    points: >= 3 (freq, value) pairs, e.g. a periodogram's (n, 2) array,
    with distinct, finite, positive frequencies and finite, strictly
    positive values; any other input raises FitError.  Returns a dict with
    amplitude, exponent and their standard errors.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim > 0 and len(pts) < 3:
        raise FitError("need at least 3 points")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise FitError("expected (freq, value) pairs")
    freqs, values = pts[:, 0], pts[:, 1]
    if not np.all((freqs > 0) & (freqs < np.inf) & np.isfinite(values)):
        raise FitError("frequencies must be finite and positive, values "
                       "finite")
    if len(np.unique(freqs)) != len(freqs):
        raise FitError("frequencies must be distinct")
    if np.any(values <= 0):
        raise FitError("power-law fit undefined for non-positive values")

    slope, intercept, slope_err, intercept_err = line_fit(np.log(freqs),
                                                          np.log(values))
    amplitude = float(np.exp(intercept))
    return {"amplitude": amplitude, "exponent": -slope,
            "amplitude_err": amplitude * intercept_err,
            "exponent_err": slope_err}


def periodogram(series: FrequencySeries) -> np.ndarray:
    """Unwindowed one-sided periodogram of a frequency record.

    Returns an (n // 2, 2) array of (freq_hz, psd) rows: PSD in Hz^2/Hz on
    the Fourier grid [1/(n dt), 1/(2 dt)], normalized so that
    sum(PSD * delta_f) equals the variance of the mean-subtracted series
    exactly (Parseval).  The mean (DC bin) is removed.  The series holds
    the invariants the transform needs: at least 8 samples, uniform within
    1%, dt their mean step.  Raises ValueError if any bin overflows.
    """
    n, dt = len(series.freqs), series.dt
    spectrum = np.fft.rfft(series.freqs - series.freqs.mean())
    scale = np.full(len(spectrum), 2.0 * dt / n)
    if n % 2 == 0:
        scale[-1] = dt / n      # the Nyquist bin has no mirror image
    with np.errstate(over="ignore"):    # an overflowed bin raises below
        psd = scale * np.abs(spectrum) ** 2
    if not np.all(np.isfinite(psd)):
        raise ValueError("periodogram value must be finite")
    return np.column_stack((np.fft.rfftfreq(n, dt), psd))[1:]
