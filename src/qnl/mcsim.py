"""Monte Carlo dephasing oracle.

Synthesizes Gaussian noise records with a prescribed power-law PSD,
ensemble-averages the qubit phase under a CPMG sequence, and evaluates the
corresponding filter-function dephasing integral numerically.  Serves as
the independent ground truth for the decay-fitting and PSD-reconstruction
modules.

Conventions.  S(f) = amplitude / f^alpha is the one-sided PSD of the
noise variable lambda in (lambda units)^2/Hz; `sensitivity` is
d omega_q / d lambda in rad/s per lambda unit.  A trajectory's phase is
phi(tau) = sensitivity * integral_0^tau s(t) lambda(t) dt with s(t) = +-1
flipping at the pulse centers tau*(j-1/2)/N, and for Gaussian noise

    chi(tau) = <phi^2>/2
             = (sensitivity^2 tau^2 / 2) * integral S(f) g_N(2 pi f, tau) df.

The phase is linear in the record, phi(tau_k) = sensitivity * sum_j
w_j(tau_k) lambda_j, and so linear in the record's spectral draws; the
rfft of w is the discrete filter function.  simulate_sequence turns
each block of trajectories' draws into phases with one matrix product,
with no noise record formed.

Randomness: a call draws from one generator, default_rng(seed), and
trajectory i is row i of its stream: one standard normal per nonzero
bin scale, in the order of _row_layout, the one statement of a record's
bin rules.  synthesize_noise returns row 0's record, so ensembles are
bit-identical for a given (seed, n_traj), and the first k trajectories
do not depend on n_traj.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ddfilter import PulseSequence, filter_value, pulse_times
from .decayfit import DecayTrace
from .units import TWO_PI

# records are synthesized at least this many times longer than the longest
# delay so the Fourier grid oversamples the filter's first-harmonic lobe
_RECORD_STRETCH = 2.0
# cap on record length when resolving very low f_min; anything slower than
# 1/(_MAX_STRETCH * tau) is indistinguishable from static over one shot
_MAX_STRETCH = 64.0
# bytes of normals and phases per block of simulate_sequence trajectories
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SyntheticNoise:
    """Power-law noise specification S(f) = amplitude / f^alpha.

    amplitude : PSD scale, units^2/Hz at 1 Hz; finite, >= 0 (0 = no noise)
    alpha     : exponent in [0, 3]
    f_min     : lower band edge (Hz), > 0
    f_max     : upper band edge (Hz), finite, > f_min
    seed      : seed of the one generator a call draws from
    """

    amplitude: float
    alpha: float
    f_min: float
    f_max: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.f_min < self.f_max < np.inf:
            raise ValueError(f"need 0 < f_min < f_max < inf, got "
                             f"{self.f_min!r}, {self.f_max!r}")
        if not 0.0 <= self.amplitude < np.inf:
            raise ValueError(f"amplitude must be finite and non-negative, "
                             f"got {self.amplitude!r}")
        if not 0.0 <= self.alpha <= 3.0:
            raise ValueError("alpha must lie in [0, 3]")


@dataclass(frozen=True)
class Trajectory:
    """One synthesized noise record lambda(t) on a uniform grid."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=float))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if len(self.samples) < 2:
            raise ValueError("need at least 2 samples")


def band_variance(spec: SyntheticNoise, f_lo: float, f_hi: float) -> float:
    """integral of A f^-alpha over [f_lo, f_hi] (0 if the band is empty)."""
    if f_hi <= f_lo:
        return 0.0
    if spec.alpha == 1.0:
        return spec.amplitude * np.log(f_hi / f_lo)
    p = 1.0 - spec.alpha
    return spec.amplitude * (f_hi**p - f_lo**p) / p


def _row_layout(spec: SyntheticNoise, dt: float, n: int):
    """(bins, scales) of one trajectory's row z of standard normals: the
    one statement of the bin rules that synthesize_noise and
    simulate_sequence both follow.

    rfft coefficient k of the length-n record is the sum of scales * z over
    the entries in bin k.  A band bin takes sqrt(S(f_k) n/(4 dt)) on one
    normal and 1j times that on another; DC and bins out of band take
    none; an even n's Nyquist bin is real, with variance S n/(2 dt).  Band
    below the resolution 1/(n dt) adds one normal to bin 0, scaled by n
    times its standard deviation (a static offset).  The row holds the
    real parts, then the imaginary parts, then the static offset; a scale
    of 0 (a PSD value that underflows) draws no normal.  Warns when the
    band is clipped at Nyquist and when a static offset is needed.
    """
    freqs = np.fft.rfftfreq(n, dt)
    f_res, f_nyq = freqs[1], freqs[-1]

    if spec.amplitude > 0 and spec.f_max > f_nyq:
        warnings.warn("f_max exceeds the Nyquist frequency 1/(2 dt); "
                      "band clipped at Nyquist")
    in_band = (freqs >= spec.f_min) & (freqs <= spec.f_max) & (freqs > 0)
    psd = np.zeros(len(freqs))
    psd[in_band] = spec.amplitude * freqs[in_band] ** -spec.alpha

    re = np.sqrt(psd * n / (2.0 * dt)) / np.sqrt(2.0)
    im = 1j * re
    if n % 2 == 0:
        # the Nyquist coefficient of a real record is real and unmirrored
        re[-1] = np.sqrt(psd[-1] * n / dt) / np.sqrt(2.0)
        im[-1] = 0.0
    bins = [np.flatnonzero(re), np.flatnonzero(im)]
    scales = [re[bins[0]], im[bins[1]]]

    if spec.amplitude > 0 and spec.f_min < f_res:
        warnings.warn("band extends below the record resolution 1/(n dt); "
                      "that part enters as a per-record static offset")
        bins.append([0])
        scales.append([n * np.sqrt(
            band_variance(spec, spec.f_min, min(spec.f_max, f_res)))])
    return np.concatenate(bins), np.concatenate(scales)


def _rng(spec: SyntheticNoise) -> np.random.Generator:
    return np.random.default_rng(spec.seed)


def synthesize_noise(spec: SyntheticNoise, dt: float, n: int) -> Trajectory:
    """Draw one noise record by Gaussian spectral synthesis.

    Its rfft coefficients follow the bin rules of _row_layout, so the
    ensemble periodogram reproduces S(f) exactly on the grid
    [1/(n dt), 1/(2 dt)].  Band below the record resolution is not
    dropped: its integrated variance enters as a per-record static offset
    (with a warning), which is the physical meaning of noise slower than
    the record.  Band above Nyquist is clipped with a warning.

    The record is trajectory 0 of simulate_sequence on the same grid.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    if dt <= 0:
        raise ValueError("dt must be positive")
    bins, scales = _row_layout(spec, dt, n)
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    np.add.at(spectrum, bins, scales * _rng(spec).standard_normal(len(bins)))
    return Trajectory(dt=dt, samples=np.fft.irfft(spectrum, n=n))


def _phase_weights(seq: PulseSequence, tau: float, dt: float,
                   n: int) -> np.ndarray:
    """w (length n) with phi(tau) = sensitivity * w @ lambda.

    The record lambda_j = lambda(j dt) enters the phase through its
    trapezoid integral cum_j = sum_{m<j} dt (lambda_m + lambda_{m+1})/2,
    interpolated linearly at the segment bounds and summed with the
    segment signs.  w is the adjoint of those three linear steps: a holds
    the interpolation coefficients at the bounds times each bound's net
    sign, r_j = sum_{m >= j} a_m (r_0 = r_n = 0, since cum_0 = 0), and
    w_j = dt (r_j + r_{j+1}) / 2.
    """
    # segment bounds: 0, the pulse centers tau*(j-1/2)/N, and tau itself;
    # segment s carries the sign (-1)^s, so a bound carries the sign of the
    # segment it ends minus that of the segment it starts
    bounds = tau * np.concatenate(([0.0], pulse_times(seq) / seq.tau, [1.0]))
    signs = np.concatenate(
        ([0.0], (-1.0) ** np.arange(seq.n_pulses + 1), [0.0]))
    net = signs[:-1] - signs[1:]

    t_knots = np.arange(n) * dt
    j = np.clip(np.searchsorted(t_knots, bounds, side="right") - 1, 0, n - 2)
    f = (bounds - t_knots[j]) / dt
    a = np.zeros(n)
    np.add.at(a, j, net * (1.0 - f))
    np.add.at(a, j + 1, net * f)

    r = np.zeros(n + 1)
    r[1:n] = np.cumsum(a[:0:-1])[::-1]
    return 0.5 * dt * (r[:-1] + r[1:])


def simulate_sequence(spec: SyntheticNoise, seq: PulseSequence,
                      sensitivity: float, n_traj: int, dt: float,
                      taus=None) -> DecayTrace:
    """Ensemble-average coherence decay under a pulse sequence.

    Trajectory i is the noise record of row i of spec.seed's stream (row
    0's is what synthesize_noise returns), long enough to oversample the
    filter lobe and to resolve f_min, capped at _MAX_STRETCH times the
    longest delay, and its phase at every requested delay is the signed
    trapezoid integral of that record.  The phase is linear in the row, so
    no record is formed: the weights' rfft W and the row's scales fold into
    one (row width, delays) gain matrix per call, and each block of rows
    takes one matrix product with it.  The trace reports
    P_e = (1 + |<e^{i phi}>|)/2 so that full coherence maps to P_e = 1.

    taus defaults to 24 points up to seq.tau.  dt must satisfy
    dt <= tau/(10 N) so pulse boundaries are resolved.  Pulses are
    instantaneous: a sequence with tau_pi > 0 is rejected.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if seq.tau_pi > 0:
        raise ValueError("simulate_sequence models instantaneous pulses: "
                         "seq.tau_pi must be 0")
    n_pi = seq.n_pulses
    if dt > seq.tau / (10.0 * max(n_pi, 1)):
        raise ValueError("dt too coarse: need dt <= tau/(10 N)")
    if taus is None:
        taus = np.linspace(seq.tau / 24.0, seq.tau, 24)
    taus = np.sort(np.asarray(taus, dtype=float))     # a NaN sorts last
    if not (taus.size and 0 < taus[0] and taus[-1] <= seq.tau * (1 + 1e-12)):
        raise ValueError("taus must be one or more delays in (0, seq.tau]")

    record_span = max(_RECORD_STRETCH * seq.tau,
                      min(1.0 / spec.f_min, _MAX_STRETCH * seq.tau))
    n = int(np.ceil(record_span / dt))
    bins, scales = _row_layout(spec, dt, n)

    # phi = (sensitivity/n) Re sum_k c_k X_k conj(W_k) for the record's
    # rfft X and the weights' rfft W, with c_k = 1 at DC (in _row_layout,
    # only the static offset's bin) and at an even n's Nyquist bin (where
    # W = dt/2 (r_0 - r_n) = 0), 2 elsewhere: so every band bin takes c = 2
    w_hat = np.fft.rfft([_phase_weights(seq, tau, dt, n) for tau in taus])
    c = np.where(bins == 0, 1.0, 2.0)
    gain = np.ascontiguousarray(
        ((sensitivity / n) * c * scales * w_hat[:, bins].conj()).real.T)

    rng = _rng(spec)
    block = max(1, _BLOCK_BYTES // (8 * (len(bins) + len(taus))))
    cos_sum = np.zeros(len(taus))
    sin_sum = np.zeros(len(taus))
    for start in range(0, n_traj, block):
        z = rng.standard_normal((min(block, n_traj - start), len(bins)))
        phi = z @ gain
        cos_sum += np.cos(phi).sum(axis=0)
        sin_sum += np.sin(phi).sum(axis=0)
    coherence = np.hypot(cos_sum, sin_sum) / n_traj

    kind = {0: "ramsey", 1: "echo"}.get(n_pi, "cpmg")
    return DecayTrace(times=taus, populations=0.5 * (1.0 + coherence),
                      kind=kind, n_pulses=n_pi)


def dephasing_integral(psd, seq: PulseSequence, sensitivity: float,
                       points_per_cycle: int = 64) -> float:
    """chi_N(tau): the filter-weighted noise integral at tau = seq.tau.

    chi = (sensitivity^2 tau^2 / 2) * integral_band S(f) g_N(2 pi f, tau) df.

    `psd` is a band-limited SyntheticNoise, or a mapping of its fields
    (amplitude, alpha, f_min, f_max), which SyntheticNoise validates; with
    f_min > 0 the integral is finite for every alpha it accepts.
    Quadrature is a trapezoid rule on the union of a linear grid resolving
    the filter oscillation (points_per_cycle per period 1/tau) and a log
    grid resolving the power-law decades; doubling points_per_cycle is the
    convergence check; it must be at least 1.

    For Gaussian noise, coherence = exp(-chi): compare with
    -log of the simulate_sequence coherence.
    """
    if not isinstance(psd, SyntheticNoise):
        psd = SyntheticNoise(**psd)
    if not points_per_cycle >= 1:
        raise ValueError(f"points_per_cycle must be >= 1, got "
                         f"{points_per_cycle!r}")
    if psd.amplitude == 0.0:
        return 0.0

    f_min, f_max = psd.f_min, psd.f_max
    df = 1.0 / (points_per_cycle * seq.tau)
    lin = np.arange(f_min, f_max, df)
    per_decade = max(2, 8 * points_per_cycle)
    n_log = max(2, int(np.log10(f_max / f_min) * per_decade))
    log = np.geomspace(f_min, f_max, n_log)
    # both halves are sorted runs, which numpy's stable sort merges
    grid = np.concatenate((lin, log, [f_max]))
    grid.sort(kind="stable")
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]

    integrand = (psd.amplitude * grid ** -psd.alpha
                 * filter_value(seq, TWO_PI * grid))
    return float(0.5 * sensitivity**2 * seq.tau**2
                 * np.trapezoid(integrand, grid))
