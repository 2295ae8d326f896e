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
flipping at the pulses (ddfilter.switching_jumps), and for Gaussian noise

    chi(tau) = <phi^2>/2
             = (sensitivity^2 tau^2 / 2) * integral S(f) g_N(2 pi f, tau) df.

The phase is linear in the record, phi(tau_k) = sensitivity * sum_j
w_j(tau_k) lambda_j, and so linear in the record's spectral draws z:
phi = z @ G for a gain matrix G of shape (row width, delays), whose
rows are the rfft of w scaled by the bin rules.  The rfft of w is the
discrete filter function, and half the squared norm of G's column j is
the exact chi of the discretized phase at delay j.  The record has the
least 2^a 3^b 5^c samples that span what the delays need
(_record_length), so that rfft, fast only on lengths with small prime
factors, never meets a prime length.

Randomness: a call draws from one generator, default_rng(seed).
synthesize_noise draws one record's row z: one standard normal per
nonzero bin scale, in the order of _row_layout, the one statement of a
record's bin rules.  simulate_sequence forms no record: with z ~ N(0, I)
the phase at delay j is Gaussian with standard deviation |G_j|, the norm
of G's column j, and as in a measurement each delay averages its own
trajectories, so trajectory i draws one standard normal per delay, row i
of the stream.  So ensembles are bit-identical for a given (seed,
n_traj), and the first trajectories do not depend on n_traj.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ddfilter import PulseSequence, filter_value, switching_jumps
from .decayfit import DecayTrace
from .units import TWO_PI

# records are synthesized at least this many times longer than the longest
# delay so the Fourier grid oversamples the filter's first-harmonic lobe
_RECORD_STRETCH = 2.0
# cap on record length when resolving very low f_min; anything slower than
# 1/(_MAX_STRETCH * tau) is indistinguishable from static over one shot
_MAX_STRETCH = 64.0
# cap on record length times delays, the entries of _gain's matrix: each of
# its arrays then stays within 128 MiB
_MAX_GAIN_SIZE = 1 << 24
# cap on the quadrature nodes of one dephasing_integral call: each of its
# (panels, 8) arrays then stays within 16 MiB
_MAX_CHI_NODES = 1 << 21
# bytes of normals per block of simulate_sequence trajectories
_BLOCK_BYTES = 1 << 20
# nodes and weights of the 8-point Gauss-Legendre rule on [-1, 1], correctly
# rounded; a literal, so importing qnl.mcsim runs no eigensolver
_GL_X = np.array([-0.9602898564975363, -0.7966664774136267, -0.525532409916329,
                  -0.1834346424956498, 0.1834346424956498, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975363])
_GL_W = np.array([0.10122853629037626, 0.22238103445337448,
                  0.31370664587788727, 0.362683783378362, 0.362683783378362,
                  0.31370664587788727, 0.22238103445337448,
                  0.10122853629037626])


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
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if len(self.samples) < 2:
            raise ValueError("need at least 2 samples")


def _band_variance(spec: SyntheticNoise, f_lo: float, f_hi: float) -> float:
    """integral of A f^-alpha over [f_lo, f_hi] (0 if the band is empty)."""
    if f_hi <= f_lo:
        return 0.0
    if spec.alpha == 1.0:
        return spec.amplitude * np.log(f_hi / f_lo)
    p = 1.0 - spec.alpha
    return spec.amplitude * (f_hi**p - f_lo**p) / p


def _row_layout(spec: SyntheticNoise, dt: float, n: int):
    """(bins, scales) of one record's row z of standard normals: the one
    statement of the bin rules that synthesize_noise and _gain both
    follow.

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
            _band_variance(spec, spec.f_min, min(spec.f_max, f_res)))])
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
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    if not dt > 0:
        raise ValueError("dt must be positive")
    bins, scales = _row_layout(spec, dt, n)
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    np.add.at(spectrum, bins, scales * _rng(spec).standard_normal(len(bins)))
    return Trajectory(dt=dt, samples=np.fft.irfft(spectrum, n=n))


def _five_smooth_ceil(m: int) -> int:
    """The least 2^a 3^b 5^c >= m, for an integer m >= 1: for each odd
    factor 3^b 5^c below the best length so far, the least power-of-two
    multiple of it that reaches m."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best


def _record_length(spec: SyntheticNoise, seq: PulseSequence, dt: float,
                   delays: int) -> int:
    """The length n of the record whose phases _gain weights: the least
    2^a 3^b 5^c >= ceil(span/dt), so that its rfft runs on small prime
    factors only.

    The span is long enough to oversample the filter lobe
    (_RECORD_STRETCH tau) and to resolve f_min, capped at _MAX_STRETCH
    tau.  Raises ValueError when n times delays exceeds _MAX_GAIN_SIZE;
    ceil(span/dt) is checked before it is rounded and n after, so a
    refusal rounds and allocates nothing.
    """
    span = max(_RECORD_STRETCH * seq.tau,
               min(1.0 / spec.f_min, _MAX_STRETCH * seq.tau))
    n = np.ceil(span / dt)
    if n * delays <= _MAX_GAIN_SIZE:
        n = _five_smooth_ceil(int(n))
    if not n * delays <= _MAX_GAIN_SIZE:         # a NaN dt is refused too
        raise ValueError(f"dt = {dt!r} s is too small: a {span:.3g} s "
                         f"record of {n:.3g} samples at {delays} delays "
                         f"exceeds the limit of {_MAX_GAIN_SIZE} samples "
                         f"times delays")
    return n


def _phase_weights(seq: PulseSequence, taus: np.ndarray, dt: float,
                   n: int) -> np.ndarray:
    """w, (delays, n), with phi(taus[i]) = sensitivity * w[i] @ lambda.

    The record lambda_j = lambda(j dt) enters the phase through its
    trapezoid integral cum_j = sum_{m<j} dt (lambda_m + lambda_{m+1})/2,
    interpolated linearly at the bounds, switching_jumps' times scaled to
    each delay, and summed with minus their jumps c.  w is the adjoint of
    those three linear steps: a holds the interpolation coefficients at
    the bounds times -c, r_j = sum_{m >= j} a_m (r_0 = r_n = 0, since
    cum_0 = 0), and w_j = dt (r_j + r_{j+1}) / 2.  Every delay is one row
    of each step, so row i is the same to the bit as a call on taus[i]
    alone.
    """
    c, t = switching_jumps(seq)
    bounds = np.multiply.outer(taus, t / seq.tau)

    t_knots = np.arange(n) * dt
    j = np.clip(np.searchsorted(t_knots, bounds, side="right") - 1, 0, n - 2)
    f = (bounds - t_knots[j]) / dt
    rows = np.arange(len(taus))[:, None]
    a = np.zeros((len(taus), n))
    np.add.at(a, (rows, j), -c * (1.0 - f))
    np.add.at(a, (rows, j + 1), -c * f)

    # cumsum writes into r and w is scaled in place, so the pass holds at
    # most three (delays, n) arrays at once: a, r and w
    r = np.zeros((len(taus), n + 1))
    np.cumsum(a[:, :0:-1], axis=1, out=r[:, n - 1:0:-1])
    w = r[:, :-1] + r[:, 1:]
    w *= 0.5 * dt
    return w


def _gain(spec: SyntheticNoise, seq: PulseSequence, sensitivity: float,
          dt: float, taus: np.ndarray) -> np.ndarray:
    """G, (row width, delays): the phases at taus of the record that a row
    z of _row_layout's normals makes are z @ G.

    The record is _record_length's: the least 2^a 3^b 5^c samples that
    span enough to oversample the filter lobe and to resolve f_min,
    capped at _MAX_STRETCH times seq.tau, and the phase is the signed
    trapezoid integral of it (_phase_weights).  Half the squared norm of
    column j is the exact chi of the discretized phase at taus[j].
    Raises ValueError, before any array is allocated, when that rounded
    length n times the delays exceeds _MAX_GAIN_SIZE (the row width is at
    most n).
    """
    n = _record_length(spec, seq, dt, len(taus))
    bins, scales = _row_layout(spec, dt, n)

    # phi = (sensitivity/n) Re sum_k c_k X_k conj(W_k) for the record's
    # rfft X and the weights' rfft W, with c_k = 1 at DC (in _row_layout,
    # only the static offset's bin) and at an even n's Nyquist bin (where
    # W = dt/2 (r_0 - r_n) = 0), 2 elsewhere: so every band bin takes c = 2
    w_hat = np.fft.rfft(_phase_weights(seq, taus, dt, n))
    c = np.where(bins == 0, 1.0, 2.0)
    return ((sensitivity / n) * c * scales * w_hat[:, bins].conj()).real.T


def simulate_sequence(spec: SyntheticNoise, seq: PulseSequence,
                      sensitivity: float, n_traj: int, dt: float,
                      taus=None) -> DecayTrace:
    """Ensemble-average coherence decay under a pulse sequence.

    The phase at each requested delay is that of the signed trapezoid
    integral of a noise record (see _gain), sampled from its exact
    Gaussian law without forming a record, and each delay averages its
    own trajectories, as a measured trace does: trajectory i's phases
    are u_i * |G_j| for row i of one standard normal per delay from
    spec.seed's stream.  Rows are drawn in blocks of bounded size.  The
    trace reports the population a measurement averages,
    P_e = (1 + Re<e^{i phi}>)/2, so full coherence maps to P_e = 1.

    taus defaults to 24 points up to seq.tau; the delays are checked
    before dt.  dt must satisfy 0 < dt <= tau/(10 N) so pulse boundaries
    are resolved, and the record length, the least 2^a 3^b 5^c >=
    ceil(record span / dt), times the number of delays must not exceed
    2^24, which bounds each array of the gain at 128 MiB: a smaller dt
    raises ValueError before any of them is allocated.  Pulses are
    instantaneous: a sequence with tau_pi > 0 is rejected.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if seq.tau_pi > 0:
        raise ValueError("simulate_sequence models instantaneous pulses: "
                         "seq.tau_pi must be 0")
    if taus is None:
        taus = np.linspace(seq.tau / 24.0, seq.tau, 24)
    taus = np.sort(np.asarray(taus, dtype=float))     # a NaN sorts last
    if not (taus.size and 0 < taus[0] and taus[-1] <= seq.tau * (1 + 1e-12)):
        raise ValueError("taus must be one or more delays in (0, seq.tau]")
    if not dt > 0:
        raise ValueError("dt must be positive")
    n_pi = seq.n_pulses
    if dt > seq.tau / (10.0 * max(n_pi, 1)):
        raise ValueError("dt too coarse: need dt <= tau/(10 N)")

    sigma = np.linalg.norm(_gain(spec, seq, sensitivity, dt, taus), axis=0)
    rng = _rng(spec)
    block = max(1, _BLOCK_BYTES // (8 * len(taus)))
    cos_sum = np.zeros(len(taus))
    for start in range(0, n_traj, block):
        phi = rng.standard_normal((min(block, n_traj - start), len(taus)))
        phi *= sigma
        cos_sum += np.cos(phi, out=phi).sum(axis=0)
    coherence = cos_sum / n_traj

    kind = {0: "ramsey", 1: "echo"}.get(n_pi, "cpmg")
    return DecayTrace(times=taus, populations=0.5 * (1.0 + coherence),
                      kind=kind, n_pulses=n_pi)


@lru_cache(maxsize=16)
def _log_edges(f_min: float, f_max: float) -> np.ndarray:
    """The panel edges of dephasing_integral that do not depend on tau:
    ceil(8 log10(f_max/f_min)) + 1 log-spaced edges from f_min to f_max,
    then f_max.  Read-only, since every call on the band shares it."""
    n_log = int(np.ceil(8.0 * np.log10(f_max / f_min))) + 1
    edges = np.concatenate((np.geomspace(f_min, f_max, n_log), [f_max]))
    edges.flags.writeable = False
    return edges


def dephasing_integral(psd, seq: PulseSequence, sensitivity: float) -> float:
    """chi_N(tau): the filter-weighted noise integral at tau = seq.tau.

    chi = (sensitivity^2 tau^2 / 2) * integral_band S(f) g_N(2 pi f, tau) df.

    `psd` is a band-limited SyntheticNoise, or a mapping of its fields
    (amplitude, alpha, f_min, f_max), which SyntheticNoise validates; with
    f_min > 0 the integral is finite for every alpha it accepts.
    Quadrature is the 8-node Gauss-Legendre rule on each panel between
    consecutive edges of the union of f_min + k/tau (one panel per period
    1/tau of the filter), ceil(8 log10(f_max/f_min)) + 1 log-spaced edges
    (at most 1/8 decade per panel of the power law) and f_max.  The last
    two depend only on the band: a memo keeps them, one entry per
    (f_min, f_max) for the 16 bands used last, so a call builds only the
    edges of its tau, and every value is the same to the bit.  A panel
    between two equal edges is dropped.  The rule's error against adaptive
    quadrature is checked in test_mcsim.py by
    TestDephasingIntegral::test_matches_adaptive_quadrature.

    Raises ValueError, before any array is allocated, when 8 nodes per
    period and per log edge, 8 ((f_max - f_min) tau + log edges), exceed
    _MAX_CHI_NODES (2^21): a 1 Hz - 1 GHz band at tau = 0.1 s would ask
    for 8e8.

    For Gaussian noise, coherence = exp(-chi): compare with
    -log of the simulate_sequence coherence.
    """
    if not isinstance(psd, SyntheticNoise):
        psd = SyntheticNoise(**psd)
    if psd.amplitude == 0.0:
        return 0.0

    f_min, f_max = psd.f_min, psd.f_max
    log_edges = _log_edges(f_min, f_max)
    periods = (f_max - f_min) * seq.tau
    # 8 nodes on each panel, and at most periods + len(log_edges) panels
    if not 8 * (periods + len(log_edges)) <= _MAX_CHI_NODES:
        raise ValueError(f"(f_max - f_min) * tau = {periods:.3g} filter "
                         f"periods ask for more than the limit of "
                         f"{_MAX_CHI_NODES} quadrature nodes, 8 per panel")
    edges = np.concatenate((np.arange(f_min, f_max, 1.0 / seq.tau),
                            log_edges))
    edges.sort()
    width = edges[1:] - edges[:-1]
    # the panels between distinct edges, as np.unique would leave them
    wide = width != 0.0
    half = 0.5 * width[wide]
    f = (edges[:-1][wide] + half)[:, None] + half[:, None] * _GL_X
    g = filter_value(seq, TWO_PI * f)
    # amplitude * f ** -alpha * g * (half w) in place; **= special-cases
    # the same exponents (alpha = 0, 1, ...) as ** does
    f **= -psd.alpha
    f *= psd.amplitude
    f *= g
    f *= half[:, None] * _GL_W
    return float(0.5 * sensitivity**2 * seq.tau**2 * f.sum())
