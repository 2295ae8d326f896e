"""CPMG filter functions and their first-harmonic peak geometry.

A sequence of N equally spaced pi pulses inside a free-evolution window tau
weights environmental noise by the filter

    g_N(omega, tau) = |y_N(omega, tau)|^2 / (omega*tau)^2,

    y_N = 1 + (-1)^(1+N) e^(i omega tau)
            + 2 cos(omega tau_pi / 2) * sum_{j=1..N} (-1)^j e^(i omega tau (j-1/2)/N)
        = (1 - (-1)^N e^(i x)) * (1 - cos(omega tau_pi / 2) / cos(x / 2N))

with x = omega*tau: the pulse sum is geometric, so the cost per point of
filter_value does not grow with N.  N = 0 reduces to the Ramsey filter
4 sin^2(x/2) / x^2.  For N >= 1 the filter rejects DC and passes a band
around its first harmonic near N/(2 tau); the peak frequency and angular
FWHM of that band are what PSD reconstruction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .units import TWO_PI


@dataclass(frozen=True)
class PulseSequence:
    """Decoupling-sequence descriptor.

    n_pulses : number of pi pulses N (0 = Ramsey, 1 = echo)
    tau      : total free-evolution time (s)
    tau_pi   : pi-pulse duration (s); 0 when a dataset does not record it
    """

    n_pulses: int
    tau: float
    tau_pi: float = 0.0

    def __post_init__(self):
        if self.n_pulses < 0:
            raise ValueError("n_pulses must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.tau_pi < 0:
            raise ValueError("tau_pi must be >= 0")
        if self.n_pulses * self.tau_pi >= self.tau:
            raise ValueError("total pulse time n_pulses*tau_pi must be "
                             "smaller than tau")


@dataclass(frozen=True)
class FilterPeak:
    """First-harmonic passband of a CPMG filter.

    f_peak      : frequency of the filter maximum (Hz)
    delta_omega : angular full width at half maximum of the peak (rad/s)
    """

    f_peak: float
    delta_omega: float

    def __post_init__(self):
        if self.f_peak <= 0 or self.delta_omega <= 0:
            raise ValueError("f_peak and delta_omega must be positive")


def pulse_times(seq: PulseSequence) -> np.ndarray:
    """Centers of the pi pulses: tau*(j - 1/2)/N, j = 1..N (empty for N=0)."""
    n = seq.n_pulses
    return seq.tau * (np.arange(1, n + 1) - 0.5) / max(n, 1)


def filter_value(seq: PulseSequence, omega):
    """Evaluate g_N(omega, tau) for scalar or array angular frequency.

    The filter is even in omega.  For N >= 1, with u = x/2N and
    v = omega tau_pi/2, the closed form is g_N = (4 r s)^2 / x^2 with
    s = sin((u+v)/2) sin((u-v)/2) = (cos v - cos u)/2 and
    r = sin(N e)/sin(e), e = (u mod pi) - pi/2, so that |r| =
    |1 - (-1)^N e^{ix}| / (2 |cos u|) and r -> N at the odd harmonics
    x = (2m+1) N pi.  Below u = 1, where there is no harmonic, r is taken
    from x directly; with the product form of s this keeps the omega -> 0
    tail exact.
    """
    omega = np.abs(np.asarray(omega, dtype=float))
    x = omega * seq.tau
    n = seq.n_pulses

    if n == 0:
        # 4 sin^2(x/2)/x^2 == sinc^2(x/2pi) in numpy's normalized convention
        g = np.sinc(x / TWO_PI) ** 2
        return float(g) if g.ndim == 0 else g

    u = 0.5 * x / n
    v = 0.5 * omega * seq.tau_pi
    e = np.mod(u, np.pi) - 0.5 * np.pi
    p = np.sin(0.5 * x) if n % 2 == 0 else np.cos(0.5 * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(u < 1.0, p / np.cos(u),
                     np.where(e == 0.0, n, np.sin(n * e) / np.sin(e)))
        s = np.sin(0.5 * (u + v)) * np.sin(0.5 * (u - v))
        g = (4.0 * r * s) ** 2 / x ** 2
    g = np.where(x < 1e-150, 0.0, g)
    return float(g) if g.ndim == 0 else g


def first_harmonic_peak(seq: PulseSequence) -> FilterPeak:
    """Locate the first-harmonic maximum of g_N and its angular FWHM.

    The peak is bracketed in [0.5, 1.5]*N/(2 tau) (a dense pre-scan guards
    against side-lobe capture, then a bounded scalar maximization refines
    it to about sqrt(eps) ~ 1.5e-8 relative, where g is flat to rounding).
    The FWHM comes from root-bracketing the half-peak crossing on each
    flank, found in one array evaluation of outward steps.

    Raises ValueError for N = 0: the Ramsey filter has no harmonic
    structure and is handled separately by its callers.
    """
    if seq.n_pulses < 1:
        raise ValueError("first_harmonic_peak requires n_pulses >= 1")

    omega0 = TWO_PI * seq.n_pulses / (2.0 * seq.tau)
    lo, hi = 0.5 * omega0, 1.5 * omega0

    grid = np.linspace(lo, hi, 512)
    values = filter_value(seq, grid)
    i_max = int(np.argmax(values))
    step = grid[1] - grid[0]
    a = max(lo, grid[i_max] - 2 * step)
    b = min(hi, grid[i_max] + 2 * step)
    res = minimize_scalar(lambda w: -filter_value(seq, w), bounds=(a, b),
                          method="bounded",
                          options={"xatol": 1e-10 * omega0})
    omega_pk = float(res.x)
    g_pk = filter_value(seq, omega_pk)
    half = 0.5 * g_pk

    def _flank(direction: int) -> float:
        # step outward until g drops below half the peak, then root-find
        steps = omega_pk + direction * np.arange(1, 2001) * (omega_pk / 200.0)
        steps = np.where(steps <= 0, 1e-12 * omega_pk, steps)
        below = np.flatnonzero(filter_value(seq, steps) < half)
        if below.size == 0:
            raise RuntimeError("half-maximum crossing not found; filter "
                               "peak geometry is unexpectedly flat")
        i = below[0]
        wa, wb = sorted((omega_pk if i == 0 else steps[i - 1], steps[i]))
        return brentq(lambda w: filter_value(seq, w) - half,
                      wa, wb, xtol=1e-12 * omega_pk)

    omega_lo = _flank(-1)
    omega_hi = _flank(+1)
    return FilterPeak(f_peak=omega_pk / TWO_PI,
                      delta_omega=omega_hi - omega_lo)
