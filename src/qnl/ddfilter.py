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
FWHM of that band are what PSD reconstruction consumes.  first_harmonic_peak
finds both as roots in x on the lobe that holds the harmonic: the peak
where d(ln g)/dx (closed form) vanishes, the FWHM where g is half of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fitutil import find_root
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

    @cached_property
    def _free_fraction(self) -> float:
        """1 - N tau_pi/tau, rounded once from the exact rationals of the
        float inputs: formed in floats it cancels as N tau_pi -> tau."""
        return float(1 - self.n_pulses * Fraction(self.tau_pi)
                     / Fraction(self.tau))


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
    s = sin((u+v)/2) sin((u-v)/2) = (cos v - cos u)/2, where
    u - v = u (1 - N tau_pi/tau) keeps s accurate as N tau_pi -> tau, and
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
        s = np.sin(0.5 * (u + v)) * np.sin(0.5 * u * seq._free_fraction)
        g = (4.0 * r * s) ** 2 / x ** 2
    g = np.where(x < 1e-150, 0.0, g)
    return float(g) if g.ndim == 0 else g


def first_harmonic_peak(seq: PulseSequence) -> FilterPeak:
    """Locate the first-harmonic maximum of g_N and its angular FWHM.

    Works in x = omega tau on the lobe of g = (4 r s)^2 / x^2 (see
    filter_value) that holds the first harmonic: for N >= 2 it runs between
    the zeros of r at x = (N -+ 2) pi, clamped at 0; for the echo (r = 1)
    over (0, 4 pi / (1 + tau_pi/tau)), up to the first zero of s.  The peak
    is the root of the closed form d(ln g)/dx / 2 = r'/r + s'/s - 1/x, and
    the half-maximum points are the roots of g - g_pk/2 on either side of
    it, all three from fitutil.find_root at a relative 4 eps.

    Raises ValueError for N = 0: the Ramsey filter has no harmonic
    structure and is handled separately by its callers; and for a tau so
    small that omega = x / tau overflows on the lobe.
    """
    n = seq.n_pulses
    if n < 1:
        raise ValueError("first_harmonic_peak requires n_pulses >= 1")

    p = seq.tau_pi / seq.tau
    # s = sin(ca x) sin(cb x)
    ca, cb = 0.25 * (1.0 / n + p), 0.25 * seq._free_fraction / n
    if n == 1:
        lo, hi = 0.0, np.pi / ca
    else:
        lo, hi = max(n - 2, 0) * np.pi, (n + 2) * np.pi
    if not math.isfinite(hi / float(seq.tau)):
        raise ValueError(f"tau = {seq.tau!r} s is too small: the filter "
                         f"peak lies above the largest float frequency")

    def dlng(x):
        # r = sin(N e)/sin(e), e = (x - N pi)/2N; r'/r -> 0 at e = 0, and
        # for N = 1 the two cotangents cancel exactly
        e = 0.5 * (x - n * np.pi) / n
        dr = (n / np.tan(n * e) - 1.0 / np.tan(e)) / (2 * n) if e else 0.0
        return dr + ca / np.tan(ca * x) + cb / np.tan(cb * x) - 1.0 / x

    def g(x):
        return filter_value(seq, x / seq.tau)

    edge = 1e-9 * (hi - lo)  # d(ln g)/dx is infinite at the lobe ends
    x_pk = find_root(dlng, lo + edge, hi - edge)
    half = 0.5 * g(x_pk)
    x_lo = find_root(lambda x: g(x) - half, lo, x_pk)
    x_hi = find_root(lambda x: g(x) - half, x_pk, hi)
    return FilterPeak(f_peak=x_pk / (TWO_PI * seq.tau),
                      delta_omega=(x_hi - x_lo) / seq.tau)
