"""CPMG filter functions and their first-harmonic peak geometry.

A sequence of N equally spaced pi pulses inside a free-evolution window tau
weights environmental noise by the filter

    g_N(omega, tau) = |y_N(omega, tau)|^2 / (omega*tau)^2,

    y_N = sum_m c_m e^(i omega t_m)     (the jumps of switching_jumps)
        = (1 - (-1)^N e^(i x)) * (1 - cos(omega tau_pi / 2) / cos(x / 2N))

with x = omega*tau: the pulse sum is geometric, so the cost per point of
filter_value does not grow with N; its factor r has one form below x = 2N
and another above, and each is computed only on the points that use it.
One frequency picks its form with an if and builds no array, and it rounds
as the same point of an array does.
N = 0 reduces to the Ramsey filter 4 sin^2(x/2) / x^2.  For N >= 1 the
filter rejects DC and passes a band around its first harmonic near
N/(2 tau); the peak frequency and angular FWHM of that band are what PSD
reconstruction consumes.  first_harmonic_peak finds both as roots in x on
the lobe that holds the harmonic: the peak where d(ln g)/dx (closed form)
vanishes, the FWHM where g is half of it.
In x those roots depend only on N, tau_pi/tau and the free fraction
1 - N tau_pi/tau, so they are memoized on that key (the last 16 keys): a
batch of sequences with a few pulse counts and tau_pi = 0 searches each
peak once, and first_harmonic_peak only divides them by tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fitutil import find_root
from .units import TWO_PI


def check_pulse_count(n_pulses) -> None:
    """Raise ValueError unless n_pulses is a pulse count: an int or numpy
    integer, not a bool, and >= 0."""
    if (not isinstance(n_pulses, (int, np.integer))
            or isinstance(n_pulses, bool)):
        raise ValueError(f"n_pulses must be an integer, got {n_pulses!r}")
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")


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
        check_pulse_count(self.n_pulses)
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got "
                             f"{self.tau!r}")
        if not 0 <= self.tau_pi < math.inf:
            raise ValueError(f"tau_pi must be >= 0 and finite, got "
                             f"{self.tau_pi!r}")
        if self.n_pulses * self.tau_pi >= self.tau:
            raise ValueError("total pulse time n_pulses*tau_pi must be "
                             "smaller than tau")
        # _free_fraction (not a field) = 1 - N tau_pi/tau, rounded once from
        # the exact rationals of the inputs, as in floats it cancels when
        # N tau_pi -> tau: with tau_pi = a/b and tau = c/d it is
        # (bc - Nad)/(bc), and int/int division rounds correctly.
        a, b = float(self.tau_pi).as_integer_ratio()
        c, d = float(self.tau).as_integer_ratio()
        object.__setattr__(self, "_free_fraction",
                           (b * c - int(self.n_pulses) * a * d) / (b * c))


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


def switching_jumps(seq: PulseSequence) -> tuple:
    """(c, t): the jumps c_m of the switching function s(t) at times t_m (s),
    in time order, so tau^2 g_N = |sum_m c_m e^(i omega t_m)|^2 / omega^2:
    +1 at 0, at each pulse centre tau (j - 1/2)/N one jump 2 (-1)^j when
    tau_pi = 0, else (-1)^j at the centre -+ tau_pi/2 (s(t) = 0 in a
    pulse), and -(-1)^N at tau: N + 2 jumps, or 2N + 2.  Each centre
    -+ tau_pi/2 is rounded on its own, so where N tau_pi lies within
    rounding of tau a pulse's end can pass the next pulse's start or tau
    by an ulp: the times are then ordered and capped at tau, which moves
    no time that is already in order."""
    n = seq.n_pulses
    sign = (-1.0) ** np.arange(n + 1)       # s(t) between the pulses
    centres = seq.tau * (np.arange(1, n + 1) - 0.5) / max(n, 1)
    if seq.tau_pi == 0:
        c, t = 2.0 * sign[1:], centres
    else:
        half = 0.5 * seq.tau_pi
        c, t = np.repeat(sign[1:], 2), np.add.outer(centres, [-half, half])
    t = np.concatenate(([0.0], np.ravel(t), [seq.tau]))
    return (np.concatenate(([1.0], c, [-sign[-1]])),
            np.minimum(np.maximum.accumulate(t), seq.tau))


def filter_value(seq: PulseSequence, omega):
    """Evaluate g_N(omega, tau) for scalar or array angular frequency.

    The filter is even in omega; N >= 1 is _cpmg_filter at x = omega tau
    and v = omega tau_pi / 2.
    """
    omega = np.abs(np.asarray(omega, dtype=float))
    x = omega * seq.tau
    n = seq.n_pulses

    if n == 0:
        # 4 sin^2(x/2)/x^2 == sinc^2(x/2pi) in numpy's normalized
        # convention; one point goes through as a 1-element array, since
        # a 0-d square takes pow and can differ in the last bit
        g = np.sinc(np.ravel(x) / TWO_PI) ** 2
        return float(g[0]) if x.ndim == 0 else g.reshape(x.shape)
    return _cpmg_filter(n, x, 0.5 * omega * seq.tau_pi, seq._free_fraction)


def _cpmg_filter(n: int, x, v, free: float):
    """g_N at x = omega tau >= 0 for N >= 1, with v = omega tau_pi/2 and
    free = 1 - N tau_pi/tau.

    With u = x/2N the closed form is g_N = (4 r s)^2 / x^2 with
    s = sin((u+v)/2) sin((u-v)/2) = (cos v - cos u)/2, where
    u - v = u free keeps s accurate as N tau_pi -> tau, and
    r = sin(N e)/sin(e), e = (u mod pi) - pi/2, so that |r| =
    |1 - (-1)^N e^{ix}| / (2 |cos u|) and r -> N at the odd harmonics
    x = (2m+1) N pi.  Below u = 1, where there is no harmonic, r is taken
    from x directly; with the product form of s this keeps the omega -> 0
    tail exact.  x is a scalar or an array, and v has x's shape.

    One point (a float, numpy float or 0-d array) picks its branch with an
    if and builds no array; an array picks it with masks, and each form of
    r is computed only on the points that use it.  Both call the same
    _r_below, _r_above and _tail, so a scalar rounds as the same point of
    an array does.  Python floats overflow without the warning numpy
    gives, so a point where a step could overflow (|x| or |v| from 1e150,
    or NaN) takes the array path and warns as an array does.

    Both form u = (0.5 x) / N in two roundings: x / 2N would round the
    same real number only while 2N is a float (N below 2^1023).
    """
    if isinstance(x, float) or x.ndim == 0:
        x, v = float(x), float(v)
        if abs(x) < 1e150 and abs(v) < 1e150:
            if x < 1e-150:
                return 0.0
            u = 0.5 * x / n
            if u < 1.0:
                r = _r_below(n, x, u)
            else:
                e = _phase(u)
                r = n if e == 0.0 else _r_above(n, e)
            return float(_tail(r, x, u, v, free))

    flat = np.ravel(x)
    u = 0.5 * flat / n
    low = u < 1.0
    r = np.empty_like(u)
    r[low] = _r_below(n, flat[low], u[low])
    e = _phase(u[~low])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = _r_above(n, e)
        q[e == 0.0] = n
        r[~low] = q
        g = _tail(r, flat, u, np.ravel(v), free)
    g[flat < 1e-150] = 0.0
    g = g.reshape(np.shape(x))
    return float(g) if g.ndim == 0 else g


def _r_below(n: int, x, u):
    """r below u = 1, from x directly."""
    h = 0.5 * x
    return (np.sin(h) if n % 2 == 0 else np.cos(h)) / np.cos(u)


def _phase(u):
    """e = (u mod pi) - pi/2.  The remainder is exact in IEEE arithmetic,
    so a float's % and numpy's np.mod on an array give the same bits."""
    return u % np.pi - 0.5 * np.pi


def _r_above(n: int, e):
    """r = sin(N e)/sin(e) from u = 1 up, at e != 0 (r = N at e = 0)."""
    return np.sin(n * e) / np.sin(e)


def _tail(r, x, u, v, free: float):
    """g_N = (4 r s)^2 / x^2 from r, in the one order of rounding:
    s = sin(0.5 (u + v)) sin((0.5 u) free), t = (r 4) s, g = (t t) / (x x).
    The products are taken with *=, which rebinds a float and keeps an
    array's buffer: the same order either way.  (0.5 u) free stays in two
    roundings: u (free / 2) would round the same real number only while
    neither u nor free is subnormal, and u is subnormal at some x >= 1e-150
    once N is above about 1e157."""
    s = np.sin(0.5 * (u + v))
    s *= np.sin(0.5 * u * free)
    t = r * 4.0
    t *= s
    t *= t
    t /= x * x
    return t


def first_harmonic_peak(seq: PulseSequence) -> FilterPeak:
    """Locate the first-harmonic maximum of g_N and its angular FWHM.

    The roots are _harmonic_roots' in x = omega tau, divided by tau.

    Raises ValueError for N = 0: the Ramsey filter has no harmonic
    structure and is handled separately by its callers; and for a tau so
    small that omega = x / tau overflows on the lobe.
    """
    n = seq.n_pulses
    if n < 1:
        raise ValueError("first_harmonic_peak requires n_pulses >= 1")
    p = seq.tau_pi / seq.tau
    if not math.isfinite(_lobe(n, p)[1] / float(seq.tau)):
        raise ValueError(f"tau = {seq.tau!r} s is too small: the filter "
                         f"peak lies above the largest float frequency")
    x_pk, x_lo, x_hi = _harmonic_roots(n, p, seq._free_fraction)
    return FilterPeak(f_peak=x_pk / (TWO_PI * seq.tau),
                      delta_omega=(x_hi - x_lo) / seq.tau)


def _lobe(n: int, p: float) -> tuple:
    """(lo, hi) in x of the lobe of g_N that holds the first harmonic, for
    p = tau_pi/tau: for N >= 2 between the zeros of r at x = (N -+ 2) pi,
    clamped at 0; for the echo (r = 1) up to the first zero of s, at
    4 pi / (1 + p)."""
    if n == 1:
        return 0.0, np.pi / (0.25 * (1.0 + p))
    return max(n - 2, 0) * np.pi, (n + 2) * np.pi


@lru_cache(maxsize=16)
def _harmonic_roots(n: int, p: float, free: float) -> tuple:
    """(x_pk, x_lo, x_hi): the first-harmonic maximum of g_N in x = omega
    tau and its half-maximum points, for p = tau_pi/tau.

    Works on _lobe of g = (4 r s)^2 / x^2 (see _cpmg_filter).  The peak is
    the root of the closed form d(ln g)/dx / 2 = r'/r + s'/s - 1/x, and the
    half-maximum points are the roots of g - g_pk/2 on either side of it,
    all three from fitutil.find_root at a relative 4 eps.
    """
    # s = sin(ca x) sin(cb x)
    ca, cb = 0.25 * (1.0 / n + p), 0.25 * free / n
    lo, hi = _lobe(n, p)

    def dlng(x):
        # r = sin(N e)/sin(e), e = (x - N pi)/2N; r'/r -> 0 at e = 0, and
        # for N = 1 the two cotangents cancel exactly
        e = 0.5 * (x - n * np.pi) / n
        dr = (n / np.tan(n * e) - 1.0 / np.tan(e)) / (2 * n) if e else 0.0
        return dr + ca / np.tan(ca * x) + cb / np.tan(cb * x) - 1.0 / x

    def g(x):
        return _cpmg_filter(n, x, 0.5 * x * p, free)

    # d(ln g)/dx is infinite at the lobe ends: step a billionth of the lobe
    # inside, and at least one ulp where that step rounds away (x >= 2^27)
    edge = 1e-9 * (hi - lo)
    x_pk = find_root(dlng, max(lo + edge, np.nextafter(lo, hi)),
                     min(hi - edge, np.nextafter(hi, lo)))
    half = 0.5 * g(x_pk)
    x_lo = find_root(lambda x: g(x) - half, lo, x_pk)
    x_hi = find_root(lambda x: g(x) - half, x_pk, hi)
    return x_pk, x_lo, x_hi
