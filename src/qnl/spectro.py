"""Cavity-qubit spectroscopy models and fits.

The qubit dispersion is a hyperbola in gate voltage with a first-order
insensitive sweet spot; the coupled cavity-qubit system shows an avoided
crossing whose transmission follows the single-mode input-output
expression.  Frequencies are in Hz; linewidths and couplings (kappa,
gamma, g, chi) are angular rates in rad/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitutil import FitError, covariance, named, run_least_squares
from .units import TWO_PI


@dataclass(frozen=True)
class QubitDispersion:
    """Hyperbolic qubit dispersion f_q(dv) = sqrt(f_ss^2 + (lever_c*dv)^2).

    f_ss    : sweet-spot transition frequency (Hz)
    lever_c : coefficient multiplying the bias offset (Hz/V)
    v_ss    : bias voltage of the sweet spot (V); offsets are dv = V - v_ss
    """

    f_ss: float
    lever_c: float
    v_ss: float = 0.0

    def __post_init__(self):
        if self.f_ss <= 0:
            raise ValueError("f_ss must be positive")
        if self.lever_c < 0:
            raise ValueError("lever_c must be non-negative")


@dataclass(frozen=True)
class CavityQubitParams:
    """Single-mode cavity coupled to a two-level qubit.

    f_r   : resonator frequency (Hz)
    kappa : resonator linewidth (rad/s)
    f_q   : qubit frequency (Hz)
    gamma : qubit linewidth (rad/s)
    g     : coupling strength (rad/s)
    """

    f_r: float
    kappa: float
    f_q: float
    gamma: float
    g: float

    def __post_init__(self):
        if min(self.f_r, self.kappa, self.f_q, self.gamma) <= 0:
            raise ValueError("f_r, kappa, f_q, gamma must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")


def qubit_frequency(disp: QubitDispersion, dv):
    """f_q at bias offset dv (V): sqrt(f_ss^2 + (lever_c*dv)^2).

    Even in dv, minimized at the sweet spot dv = 0.  Raises OverflowError
    where f_q exceeds the float range.
    """
    dv = np.asarray(dv, dtype=float)
    with np.errstate(over="ignore"):
        result = np.hypot(disp.f_ss, disp.lever_c * dv)
    if np.any(np.isinf(result)):
        raise OverflowError("qubit frequency overflows at this bias offset")
    return float(result) if result.ndim == 0 else result


def lever_arm(disp: QubitDispersion, dv):
    """Voltage sensitivity d f_q / d V at offset dv (Hz/V).

    Analytic derivative of the hyperbola: lever_c^2 * dv / f_q(dv);
    zero at the sweet spot and odd in dv.  Since |lever_c dv| <= f_q, it
    overflows only where qubit_frequency does.
    """
    dv = np.asarray(dv, dtype=float)
    f_q = qubit_frequency(disp, dv)
    result = disp.lever_c * (disp.lever_c * dv / f_q)
    return float(result) if result.ndim == 0 else result


def fit_dispersion(points) -> dict:
    """Least-squares hyperbola fit to (voltage, frequency) points.

    Needs >= 3 points with distinct voltages and positive frequencies.
    Returns a dict with keys f_ss (Hz), lever_c (Hz/V) and v_ss (V), the
    fields of a QubitDispersion, plus residual_norm and stderr.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise FitError("need at least 3 (voltage, frequency) points")
    volts, freqs = pts[:, 0], pts[:, 1]
    if np.any(freqs <= 0):
        raise FitError("frequencies must be positive")
    if np.ptp(volts) == 0:
        raise FitError("degenerate input: all points at the same voltage")

    i_min = int(np.argmin(freqs))
    v_ss0, f_ss0 = volts[i_min], freqs[i_min]
    i_far = int(np.argmax(np.abs(volts - v_ss0)))
    dv_far = volts[i_far] - v_ss0
    if dv_far != 0 and freqs[i_far] > f_ss0:
        lever0 = np.sqrt(freqs[i_far]**2 - f_ss0**2) / abs(dv_far)
    else:
        lever0 = 1e-6 * f_ss0 / max(np.ptp(volts), 1e-30)

    def model(p):
        f_ss, lever, v_ss = p
        dv = volts - v_ss
        h = np.hypot(f_ss, lever * dv)
        slope = lever * dv / h
        return (h - freqs,
                np.column_stack((f_ss / h, slope * dv, -lever * slope)))

    result = run_least_squares(
        model, [f_ss0, lever0, v_ss0],
        bounds=([1e-300, 0.0, -np.inf], [np.inf, np.inf, np.inf]))
    fit, errors = named(result, ("f_ss", "lever_c", "v_ss"))
    return {**fit, "residual_norm": float(np.linalg.norm(result.fun)),
            "stderr": errors}


def dressed_frequencies(p: CavityQubitParams) -> tuple[float, float]:
    """Avoided-crossing eigenfrequencies (f_plus, f_minus) in Hz.

    f_pm = (f_r+f_q)/2 +- sqrt(delta^2 + (2g/2pi)^2)/2 with delta = f_r-f_q.
    On resonance the splitting is the vacuum Rabi value 2g/2pi.
    """
    delta = p.f_r - p.f_q
    g_hz = p.g / TWO_PI
    half_split = 0.5 * np.hypot(delta, 2.0 * g_hz)
    center = 0.5 * (p.f_r + p.f_q)
    return center + half_split, center - half_split


def transmission(p: CavityQubitParams, f_probe):
    """Complex transmission amplitude of the driven coupled system.

    S21(omega) = (kappa/2) / ( i(omega - omega_r) + kappa/2
                               + g^2 / ( i(omega - omega_q) + gamma/2 ) ),
    normalized so the bare resonator (g = 0) peaks at 1 on resonance;
    |S21| <= 1 always.
    """
    omega = TWO_PI * np.asarray(f_probe, dtype=float)
    _, denom = _s21_denominator(omega, p.f_r, p.kappa, p.f_q, p.gamma, p.g)
    result = np.asarray(0.5 * p.kappa / denom)
    return complex(result) if result.ndim == 0 else result


def _s21_denominator(omega, f_r, kappa, f_q, gamma, g):
    """(Q, D): the qubit term Q = i(omega - omega_q) + gamma/2 and
    S21's denominator D = i(omega - omega_r) + kappa/2 + g^2/Q."""
    q = 1j * (omega - TWO_PI * f_q) + 0.5 * gamma
    return q, 1j * (omega - TWO_PI * f_r) + 0.5 * kappa + g**2 / q


def fit_transmission(trace, known: dict) -> dict:
    """Fit |S21| spectroscopy data for (g, gamma, f_q) at known (f_r, kappa).

    Parameters
    ----------
    trace : sequence of (frequency Hz, amplitude) pairs, normalized so the
        bare-resonator peak is ~1; should span both splitting peaks with
        >= 20 points.
    known : dict with fixed 'f_r' (Hz) and 'kappa' (rad/s).

    Returns a dict with keys g, gamma (rad/s), f_q (Hz), plus
    residual_norm, stderr, covariance_diag, and warnings.  An
    under-resolved (single-peak) trace is fitted anyway, with a note in
    warnings and a correspondingly wide covariance.
    """
    pts = np.asarray(trace, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 20:
        raise FitError("need at least 20 (frequency, amplitude) points")
    freqs, amps = pts[:, 0], pts[:, 1]
    order = np.argsort(freqs)
    freqs, amps = freqs[order], amps[order]
    f_r, kappa = float(known["f_r"]), float(known["kappa"])

    notes = []
    peaks, widths = _prominent_peaks(amps, 0.1 * np.ptp(amps))
    if len(peaks) >= 2:
        # two tallest peaks bracket the avoided crossing
        tallest = peaks[np.argsort(amps[peaks])[-2:]]
        f_lo, f_hi = np.sort(freqs[tallest])
        g0 = np.pi * (f_hi - f_lo)            # separation = 2g/2pi
        f_q0 = f_lo + f_hi - f_r              # dressed-state sum rule
    else:
        notes.append("splitting not resolved: single-peak trace; "
                     "confidence intervals will be wide")
        width = widths.max() if len(peaks) else len(freqs) / 4
        df = np.median(np.diff(freqs))
        g0 = max(np.pi * width * df, 0.25 * kappa)
        f_q0 = f_r
    gamma0 = kappa

    omega = TWO_PI * freqs

    def model(p):
        # dS21/dp = -(S21/D) dD/dp, so d|S21|/dp = -|S21| Re(dD/dp / D)
        g, gamma, f_q = p
        q, d = _s21_denominator(omega, f_r, kappa, f_q, gamma, g)
        amp = np.abs(0.5 * kappa / d)
        gq = g**2 / q**2
        d_denom = np.column_stack((2.0 * g / q, -0.5 * gq, 1j * TWO_PI * gq))
        return amp - amps, -amp[:, None] * (d_denom / d[:, None]).real

    span = TWO_PI * np.ptp(freqs)
    result = run_least_squares(
        model, [g0, gamma0, f_q0],
        bounds=([0.0, 1e-6 * kappa, freqs[0] - np.ptp(freqs)],
                [10.0 * span, 100.0 * span, freqs[-1] + np.ptp(freqs)]))
    fit, errors = named(result, ("g", "gamma", "f_q"))
    return {**fit, "residual_norm": float(np.linalg.norm(result.fun)),
            "stderr": errors, "warnings": notes,
            "covariance_diag": np.diag(covariance(result)).tolist()}


def _prominent_peaks(x, min_prominence):
    """Peaks of x whose prominence is at least min_prominence.

    SciPy's find_peaks(x, prominence=min_prominence) and peak_widths(x,
    peaks, rel_height=0.5) in direct form, to the bit.  A peak is a run of
    equal samples above the runs on both sides (so never at an end of x),
    placed at the run's middle sample (rounded down).  A side's base is
    its lowest sample before the first higher one, or before the end of
    x; the prominence is the peak's height above the higher base.  The
    width, in samples, joins the two points at half the prominence below
    the peak, each interpolated linearly between the samples around it.
    Returns (indices, widths).
    """
    x = np.asarray(x, dtype=float)
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    level = x[starts]
    top = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    peaks = (starts[1:-1] + starts[2:] - 1)[top] // 2
    base = np.maximum(_left_bases(x), _left_bases(x[::-1])[::-1])[peaks]
    prominences = x[peaks] - base
    keep = prominences >= min_prominence
    peaks = peaks[keep]
    heights = x[peaks] - prominences[keep] * 0.5
    xs, widths = x.tolist(), []
    for p, h in zip(peaks.tolist(), heights.tolist()):
        # walk out to the nearest sample at or below h (the base at the
        # latest), then back by the share of the step where h is crossed
        i = p
        while h < xs[i]:
            i -= 1
        lo = i + (h - xs[i]) / (xs[i + 1] - xs[i]) if xs[i] < h else i
        i = p
        while h < xs[i]:
            i += 1
        hi = i - (h - xs[i]) / (xs[i - 1] - xs[i]) if xs[i] < h else i
        widths.append(hi - lo)
    return peaks, np.array(widths, dtype=float)


def _left_bases(x):
    """Per sample i, the lowest of x[j + 1 : i + 1], where j is the nearest
    sample left of i higher than x[i] (or -1): the left base of a peak at
    i.  One pass with a stack of (sample, lowest since the entry below)."""
    stack, bases = [], []
    for v in x.tolist():
        low = v
        while stack and stack[-1][0] <= v:
            _, below = stack.pop()
            if below < low:
                low = below
        stack.append((v, low))
        bases.append(low)
    return np.array(bases)


def purcell_rate(p: CavityQubitParams) -> float:
    """Radiative decay rate through the detuned resonator (1/s).

    Gamma = kappa * g^2 / delta^2 with the angular detuning
    delta = 2pi(f_r - f_q); invalid on resonance.
    """
    if p.f_r == p.f_q:
        raise ValueError("purcell_rate is undefined at zero detuning")
    delta = TWO_PI * (p.f_r - p.f_q)
    return p.kappa * p.g**2 / delta**2
