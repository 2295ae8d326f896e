"""Cavity-qubit spectroscopy models and fits.

The qubit dispersion is a hyperbola in gate voltage with a first-order
insensitive sweet spot; the coupled cavity-qubit system shows an avoided
crossing whose transmission follows the single-mode input-output
expression.  Frequencies are in Hz; linewidths and couplings (kappa,
gamma, g, chi) are angular rates in rad/s.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks, peak_widths

from .fitutil import FitError, covariance, run_least_squares, stderr
from .units import TWO_PI, hz_to_omega, omega_to_hz


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


def fit_dispersion(points, full_output: bool = False):
    """Least-squares hyperbola fit to (voltage, frequency) points.

    Needs >= 3 points with distinct voltages and positive frequencies.
    Returns a QubitDispersion; with full_output=True also returns a report
    dict carrying residual_norm and per-parameter standard errors.
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

    def residual(p):
        f_ss, lever, v_ss = p
        return np.hypot(f_ss, lever * (volts - v_ss)) - freqs

    result = run_least_squares(
        residual, [f_ss0, lever0, v_ss0],
        bounds=([1e-300, 0.0, -np.inf], [np.inf, np.inf, np.inf]))
    disp = QubitDispersion(f_ss=float(result.x[0]), lever_c=float(result.x[1]),
                           v_ss=float(result.x[2]))
    if not full_output:
        return disp
    report = {
        "residual_norm": float(np.linalg.norm(result.fun)),
        "stderr": dict(zip(("f_ss", "lever_c", "v_ss"),
                           stderr(result, len(volts)).tolist())),
    }
    return disp, report


def dressed_frequencies(p: CavityQubitParams) -> tuple[float, float]:
    """Avoided-crossing eigenfrequencies (f_plus, f_minus) in Hz.

    f_pm = (f_r+f_q)/2 +- sqrt(delta^2 + (2g/2pi)^2)/2 with delta = f_r-f_q.
    On resonance the splitting is the vacuum Rabi value 2g/2pi.
    """
    delta = p.f_r - p.f_q
    g_hz = omega_to_hz(p.g)
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
    omega = hz_to_omega(np.asarray(f_probe, dtype=float))
    omega_r, omega_q = hz_to_omega(p.f_r), hz_to_omega(p.f_q)
    denom = (1j * (omega - omega_r) + 0.5 * p.kappa
             + p.g**2 / (1j * (omega - omega_q) + 0.5 * p.gamma))
    result = np.asarray(0.5 * p.kappa / denom)
    return complex(result) if result.ndim == 0 else result


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
    under-resolved (single-peak) trace is fitted anyway, with a warning
    and a correspondingly wide covariance.
    """
    pts = np.asarray(trace, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 20:
        raise FitError("need at least 20 (frequency, amplitude) points")
    freqs, amps = pts[:, 0], pts[:, 1]
    order = np.argsort(freqs)
    freqs, amps = freqs[order], amps[order]
    f_r, kappa = float(known["f_r"]), float(known["kappa"])

    notes = []
    peaks, _ = find_peaks(amps, prominence=0.1 * np.ptp(amps))
    if len(peaks) >= 2:
        # two tallest peaks bracket the avoided crossing
        tallest = peaks[np.argsort(amps[peaks])[-2:]]
        f_lo, f_hi = np.sort(freqs[tallest])
        g0 = np.pi * (f_hi - f_lo)            # separation = 2g/2pi
        f_q0 = f_lo + f_hi - f_r              # dressed-state sum rule
    else:
        notes.append("splitting not resolved: single-peak trace; "
                     "confidence intervals will be wide")
        warnings.warn(notes[-1])
        widths = peak_widths(amps, peaks, rel_height=0.5)[0] if len(peaks) \
            else np.array([len(freqs) / 4])
        df = np.median(np.diff(freqs))
        g0 = max(np.pi * widths.max() * df, 0.25 * kappa)
        f_q0 = f_r
    gamma0 = kappa

    def residual(p):
        g, gamma, f_q = p
        model = transmission(
            CavityQubitParams(f_r=f_r, kappa=kappa, f_q=f_q,
                              gamma=gamma, g=max(g, 0.0)), freqs)
        return np.abs(model) - amps

    span = hz_to_omega(np.ptp(freqs))
    result = run_least_squares(
        residual, [g0, gamma0, f_q0],
        bounds=([0.0, 1e-6 * kappa, freqs[0] - np.ptp(freqs)],
                [10.0 * span, 100.0 * span, freqs[-1] + np.ptp(freqs)]))
    cov = covariance(result, len(freqs))
    errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return {
        "g": float(result.x[0]),
        "gamma": float(result.x[1]),
        "f_q": float(result.x[2]),
        "residual_norm": float(np.linalg.norm(result.fun)),
        "stderr": dict(zip(("g", "gamma", "f_q"), errors.tolist())),
        "covariance_diag": np.diag(cov).tolist(),
        "warnings": notes,
    }


def purcell_rate(p: CavityQubitParams) -> float:
    """Radiative decay rate through the detuned resonator (1/s).

    Gamma = kappa * g^2 / delta^2 with the angular detuning
    delta = 2pi(f_r - f_q); invalid on resonance.
    """
    if p.f_r == p.f_q:
        raise ValueError("purcell_rate is undefined at zero detuning")
    delta = TWO_PI * (p.f_r - p.f_q)
    return p.kappa * p.g**2 / delta**2
