"""Coherence-decay models and fits: relaxation, Ramsey, CPMG.

The CPMG decay model is

    P_e(tau) = p0 + a * exp(-tau/(2 T1)) * exp(-(tau/T_phi)^(alpha+1)),

where the pulse-induced loss exp(-chi_P) is folded into the fitted
amplitude a (only the product is identifiable from a single trace).
T2 of a CPMG trace is defined as the time where the total coherence
factor exp(-tau/2T1 - (tau/T_phi)^stretch) reaches 1/e.  The dephasing
times of a sequence family scale as T_phi ~ N^beta with
beta = alpha/(1+alpha) for 1/f^alpha noise, which fit_scaling inverts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fitutil import FitError, find_root, line_fit, named, run_least_squares

_KINDS = ("relaxation", "ramsey", "echo", "cpmg")

STRETCH_BOUNDS = (0.5, 4.0)
# P_e a trace may hold: measurement noise may push estimates just past [0, 1]
_POPULATION_BOUNDS = (-0.1, 1.1)


@dataclass(frozen=True)
class DecayTrace:
    """A measured decay: excited-state population versus delay.

    times       : delays (s), finite, non-negative and strictly increasing
    populations : P_e per delay; finite, within _POPULATION_BOUNDS
    kind        : one of "relaxation", "ramsey", "echo", "cpmg"
    n_pulses    : pi-pulse count (0 for relaxation/ramsey, 1 for echo,
                  >= 1 for cpmg)
    """

    times: np.ndarray
    populations: np.ndarray
    kind: str
    n_pulses: int = 0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        pops = np.asarray(self.populations, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "populations", pops)
        if times.ndim != 1 or times.shape != pops.shape:
            raise ValueError("times and populations must be 1-d and "
                             "equal length")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(pops))):
            raise ValueError("times and populations must be finite")
        if np.any(times < 0) or np.any(np.diff(times) <= 0):
            raise ValueError("times must be non-negative and strictly "
                             "increasing")
        lo, hi = _POPULATION_BOUNDS
        if np.any((pops < lo) | (pops > hi)):
            raise ValueError(f"populations outside the [{lo}, {hi}] tolerance")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.kind == "echo" and self.n_pulses == 0:
            object.__setattr__(self, "n_pulses", 1)
        expected = {"relaxation": 0, "ramsey": 0, "echo": 1}
        if self.kind in expected and self.n_pulses != expected[self.kind]:
            raise ValueError(f"{self.kind} trace must have "
                             f"n_pulses={expected[self.kind]}")
        if self.kind == "cpmg" and self.n_pulses < 1:
            raise ValueError("cpmg trace needs n_pulses >= 1")


@dataclass(frozen=True)
class CoherenceFit:
    """Fitted decay parameters; unused entries stay None.

    t1        : relaxation time (s)
    t2        : 1/e total-coherence time (s)
    t_phi     : pure dephasing time (s)
    stretch   : dephasing exponent alpha+1
    amplitude : a (with any pulse-induced loss folded in)
    offset    : p0
    detuning  : Ramsey fringe frequency (Hz)
    phase     : Ramsey fringe phase (rad)
    errors    : 1-sigma standard errors keyed by field name
    flags     : quality flags, e.g. "low_confidence", "stretch_at_bound"
    """

    amplitude: float
    offset: float
    t1: float | None = None
    t2: float | None = None
    t_phi: float | None = None
    stretch: float = 1.0
    detuning: float | None = None
    phase: float | None = None
    errors: dict = field(default_factory=dict)
    flags: tuple = ()

    def __post_init__(self):
        for name in ("t1", "t2", "t_phi"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive when set")
        if not self.stretch > 0:
            raise ValueError("stretch must be positive")


@dataclass(frozen=True)
class ScalingFit:
    """Power-law scaling T_phi ~ N^beta and the implied noise exponent.

    alpha = beta/(1-beta); finite and positive only for 0 < beta < 1.
    """

    beta: float
    alpha: float
    beta_err: float
    alpha_err: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")


def fit_relaxation(trace: DecayTrace) -> CoherenceFit:
    """Fit P_e(t) = p0 + a*exp(-t/T1) to a relaxation trace.

    Needs >= 5 points.  A fitted T1 above 100x the trace span is flagged
    "low_confidence" (the trace does not constrain it).
    """
    if trace.kind != "relaxation":
        raise ValueError("fit_relaxation expects a relaxation trace")
    t, y = trace.times, trace.populations
    if len(t) < 5:
        raise FitError("need at least 5 points")
    fit, errors = _fit_exponential(t, y, "t1")
    flags = ()
    # T1 is unconstrained when it dwarfs the trace span or when there is
    # no decaying signal to begin with
    if fit["t1"] > 100.0 * t[-1] or abs(fit["amplitude"]) <= max(
            3.0 * errors["amplitude"], 1e-6 * max(np.ptp(y), 1.0)):
        flags = ("low_confidence",)
    return CoherenceFit(**fit, errors=errors, flags=flags)


def fit_ramsey(trace: DecayTrace) -> CoherenceFit:
    """Fit decaying fringes p0 + a*exp(-t/T2)*cos(2 pi f t + phi0).

    Needs >= 10 points; for an identifiable detuning the trace should span
    at least two fringe periods.  The detuning is initialized from the
    dominant FFT bin of the mean-subtracted signal; when no oscillation is
    detected the fit falls back to a pure-exponential envelope, flagged
    "no_oscillation" and "detuning_unconstrained".
    """
    if trace.kind != "ramsey":
        raise ValueError("fit_ramsey expects a ramsey trace")
    t, y = trace.times, trace.populations
    if len(t) < 10:
        raise FitError("need at least 10 points")

    dt = float(np.median(np.diff(t)))
    fringes = np.fft.rfft(y - y.mean())
    spectrum = np.abs(fringes) ** 2
    spectrum[0] = 0.0
    freqs = np.fft.rfftfreq(len(t), dt)
    k = int(np.argmax(spectrum))
    # a pure decaying envelope concentrates power in the first bin; a
    # resolvable fringe (>= 2 periods in the span) peaks at bin >= 2
    oscillating = (len(spectrum) > 3 and k >= 2
                   and spectrum[k] > 5.0 * np.median(spectrum[1:]))

    if not oscillating:
        fit, errors = _fit_exponential(t, y, "t2")
        return CoherenceFit(**fit, errors=errors,
                            flags=("no_oscillation",
                                   "detuning_unconstrained"))

    f_0 = freqs[k]
    phi_0 = float(np.angle(fringes[k]))
    a_0 = float(np.sqrt(2.0) * np.std(y))
    p0_0 = float(y.mean())
    t2_0 = (t[-1] - t[0]) / 2.0

    def residual(p):
        p0, a, t2, f, phi = p
        return p0 + a * np.exp(-t / t2) * np.cos(2 * np.pi * f * t + phi) - y

    def jac(p):
        _, a, t2, f, phi = p
        x = t / t2
        env = np.exp(-x)
        arg = 2 * np.pi * f * t + phi
        ec, es = env * np.cos(arg), a * env * np.sin(arg)
        return np.column_stack((np.ones_like(t), ec, a * ec * x / t2,
                                -2 * np.pi * t * es, -es))

    result = run_least_squares(
        residual, jac, [p0_0, a_0, t2_0, f_0, phi_0],
        bounds=([-np.inf, 0.0, 1e-300, 0.0, -2 * np.pi],
                [np.inf, np.inf, np.inf, 1.5 * freqs[-1], 2 * np.pi]))
    fit, errors = named(result, ("offset", "amplitude", "t2", "detuning",
                                 "phase"))
    fit["phase"] = float(np.remainder(fit["phase"] + np.pi, 2 * np.pi)
                         - np.pi)
    flags = ()
    if abs(fit["amplitude"]) < 1e-3 * max(abs(fit["offset"]), 1e-30):
        flags = ("detuning_unconstrained",)
    return CoherenceFit(**fit, errors=errors, flags=flags)


def t2_from_dephasing(t1: float, t_phi: float, stretch: float) -> float:
    """Solve exp(-tau/2T1 - (tau/T_phi)^stretch) = 1/e for tau.

    Root-bracketed on [min(T1, T_phi)/10, 10*max(2*T1, T_phi)] and solved
    to machine precision; with T1 = inf this reduces to tau = T_phi.
    """
    if np.isinf(t1) and np.isinf(t_phi):
        raise ValueError("t1 and t_phi cannot both be infinite")

    def excess(tau):
        return tau / (2.0 * t1) + (tau / t_phi) ** stretch - 1.0

    lo = min(t1, t_phi) / 10.0
    hi = 10.0 * max(2.0 * t1, t_phi)
    if np.isinf(hi):
        finite = t_phi if np.isinf(t1) else 2.0 * t1
        lo, hi = finite / 10.0, 10.0 * finite
    return find_root(excess, lo, hi)


def fit_cpmg(trace: DecayTrace, t1: float) -> CoherenceFit:
    """Fit a CPMG/echo decay with T1 held fixed from a relaxation fit.

    Free parameters: offset p0, amplitude a (absorbing pulse losses),
    dephasing time T_phi, and the stretch exponent within [0.5, 4]
    (initialized at 2, the quasi-static expectation).  The returned fit
    carries t2 = T2_CPMG solved from the 1/e definition.  A stretch pinned
    at either bound flags "stretch_at_bound" (exponent unreliable).

    The fit stops on fitutil.run_least_squares' tests at 1e-12 (cost
    decrease, step or scaled gradient).  On the traces of perfbench's
    pipeline dataset, seeds 0-49, that leaves T_phi up to 1.5e-8 relative
    from scipy's least_squares converged at 1e-15 (largest at N = 16), at
    most 5.4e-7 of its standard error.
    """
    if trace.kind not in ("cpmg", "echo"):
        raise ValueError("fit_cpmg expects a cpmg or echo trace")
    if not t1 > 0:
        raise ValueError("t1 must be positive")
    t, y = trace.times, trace.populations
    if len(t) < 5:
        raise FitError("need at least 5 points")

    p0_0 = y[-1]
    a_0 = max(y[0] - y[-1], 1e-3)
    # strip the known relaxation envelope to place the 1/e point of chi_N
    with np.errstate(divide="ignore", invalid="ignore"):
        relax = np.exp(-t / (2.0 * t1))
        coh = np.clip((y - p0_0) / (a_0 * relax), 1e-9, None)
    above = np.nonzero(coh > np.exp(-1.0))[0]
    t_phi_0 = t[above[-1]] if len(above) else t[max(len(t) // 3, 1) - 1]
    t_phi_0 = float(t_phi_0)

    lo_s, hi_s = STRETCH_BOUNDS

    def residual(p):
        p0, a, t_phi, s = p
        return p0 + a * relax * np.exp(-(t / t_phi) ** s) - y

    def jac(p):
        _, a, t_phi, s = p
        q = t / t_phi
        qs = q ** s
        m = relax * np.exp(-qs)
        # m q^s ln q -> 0 as q -> 0, so ln q is taken as 0 at t = 0
        amq = a * m * qs
        log_q = np.log(q, out=np.zeros_like(q), where=q > 0)
        return np.column_stack((np.ones_like(t), m, amq * s / t_phi,
                                -amq * log_q))

    result = run_least_squares(
        residual, jac, [p0_0, a_0, t_phi_0, 2.0],
        bounds=([-np.inf, -np.inf, t[0] * 1e-3, lo_s],
                [np.inf, np.inf, t[-1] * 1e3, hi_s]))
    fit, errors = named(result, ("offset", "amplitude", "t_phi", "stretch"))
    s = fit["stretch"]
    flags = ()
    if min(abs(s - lo_s), abs(s - hi_s)) < 1e-6:
        flags = ("stretch_at_bound",)
    return CoherenceFit(**fit, t1=float(t1),
                        t2=t2_from_dephasing(t1, fit["t_phi"], s),
                        errors=errors, flags=flags)


def fit_scaling(points) -> ScalingFit:
    """Log-log fit of T_phi versus N giving beta, then alpha = beta/(1-beta).

    points: sequence of (N, T_phi), N >= 1, T_phi > 0, three or more entries
    over two or more N.  Raises FitError when beta falls outside (0, 1),
    where alpha is undefined or non-positive.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise FitError("need at least 3 (N, T_phi) points")
    n, t_phi = pts[:, 0], pts[:, 1]
    if np.any(n < 1) or np.any(t_phi <= 0):
        raise FitError("need N >= 1 and T_phi > 0")
    if np.all(n == n[0]):
        raise FitError("need at least 2 distinct N")

    beta, _, beta_err, _ = line_fit(np.log(n), np.log(t_phi))
    if not 0.0 < beta < 1.0:
        raise FitError(
            f"fitted beta = {beta:.4g} outside (0, 1): alpha undefined")
    alpha = beta / (1.0 - beta)
    alpha_err = beta_err / (1.0 - beta) ** 2
    return ScalingFit(beta=beta, alpha=alpha, beta_err=beta_err,
                      alpha_err=alpha_err)


def _fit_exponential(t, y, time_name):
    """Fit p0 + a*exp(-t/T): named's (values, errors), T as time_name."""
    p0_0, a_0 = y[-1], y[0] - y[-1]

    def residual(p):
        p0, a, tau = p
        return p0 + a * np.exp(-t / tau) - y

    def jac(p):
        _, a, tau = p
        x = t / tau
        e = np.exp(-x)
        return np.column_stack((np.ones_like(t), e, a * e * x / tau))

    result = run_least_squares(residual, jac,
                               [p0_0, a_0, _efold_guess(t, y, p0_0, a_0)],
                               bounds=([-np.inf, -np.inf, 1e-300],
                                       [np.inf, np.inf, np.inf]))
    return named(result, ("offset", "amplitude", time_name))


def _efold_guess(t, y, p0, a):
    """Crude 1/e-crossing time of (y - p0)/a, for initializing decay fits."""
    if a != 0:
        below = np.nonzero(np.abs(y - p0) <= abs(a) / np.e)[0]
        if len(below) and below[0] > 0:
            return float(t[below[0]] - t[0])
    return float((t[-1] - t[0]) / 3.0)
