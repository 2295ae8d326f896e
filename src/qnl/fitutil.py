"""The least-squares solver, the root finder, the fault contract and the
fit statistics shared by every fit.

run_least_squares is the one solver behind every fit: a projected
Levenberg-Marquardt in numpy, with Marquardt's diagonal scaling
(J. SIAM 11, 431 (1963)) and Nielsen's damping update (IMM-REP-1999-05).
find_root is the one bracketed root finder: Brent and Dekker's iteration
(Brent, Algorithms for Minimization Without Derivatives, 1973, ch. 4).
named keys each fit's values and standard errors by parameter name.
FIT_FAILURES is the one tuple of data faults; any other exception is a
bug.  The pipeline turns a fault into a warning, the CLI into exit 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


class FitError(RuntimeError):
    """A fit could not be set up or did not converge."""


FIT_FAILURES = (FitError, ValueError, ArithmeticError)

# relative tolerance of each stopping test in run_least_squares
_TOL = 1e-12
# find_root stops within (_ROOT_XTOL + _ROOT_RTOL |x|) / 2 of the root
_ROOT_XTOL, _ROOT_RTOL = 1e-300, 4.0 * sys.float_info.epsilon
_ROOT_ITERATIONS = 100


@dataclass(frozen=True)
class LeastSquaresResult:
    """A least-squares minimum and how the solver reached it.

    x, fun and jac are the parameters, the residuals and the Jacobian at
    the minimum, and cost = fun @ fun / 2.  nfev and njev count the
    residual and Jacobian calls.  status names the test that stopped the
    solver (1 gradient, 2 cost, 3 step; see run_least_squares), message
    says it in words, and optimality is the scaled projected gradient,
    max_j |J_j . fun| / |J_j| over the parameters not held at a bound.
    """

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    cost: float
    nfev: int
    njev: int
    status: int
    optimality: float
    message: str


_MESSAGES = {1: "the scaled projected gradient is below tolerance",
             2: "the cost decrease is below tolerance",
             3: "the step is below tolerance"}


def run_least_squares(residual, jac, x0, bounds) -> LeastSquaresResult:
    """Minimise |residual(p)|^2 / 2 within bounds = (lower, upper).

    jac(p) is the analytic (n_residuals, n_params) Jacobian of residual(p);
    there is no finite-difference path.  Each step solves
    (JsᵀJs + mu I) z = -Jsᵀr in the scaled parameters p_j |J_j|, with
    |J_j| the column norms at the current point (Marquardt's scaling).  A
    parameter at a bound whose gradient points outward is held for that
    step; every other trial point is clipped into the bounds.  A trial
    that lowers the cost is accepted and mu shrinks by the gain ratio rho
    as max(1/3, 1 - (2 rho - 1)^3) (Nielsen); a trial that does not, or
    whose residuals are not finite, is rejected and mu grows by a doubling
    factor.  The solver stops on the first of, with tol = 1e-12:

    1. the scaled projected gradient, max_j |J_j . r| / |J_j| over the
       free parameters, is at most tol * |r| (status 1);
    2. an accepted step lowers the cost, and the linearised residuals
       predict it to lower the cost, by at most tol times the cost
       (status 2);
    3. a trial step, scaled, is at most tol times the scaled parameters
       (status 3).

    Raises ValueError for an x0 outside the bounds (or bounds with
    lower >= upper) and for non-finite residuals at x0, and FitError when
    100 residual evaluations per parameter do not reach a stop.
    """
    x = np.array(x0, dtype=float)
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), x.shape)
                    for b in bounds)
    if not np.all((lower <= x) & (x <= upper) & (lower < upper)):
        raise ValueError(f"x0 = {x.tolist()} is infeasible for the bounds")
    with np.errstate(all="ignore"):    # a non-finite trial is rejected
        r = residual(x)
        cost = 0.5 * float(r @ r)
        if not np.isfinite(cost):
            raise ValueError("residuals are not finite at x0")
        eye = np.eye(x.size)
        max_nfev = 100 * x.size
        nfev, njev, status, mu, grow, moved = 1, 0, 0, 1e-3, 2.0, True
        while True:
            if moved:
                j = jac(x)
                njev += 1
                scale = np.sqrt(np.einsum("ij,ij->j", j, j))
                scale[scale == 0.0] = 1.0
                js = j / scale
                grad = js.T @ r
                # at a bound, with the descent direction -grad pointing out
                held = np.where(grad > 0.0, x <= lower, x >= upper)
                grad[held] = 0.0
                optimality = max(map(abs, grad.tolist()))
                if status or optimality <= _TOL * math.sqrt(2.0 * cost):
                    status = status or 1
                    break
                hess = js.T @ js
                model = hess * np.outer(~held, ~held) if held.any() else hess
                scaled_x = x * scale
                x_sq = float(scaled_x @ scaled_x)
            elif status:
                break
            if nfev >= max_nfev:
                raise FitError(f"least-squares did not converge: "
                               f"{max_nfev} residual evaluations used up")
            z = np.linalg.solve(model + mu * eye, -grad)
            trial = np.minimum(np.maximum(x + z / scale, lower), upper)
            step = (trial - x) * scale
            r_trial = residual(trial)
            nfev += 1
            cost_trial = 0.5 * float(r_trial @ r_trial)
            decrease = cost - cost_trial
            moved = decrease > 0.0    # False for a non-finite trial cost
            if moved:
                predicted = -float(step @ (grad + 0.5 * (hess @ step)))
                rho = min(decrease / predicted, 1.0) if predicted > 0 else 1.0
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                grow = 2.0
                if max(decrease, predicted) <= _TOL * cost:
                    status = 2
                x, r, cost = trial, r_trial, cost_trial
            else:
                mu *= grow
                grow *= 2.0
            if not status and float(step @ step) <= _TOL ** 2 * x_sq:
                status = 3
    return LeastSquaresResult(x=x, fun=r, jac=j, cost=cost, nfev=nfev,
                              njev=njev, status=status,
                              optimality=optimality,
                              message=_MESSAGES[status])


def find_root(f, lo, hi) -> float:
    """A root of f in the bracket [lo, hi], to _ROOT_RTOL relative.

    Step for step scipy's brentq.c: each iteration keeps a bracket
    [x_cur, x_blk] with x_cur the end where |f| is smaller, and takes a
    secant or inverse-quadratic step from x_cur when that step is short
    enough, else bisects.  So it returns brentq's float, bit for bit.  An
    end where f is exactly 0 is returned as is.  Raises ValueError when f
    has the same sign at both ends or returns NaN, and FitError when
    _ROOT_ITERATIONS iterations do not close the bracket.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN")
        return fx

    x_pre, x_cur = float(lo), float(hi)
    f_pre, f_cur = value(x_pre), value(x_cur)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if (f_pre < 0.0) == (f_cur < 0.0):
        raise ValueError(f"f has the same sign at {x_pre!r} and {x_cur!r}")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_ROOT_ITERATIONS):
        if (f_pre != 0.0 and f_cur != 0.0
                and (f_pre < 0.0) != (f_cur < 0.0)):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        s_try = math.inf    # bisect unless a short step is found below
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            try:
                if x_pre == x_blk:    # secant
                    s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
                else:                 # inverse quadratic
                    d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                    d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                    s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                             / (d_blk * d_pre * (f_blk - f_pre)))
            except ZeroDivisionError:    # in C an inf or NaN step: bisect
                pass
        if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0.0 else -delta
        f_cur = value(x_cur)
    raise FitError(f"root finding did not converge: {_ROOT_ITERATIONS} "
                   f"iterations used up")


def covariance(result) -> np.ndarray:
    """Parameter covariance from the Jacobian at the solution.

    Scales inv(J^T J) by the reduced chi-square estimate
    2*cost/(n_residuals - n_params), both counts read off the result.
    Columns are equilibrated before the pseudo-inverse so parameters of
    wildly different magnitude (Hz vs V) do not shadow each other; truly
    unconstrained directions still come back with zero variance.
    """
    dof = max(result.fun.size - result.x.size, 1)
    s_sq = 2.0 * result.cost / dof
    jac = np.atleast_2d(result.jac)
    scale = np.linalg.norm(jac, axis=0)
    scale[scale == 0.0] = 1.0
    jtj = (jac / scale).T @ (jac / scale)
    return (np.linalg.pinv(jtj) / np.outer(scale, scale)) * s_sq


def stderr(result) -> np.ndarray:
    """1-sigma standard errors of the fitted parameters."""
    return np.sqrt(np.clip(np.diag(covariance(result)), 0.0, None))


def named(result, names) -> tuple[dict, dict]:
    """(values, errors): result.x and stderr(result), keyed by names."""
    return (dict(zip(names, result.x.tolist(), strict=True)),
            dict(zip(names, stderr(result).tolist(), strict=True)))


def line_fit(x, y):
    """Least-squares line: (slope, intercept, slope_err, intercept_err)."""
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return (float(coeffs[0]), float(coeffs[1]),
            float(np.sqrt(max(cov[0, 0], 0.0))),
            float(np.sqrt(max(cov[1, 1], 0.0))))
