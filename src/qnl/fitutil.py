"""The fault contract and the fit statistics shared by every fit.

FIT_FAILURES is the one tuple of data faults; any other exception is a
bug.  The pipeline turns a fault into a warning, the CLI into exit 1.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares


class FitError(RuntimeError):
    """A fit could not be set up or did not converge."""


FIT_FAILURES = (FitError, ValueError, ArithmeticError)


def run_least_squares(residual, jac, x0, bounds):
    """Damped least squares with Jacobian-based scaling; raises FitError.

    Every caller passes jac(p), the analytic (n_residuals, n_params) Jacobian
    of residual(p); no fit uses finite differences.  Returns scipy's
    result, which carries nfev, njev, cost, status and optimality.
    """
    result = least_squares(residual, np.asarray(x0, dtype=float), jac=jac,
                           bounds=bounds, x_scale="jac")
    if not result.success:
        raise FitError(f"least-squares did not converge: {result.message}")
    return result


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


def line_fit(x, y):
    """Least-squares line: (slope, intercept, slope_err, intercept_err)."""
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return (float(coeffs[0]), float(coeffs[1]),
            float(np.sqrt(max(cov[0, 0], 0.0))),
            float(np.sqrt(max(cov[1, 1], 0.0))))
