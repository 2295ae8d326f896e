"""Shared nonlinear least-squares plumbing used by the fitting modules."""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares


class FitError(RuntimeError):
    """A fit could not be set up or did not converge."""


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
