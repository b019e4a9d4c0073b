"""Maximum-likelihood fit of the piecewise-constant-hazard Poisson model.

At fixed beta the hazard levels have the closed-form maximiser
lambda_k = d_k / A_k(beta): the events in interval k over its rate-weighted
exposure A_k = sum_i exp(x_i'beta) dt_ik (Laird & Olivier 1981). What is
left, the profile log-likelihood

    l(beta) = sum_i delta_i x_i'beta - sum_{k: d_k > 0} d_k log A_k(beta),

is concave in beta and maximised by Newton-Raphson with step halving. An
interval without events gets hazard exactly 0. The fit shares the
likelihood code with the Bayesian model, so it doubles as an independent
stationarity check on the sampler's gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formula import DesignMatrix
from .hazard_model import PersonTime, _PoissonLikelihood

__all__ = ["MleFit", "pch_mle"]

BETA_DIVERGED = 20.0     # |beta_j| beyond this flags separation
MAX_ITER = 200           # Newton steps before giving up
GRAD_TOL = 1e-8          # converged once every |profile gradient| entry is below


@dataclass(frozen=True)
class MleFit:
    theta_hat: np.ndarray    # (K,) hazard levels; exactly 0 where event-free
    beta_hat: np.ndarray
    converged: bool
    iterations: int
    max_grad_norm: float     # of the profile gradient at exit
    separated: bool = False


def _profile(lik: _PoissonLikelihood, beta: np.ndarray):
    """(profile log-likelihood, gradient, Hessian, A_k of the intervals with
    events) at ``beta``. One ``exposure`` call over the weight rows 1, x_j
    and x_j x_l, each times exp(X beta), gives A_k and its derivatives."""
    X, n, p = lik.X, lik.pt.n, lik.p
    events = lik.d_events > 0
    d = lik.d_events[events]
    products = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
    moments = np.vstack([np.ones(n), X.T, products.T])
    E = lik.exposure(moments * np.exp(X @ beta))[:, events]
    A, dA, d2A = E[0], E[1:p + 1], E[p + 1:].reshape(p, p, len(d))
    m = dA / A                   # rate-weighted mean of x over each risk set
    value = float(lik.Xt_delta @ beta - d @ np.log(A))
    grad = lik.Xt_delta - m @ d
    hess = (m * d) @ m.T - (d2A / A) @ d
    return value, grad, hess, A


def pch_mle(design: DesignMatrix, person_time: PersonTime) -> MleFit:
    """Fit the person-time Poisson model by Newton-Raphson on the profile
    log-likelihood of beta."""
    lik = _PoissonLikelihood(design.X, person_time, design.delta)
    beta = np.zeros(lik.p)
    iterations, separated = 0, False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, grad, hess, A = _profile(lik, beta)
        while True:
            max_grad = float(np.max(np.abs(grad), initial=0.0))
            if max_grad < GRAD_TOL or iterations == MAX_ITER:
                break
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                separated = True
                break
            iterations += 1
            # line search: halve until the log-likelihood does not decrease
            scale = 1.0
            for _ in range(40):
                new = _profile(lik, beta + scale * step)
                if np.isfinite(new[0]) and new[0] >= value - 1e-12:
                    break
                scale /= 2.0
            beta = beta + scale * step
            value, grad, hess, A = new
            if np.any(np.abs(beta) > BETA_DIVERGED):
                separated = True
                break

    theta_hat = np.zeros(lik.K)
    theta_hat[lik.d_events > 0] = lik.d_events[lik.d_events > 0] / A
    return MleFit(theta_hat=theta_hat, beta_hat=beta,
                  converged=not separated and max_grad < GRAD_TOL,
                  iterations=iterations, max_grad_norm=max_grad,
                  separated=separated)
