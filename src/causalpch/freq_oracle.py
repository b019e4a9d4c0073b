"""Maximum-likelihood fit of the piecewise-constant-hazard Poisson model.

Joint Newton-Raphson over (theta_tilde, beta) with the exact Hessian; the
theta block is diagonal, so each step solves a small Schur-complement system
in beta. A step-halving line search keeps the ascent monotone. Intervals
with zero events have no finite maximizer (theta_tilde -> -inf); once such a
coordinate drifts below -20 it is frozen there and reported as hazard 0.

Shares the likelihood/gradient code with the Bayesian model, so it doubles
as an independent stationarity check on the sampler's gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .formula import DesignMatrix
from .hazard_model import Partition, PersonTime, _PoissonLikelihood

__all__ = ["MleFit", "pch_mle"]

THETA_FLOOR = -20.0      # log-hazard below this is reported as hazard 0
BETA_DIVERGED = 20.0     # |beta_j| beyond this flags separation
MAX_ITER = 200           # Newton steps before giving up
GRAD_TOL = 1e-8          # converged once every free |gradient| entry is below


@dataclass(frozen=True)
class MleFit:
    theta_hat: np.ndarray    # (K,) hazard levels; exactly 0 where event-free
    beta_hat: np.ndarray
    converged: bool
    iterations: int
    max_grad_norm: float     # over free coordinates at exit
    separated: bool = False


def pch_mle(design, person_time: PersonTime, delta: np.ndarray | None = None,
            partition: Partition | None = None) -> MleFit:
    """Fit the person-time Poisson model by Newton-Raphson.

    ``design`` may be a DesignMatrix (delta taken from it) or a plain n x p
    matrix with ``delta`` given separately. ``partition`` is accepted for
    interface symmetry; the person-time expansion already fixes the grid.
    """
    if isinstance(design, DesignMatrix):
        X, delta = design.X, design.delta
    else:
        X = np.asarray(design, dtype=float)
        if delta is None:
            raise NumericalError("delta required when design is a plain matrix")
    delta = np.asarray(delta, dtype=float)
    if not np.any(delta == 1):
        raise NumericalError("cannot fit: no events")

    lik = _PoissonLikelihood(X, person_time, delta)
    K, p = lik.K, lik.p

    # start at the overall event rate with beta = 0
    total_exposure = float(lik.exposure(np.ones((1, lik.X.shape[0])))[0].sum())
    theta = np.full(K, np.log(delta.sum() / total_exposure))
    beta = np.zeros(p)
    frozen = np.zeros(K, dtype=bool)

    value = lik.value(theta, beta)
    iterations = 0
    separated = False
    max_grad = np.inf
    for iterations in range(1, MAX_ITER + 1):
        _, (g_theta,), (g_beta,) = lik.value_and_grad(theta[None], beta[None],
                                                      with_value=False)
        D, C, F = lik.hessian_blocks(theta, beta)
        free = ~frozen
        Dv, Cv, gt = D[free], C[free], g_theta[free]
        if p:
            S = F - Cv.T @ (Cv / Dv[:, None])
            try:
                d_beta = np.linalg.solve(S, -g_beta + Cv.T @ (gt / Dv))
            except np.linalg.LinAlgError:
                separated = True
                break
        else:
            d_beta = np.zeros(0)
        d_theta = -(gt + Cv @ d_beta) / Dv

        # line search: halve until the log-likelihood does not decrease
        scale = 1.0
        for _ in range(40):
            theta_new = theta.copy()
            theta_new[free] = theta[free] + scale * d_theta
            beta_new = beta + scale * d_beta
            value_new = lik.value(theta_new, beta_new)
            if np.isfinite(value_new) and value_new >= value - 1e-12:
                break
            scale /= 2.0
        theta, beta, value = theta_new, beta_new, value_new

        newly = (theta < THETA_FLOOR) & ~frozen
        theta[newly] = THETA_FLOOR
        frozen |= newly

        if np.any(np.abs(beta) > BETA_DIVERGED):
            separated = True
            break

        _, (g_theta,), (g_beta,) = lik.value_and_grad(theta[None], beta[None],
                                                      with_value=False)
        grads = [g_beta] if p else []
        if np.any(~frozen):
            grads.append(g_theta[~frozen])
        max_grad = max(float(np.abs(g).max()) for g in grads) if grads else 0.0
        if max_grad < GRAD_TOL:
            break

    theta_hat = np.exp(theta)
    theta_hat[frozen] = 0.0
    converged = (not separated) and max_grad < GRAD_TOL
    return MleFit(theta_hat=theta_hat, beta_hat=beta, converged=converged,
                  iterations=iterations, max_grad_norm=float(max_grad),
                  separated=separated)
