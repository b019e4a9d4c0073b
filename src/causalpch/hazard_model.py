"""Piecewise-exponential hazard model.

The hazard is lambda(t | x) = exp(theta_tilde_k) * exp(x'beta) on the k-th
interval of an equally spaced partition of [0, max observed time]. Follow-up
is expanded to person-time form, under which the log-likelihood is a Poisson
log-likelihood with cell means mu_ik = exp(theta_tilde_k + x_i'beta) * dt_ik.

Two prior processes smooth the log baseline-hazard levels across intervals:
an AR(1) process with autocorrelation rho, and the independent special case
with rho structurally fixed at 0. Hyperpriors: beta ~ N(0, sigma^2 I),
eta ~ N(0, 1), rho ~ Beta(2, 2) rescaled to (-1, 1) (AR1 only), and each
scale nu_k ~ Gamma(1, 1), i.e. unit-rate exponential.

``ParameterLayout`` declares the order of a parameter vector and the map to
the sampler's unconstrained space, whose Jacobian the posterior includes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .formula import DesignMatrix

__all__ = [
    "Partition", "PersonTime", "ParameterState", "PriorConfig",
    "ParameterLayout", "HazardModel",
    "make_partition", "expand_person_time", "log_likelihood", "log_prior",
    "to_unconstrained", "cum_base_hazard",
]

INDEPENDENT = "independent"
AR1 = "ar1"

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Partition:
    """Equally spaced time grid 0 = tau_0 < tau_1 < ... < tau_K = max time."""

    endpoints: np.ndarray

    def __post_init__(self):
        e = self.endpoints
        if e.ndim != 1 or len(e) < 2 or e[0] != 0 or not np.all(e[1:] > e[:-1]):
            raise DataError("partition endpoints must be at least 2 numbers "
                            "that start at 0 and increase strictly")

    @property
    def K(self) -> int:
        return len(self.endpoints) - 1

    @property
    def dtau(self) -> float:
        return float(self.endpoints[1] - self.endpoints[0])

    @property
    def max_time(self) -> float:
        return float(self.endpoints[-1])

    @property
    def midpoints(self) -> np.ndarray:
        return (self.endpoints[:-1] + self.endpoints[1:]) / 2.0


def make_partition(max_time: float, K: int) -> Partition:
    if not max_time > 0:
        raise DataError(f"max_time must be positive, got {max_time!r}")
    if K < 1:
        raise DataError(f"need at least one interval, got K={K}")
    return Partition(endpoints=np.linspace(0.0, float(max_time), K + 1))


@dataclass(frozen=True)
class PersonTime:
    """Per-subject exposure in occupied intervals, in compressed form.

    Subject i occupies intervals 1..k_star_i (1-based); exposure is a full
    interval width everywhere except the last occupied interval, where it is
    ``dt_last_i = y_i - tau_{k_star_i - 1}``. Events fall in the interval
    containing y_i under the left-open/right-closed convention.
    """

    k_star: np.ndarray      # (n,) 1-based index of last occupied interval
    dt_last: np.ndarray     # (n,) exposure within that interval, in (0, dtau]
    dtau: float
    K: int

    @property
    def n(self) -> int:
        return len(self.k_star)


def expand_person_time(y: np.ndarray, partition: Partition) -> PersonTime:
    """Transpose observed times onto the partition."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0) or np.any(y > partition.max_time):
        bad = np.nonzero((y <= 0) | (y > partition.max_time))[0][0]
        raise DataError(f"time {y[bad]!r} (row {bad + 1}) outside "
                        f"(0, {partition.max_time}]")
    k_star = np.searchsorted(partition.endpoints, y, side="left").astype(np.int64)
    dt_last = y - partition.endpoints[k_star - 1]
    return PersonTime(k_star=k_star, dt_last=dt_last,
                      dtau=partition.dtau, K=partition.K)


@dataclass(frozen=True)
class ParameterState:
    """One point in constrained parameter space."""

    theta_tilde: np.ndarray   # (K,) log baseline-hazard levels
    beta: np.ndarray          # (p,) regression coefficients
    eta: float                # process mean
    rho: float                # autocorrelation; 0.0 under the independent model
    nu: np.ndarray            # (K,) positive process scales


@dataclass(frozen=True)
class PriorConfig:
    model_kind: str = INDEPENDENT
    sigma: float = 3.0
    K: int = 100

    def __post_init__(self):
        if self.model_kind not in (INDEPENDENT, AR1):
            raise DataError(f"model_kind must be {INDEPENDENT!r} or {AR1!r}, "
                            f"got {self.model_kind!r}")
        if not self.sigma > 0:
            raise DataError(f"sigma must be positive, got {self.sigma!r}")
        if self.K < 1:
            raise DataError(f"K must be >= 1, got {self.K!r}")

    @property
    def has_rho(self) -> bool:
        return self.model_kind == AR1


class ParameterLayout:
    """Order of a parameter row: theta_tilde (K), beta (p), eta, rho (if
    ``has_rho``), nu (K). The sampler holds atanh rho and log nu:
    ``constrain`` maps them back and ``unconstrain`` maps a stored row there.
    Methods take a row or a (draws, dim) block."""

    def __init__(self, K: int, p: int, has_rho: bool):
        self.K, self.theta, self.beta = K, slice(0, K), slice(K, K + p)
        self.eta = K + p
        self.rho = K + p + 1 if has_rho else None
        self.nu = slice(K + p + 1 + has_rho, 2 * K + p + 1 + has_rho)
        self.dim = self.nu.stop

    def names(self, terms) -> tuple[str, ...]:
        """Column names, with one beta per formula term."""
        ks, rho = range(1, self.K + 1), () if self.rho is None else ("rho",)
        return (*(f"theta_{k}" for k in ks), *terms, "eta", *rho,
                *(f"nu_{k}" for k in ks))

    def split(self, z: np.ndarray):
        """Views (theta, beta, eta, rho, nu); rho is None without rho."""
        # z.T[i] gives a row's eta and rho as numpy scalars, not 0-d arrays; Python
        # floats would raise OverflowError on a divergent trajectory's huge values
        zt = z.T
        return (z[..., self.theta], z[..., self.beta], zt[self.eta],
                None if self.rho is None else zt[self.rho], z[..., self.nu])

    def constrain(self, z: np.ndarray) -> np.ndarray:
        """A copy of ``z`` with rho = tanh and nu = exp of its entries."""
        out = np.array(z, dtype=float)
        if self.rho is not None:
            out[..., self.rho] = np.tanh(out[..., self.rho])
        out[..., self.nu] = np.exp(out[..., self.nu])
        return out

    def unconstrain(self, x: np.ndarray) -> np.ndarray:
        """Inverse of ``constrain``: a copy with rho = atanh and nu = log."""
        out = np.array(x, dtype=float)
        if self.rho is not None:
            out[..., self.rho] = np.arctanh(out[..., self.rho])
        out[..., self.nu] = np.log(out[..., self.nu])
        return out

    def log_jacobian(self, z: np.ndarray):
        """log |d constrain(z) / dz|: the sum of log nu, plus log(1 - rho^2)."""
        rho = 0.0 if self.rho is None else np.log1p(-np.tanh(z[..., self.rho]) ** 2)
        return z[..., self.nu].sum(axis=-1) + rho


class _PoissonLikelihood:
    """Poisson person-time log-likelihood with analytic derivatives.

    The double sum over subjects and intervals is collapsed via the
    factorization sum_k mu_ik = exp(x_i'beta) * Lambda0(y_i), so each
    evaluation costs one exp per subject plus O(K) interval work. Shared by
    the posterior (value + gradient) and the frequentist fit (plus Hessian).
    """

    def __init__(self, X: np.ndarray, person_time: PersonTime, delta: np.ndarray):
        self.X = np.asarray(X, dtype=float)
        self.delta = np.asarray(delta, dtype=float)
        self.pt = person_time
        self.K = person_time.K
        self.p = self.X.shape[1]
        self.dtau = person_time.dtau
        self.ks0 = person_time.k_star - 1          # 0-based
        self.dt_last = person_time.dt_last
        self.d_events = np.bincount(self.ks0[self.delta == 1],
                                    minlength=self.K).astype(float)
        self.Xt_delta = self.X.T @ self.delta
        self.sum_delta_log_dt = float(self.delta @ np.log(self.dt_last))

    def _common(self, theta: np.ndarray, beta: np.ndarray):
        exp_t = np.exp(theta)
        prefix = np.concatenate(([0.0], np.cumsum(exp_t)))
        cumhaz = self.dtau * prefix[self.ks0] + exp_t[self.ks0] * self.dt_last
        r = np.exp(self.X @ beta)
        return exp_t, cumhaz, r

    def _value(self, theta, beta, cumhaz, r) -> float:
        return float(self.delta @ theta[self.ks0] + self.Xt_delta @ beta
                     + self.sum_delta_log_dt - r @ cumhaz)

    def value(self, theta: np.ndarray, beta: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            _, cumhaz, r = self._common(theta, beta)
            return self._value(theta, beta, cumhaz, r)

    def exposure(self, r: np.ndarray) -> np.ndarray:
        """Rate-weighted exposure per interval: A_k = sum_{i at risk in k} r_i dt_ik."""
        G = np.bincount(self.ks0, weights=r, minlength=self.K)
        Gd = np.bincount(self.ks0, weights=r * self.dt_last, minlength=self.K)
        return self.dtau * (r.sum() - np.cumsum(G)) + Gd

    def value_and_grad(self, theta, beta, with_value: bool = True):
        """(log-likelihood, theta gradient, beta gradient).

        The value is None unless ``with_value``. Floating-point warnings are
        left to the caller.
        """
        exp_t, cumhaz, r = self._common(theta, beta)
        value = self._value(theta, beta, cumhaz, r) if with_value else None
        g_theta = self.d_events - exp_t * self.exposure(r)
        g_beta = self.Xt_delta - self.X.T @ (r * cumhaz)
        return value, g_theta, g_beta

    def hessian_blocks(self, theta, beta):
        """Blocks of the (theta, beta) Hessian: diagonal D, cross C, dense F."""
        exp_t, cumhaz, r = self._common(theta, beta)
        D = -exp_t * self.exposure(r)
        C = np.empty((self.K, self.p))
        for j in range(self.p):
            w = self.X[:, j] * r
            Gj = np.bincount(self.ks0, weights=w, minlength=self.K)
            Gdj = np.bincount(self.ks0, weights=w * self.dt_last, minlength=self.K)
            C[:, j] = self.dtau * (w.sum() - np.cumsum(Gj)) + Gdj
        C *= -exp_t[:, None]
        F = -(self.X * (r * cumhaz)[:, None]).T @ self.X
        return D, C, F


def _process_residuals(theta: np.ndarray, eta: float, rho: float) -> np.ndarray:
    e = np.empty_like(theta)
    e[0] = theta[0] - eta
    if len(theta) > 1:
        e[1:] = theta[1:] - eta * (1.0 - rho) - rho * theta[:-1]
    return e


class HazardModel:
    """Binds data, partition and prior into a differentiable log posterior."""

    def __init__(self, design: DesignMatrix, person_time: PersonTime,
                 partition: Partition, config: PriorConfig):
        if partition.K != config.K:
            raise DataError(f"partition has K={partition.K} but prior config "
                            f"says K={config.K}")
        self.design = design
        self.partition = partition
        self.config = config
        self.likelihood = _PoissonLikelihood(design.X, person_time, design.delta)
        self.K = config.K
        self.p = design.X.shape[1]
        self.layout = ParameterLayout(self.K, self.p, config.has_rho)
        self.dim = self.layout.dim

    def log_posterior_grad(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        """Log posterior density (likelihood + prior + Jacobian) and its gradient.

        A density that is not finite is reported as -inf.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value, grad = self._posterior(z, with_value=True)
        if not np.isfinite(value):
            return -math.inf, grad
        return float(value), grad

    def grad(self, z: np.ndarray) -> np.ndarray:
        """Gradient of the log posterior alone, for interior leapfrog steps.

        Bitwise equal to the gradient of ``log_posterior_grad``. At a
        saturated rho, where the density is -inf, the rho entry is NaN, so a
        caller that checks only the gradient still sees the point as
        divergent. Floating-point warnings are left to the caller.
        """
        return self._posterior(z, with_value=False)[1]

    def _posterior(self, z: np.ndarray, with_value: bool):
        """The one posterior kernel: (density or None, gradient)."""
        cfg, lay = self.config, self.layout
        theta, beta, eta, zrho, w = lay.split(z)
        grad = np.empty_like(z)
        rho = np.tanh(zrho) if cfg.has_rho else 0.0
        nu = np.exp(w)

        ll, g_theta, g_beta = self.likelihood.value_and_grad(theta, beta,
                                                              with_value)
        e = _process_residuals(theta, eta, rho)
        s = e / nu**2

        g_theta = g_theta - s
        if self.K > 1:
            g_theta[:-1] += rho * s[1:]
        grad[lay.theta] = g_theta
        grad[lay.beta] = g_beta - beta / cfg.sigma**2
        grad[lay.eta] = (s[0] + (1.0 - rho) * s[1:].sum() - eta)
        if cfg.has_rho:
            # rho ~ scaled Beta(2,2): log(3/4) + log(1 - rho^2), plus the
            # atanh Jacobian log(1 - rho^2)
            one_m_r2 = 1.0 - rho * rho
            if one_m_r2 > 0:
                d_rho = (s[1:] @ (theta[:-1] - eta)) if self.K > 1 else 0.0
                # chain rule through rho = tanh(zrho); the prior and
                # Jacobian terms each contribute -2 rho directly
                grad[lay.rho] = d_rho * one_m_r2 - 4.0 * rho
            else:
                grad[lay.rho] = math.nan
        # d/dw of process + Gamma prior + Jacobian
        grad[lay.nu] = e * s - nu
        if not with_value:
            return None, grad

        value = (ll
                 # AR(1)/independent process density for theta
                 + (-w.sum() - 0.5 * self.K * _LOG_2PI - 0.5 * (e @ s))
                 # beta ~ N(0, sigma^2 I)
                 + (-0.5 * self.p * math.log(2.0 * math.pi * cfg.sigma**2)
                    - 0.5 * (beta @ beta) / cfg.sigma**2)
                 # eta ~ N(0, 1)
                 + (-0.5 * _LOG_2PI - 0.5 * eta * eta)
                 # nu_k ~ Gamma(1, 1), plus the log-nu Jacobian
                 + (-nu.sum() + w.sum()))
        if cfg.has_rho:
            value = (value + (math.log(0.75) + 2.0 * math.log(one_m_r2))
                     if one_m_r2 > 0 else -math.inf)
        return value, grad


def log_likelihood(state: ParameterState, design, person_time: PersonTime,
                   delta: np.ndarray | None = None) -> float:
    """Poisson person-time log-likelihood at a parameter state.

    ``design`` may be a DesignMatrix (delta taken from it) or a plain matrix
    with ``delta`` passed separately.
    """
    if isinstance(design, DesignMatrix):
        X, delta = design.X, design.delta
    else:
        X = np.asarray(design, dtype=float)
        if delta is None:
            raise DataError("delta required when design is a plain matrix")
    lik = _PoissonLikelihood(X, person_time, delta)
    return lik.value(state.theta_tilde, state.beta)


def log_prior(state: ParameterState, config: PriorConfig) -> float:
    """Log prior density on the constrained scale (no Jacobian)."""
    theta, beta, eta, rho, nu = (state.theta_tilde, state.beta, state.eta,
                                 state.rho, state.nu)
    if config.has_rho and not abs(rho) < 1:
        return -math.inf
    if np.any(nu <= 0):
        return -math.inf
    e = _process_residuals(theta, eta, 0.0 if not config.has_rho else rho)
    value = float(-np.log(nu).sum() - 0.5 * config.K * _LOG_2PI
                  - 0.5 * (e**2 / nu**2).sum())
    p = len(beta)
    value += (-0.5 * p * math.log(2.0 * math.pi * config.sigma**2)
              - 0.5 * float(beta @ beta) / config.sigma**2)
    value += -0.5 * _LOG_2PI - 0.5 * eta**2
    value += -float(nu.sum())
    if config.has_rho:
        value += math.log(0.75) + math.log1p(-rho**2)
    return value


def to_unconstrained(state: ParameterState, config: PriorConfig) -> np.ndarray:
    """Map a constrained state to the sampler's unconstrained coordinates,
    in the layout's order."""
    theta, beta, nu = (np.asarray(v, dtype=float)
                       for v in (state.theta_tilde, state.beta, state.nu))
    if not (theta.shape == nu.shape == (config.K,) and np.all(nu > 0)
            and np.isfinite(np.concatenate([theta, beta, [state.eta], nu,
                                            [state.rho]])).all()
            and (abs(state.rho) < 1 or not config.has_rho)):
        raise DataError(f"state outside the support: theta_tilde and nu need K={config.K} "
                        "entries, nu > 0, |rho| < 1 and every entry finite")
    layout = ParameterLayout(config.K, len(beta), config.has_rho)
    row = np.empty(layout.dim)
    row[layout.theta], row[layout.beta], row[layout.nu] = theta, beta, nu
    row[layout.eta] = state.eta
    if layout.rho is not None:
        row[layout.rho] = state.rho
    return layout.unconstrain(row)


def cum_base_hazard(theta: np.ndarray, partition: Partition, t) -> np.ndarray | float:
    """Cumulative baseline hazard Lambda0(t) for hazard levels theta.

    Piecewise linear, continuous and nondecreasing in t; accepts a scalar or
    an array of times within [0, max time].
    """
    theta = np.asarray(theta, dtype=float)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0) or np.any(t_arr > partition.max_time):
        bad = t_arr[(t_arr < 0) | (t_arr > partition.max_time)][0]
        raise DataError(f"time {bad!r} outside [0, {partition.max_time}]")
    knots = np.concatenate(([0.0], partition.dtau * np.cumsum(theta)))
    out = np.interp(t_arr, partition.endpoints, knots)
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out
