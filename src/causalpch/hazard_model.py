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
``log_prior`` writes the prior out apart from the posterior kernel, as an
independent check on it.
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
    "make_partition", "expand_person_time", "log_prior", "to_unconstrained",
    "cum_hazard_knots",
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
        widths = np.diff(e)
        if not np.all(np.abs(widths - self.dtau) <= 1e-9 * self.dtau):
            raise DataError("partition endpoints must be equally spaced, got "
                            f"widths {widths.min():g} to {widths.max():g}")

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
        raise DataError(f"time {float(y[bad])} (row {bad + 1}) outside "
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
        # the kernel divides by sigma**2 and takes its log
        if not (self.sigma > 0 and 0 < self.sigma * self.sigma < math.inf):
            raise DataError("sigma must be positive with a positive, finite "
                            f"square, got {self.sigma!r}")
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


class _Workspace:
    """Buffers and flat gather indices for blocks of ``rows`` points, made
    once per block height. Flat gathers stay fast at large n, where a
    ``[:, ks0]`` gather does not."""

    def __init__(self, ks0: np.ndarray, K: int, n: int, rows: int):
        offset = np.arange(2 * rows)[:, None]
        self.prefix = np.zeros((rows, K + 1))       # column 0 stays 0
        self.prefix_tail = self.prefix[:, 1:]
        self.at_k = ks0 + offset[:rows] * K
        self.at_prefix = ks0 + offset[:rows] * (K + 1)
        # one bincount sums the weight rows r (rows, n), then r * dt_last
        self.bins = (ks0 + offset * K).ravel()
        self.weights = np.empty((2 * rows, n))
        self.flat_weights = self.weights.ravel()
        self.r, self.r_dt = self.weights[:rows], self.weights[rows:]
        self.counts_shape, self.n_bins = (2 * rows, K), 2 * rows * K


class _PoissonLikelihood:
    """Poisson person-time log-likelihood with analytic derivatives.

    The double sum over subjects and intervals is collapsed via the
    factorization sum_k mu_ik = exp(x_i'beta) * Lambda0(y_i), so each
    evaluation costs one exp per subject plus O(K) interval work. Shared by
    the posterior (value + gradient) and the frequentist fit (``exposure``).

    The kernels take a block of C points, theta (C, K) and beta (C, p), and
    give each row bitwise the result it has alone. They reuse buffers cached
    per block height, so one instance must not be shared between threads.
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
        self._workspaces: dict[int, _Workspace] = {}

    def _workspace(self, rows: int) -> _Workspace:
        ws = self._workspaces.get(rows)
        if ws is None:
            ws = self._workspaces[rows] = _Workspace(self.ks0, self.K,
                                                     self.pt.n, rows)
        return ws

    def _common(self, theta, beta, ws: _Workspace):
        """(exp theta, cumulative hazards, rates r)."""
        exp_t = np.exp(theta)
        np.add.accumulate(exp_t, axis=1, out=ws.prefix_tail)
        cumhaz = self.dtau * ws.prefix.take(ws.at_prefix)
        cumhaz += exp_t.take(ws.at_k) * self.dt_last
        r = np.exp(np.matvec(self.X, beta))
        return exp_t, cumhaz, r

    def _value(self, theta, beta, cumhaz, r, ws: _Workspace) -> list[float]:
        return [a + b + self.sum_delta_log_dt - c for a, b, c in zip(
            np.vecdot(self.delta, theta.take(ws.at_k)).tolist(),
            np.vecdot(self.Xt_delta, beta).tolist(),
            np.vecdot(r, cumhaz).tolist())]

    def exposure(self, r: np.ndarray) -> np.ndarray:
        """Rate-weighted exposure per interval of each row of ``r`` (C, n):
        A_k = sum_{i at risk in k} r_i dt_ik, as (C, K)."""
        rows, ws = len(r), self._workspace(len(r))
        # sums run over this C-contiguous copy: a strided row sums in
        # another order
        ws.r[...] = r
        np.multiply(ws.r, self.dt_last, out=ws.r_dt)
        G = np.bincount(ws.bins, weights=ws.flat_weights,
                        minlength=ws.n_bins).reshape(ws.counts_shape)
        A = np.add.accumulate(G[:rows], axis=1, dtype=float)   # G is int if rows=0
        np.subtract(np.add.reduce(ws.r, axis=1)[:, None], A, out=A)
        A *= self.dtau
        A += G[rows:]
        return A

    def value_and_grad(self, theta, beta, with_value: bool = True):
        """(log-likelihoods, theta gradients, beta gradients) of a block.

        The log-likelihoods are a list of floats, or None unless
        ``with_value``. Floating-point warnings are left to the caller.
        """
        ws = self._workspace(len(theta))
        exp_t, cumhaz, r = self._common(theta, beta, ws)
        value = self._value(theta, beta, cumhaz, r, ws) if with_value else None
        g_theta = self.exposure(r)
        g_theta *= exp_t
        np.subtract(self.d_events, g_theta, out=g_theta)
        r *= cumhaz
        g_beta = self.Xt_delta - np.matvec(self.X.T, r)
        return value, g_theta, g_beta


def _process_residuals(theta: np.ndarray, eta, rho) -> np.ndarray:
    """AR(1) residuals of theta (..., K); eta and rho are scalars or
    (C, 1) columns for a (C, K) block."""
    e = np.empty_like(theta)
    np.subtract(theta[..., :1], eta, out=e[..., :1])
    rest = np.subtract(theta[..., 1:], eta * (1.0 - rho), out=e[..., 1:])
    rest -= rho * theta[..., :-1]
    return e


class HazardModel:
    """Binds data and prior into a differentiable log posterior; the
    partition is only checked against the prior's K.

    Evaluates a block of points, one row per chain; ``log_posterior_grad``
    also takes one point. The likelihood reuses scratch buffers, so one
    model must not be shared between threads.
    """

    def __init__(self, design: DesignMatrix, person_time: PersonTime,
                 partition: Partition, config: PriorConfig):
        if partition.K != config.K:
            raise DataError(f"partition has K={partition.K} but prior config "
                            f"says K={config.K}")
        self.config = config
        self.likelihood = _PoissonLikelihood(design.X, person_time, design.delta)
        self.K = config.K
        self.p = design.X.shape[1]
        self.layout = ParameterLayout(self.K, self.p, config.has_rho)
        self.dim = self.layout.dim

    def log_posterior_grad(self, z: np.ndarray):
        """Log posterior density (likelihood + prior + Jacobian) and its gradient.

        ``z`` is one point (dim,), giving (float, (dim,)), or a block of
        points (C, dim), giving ((C,), (C, dim)); row c of a block gives
        bitwise what ``z[c]`` gives alone. A density that is not finite is
        reported as -inf.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value, grad = self._posterior(z[None] if z.ndim == 1 else z,
                                          with_value=True)
        value = [v if math.isfinite(v) else -math.inf for v in value]
        return (value[0], grad[0]) if z.ndim == 1 else (np.array(value), grad)

    def grad(self, z: np.ndarray) -> np.ndarray:
        """Gradient of the log posterior alone at a (C, dim) block, for
        interior leapfrog steps.

        Bitwise equal to the gradient of ``log_posterior_grad``. At a
        saturated rho, where the density is -inf, the rho entry is NaN, so a
        caller that checks only the gradient still sees the point as
        divergent. Floating-point warnings are left to the caller.
        """
        return self._posterior(z, with_value=False)[1]

    def _posterior(self, z: np.ndarray, with_value: bool):
        """The one posterior kernel over a (C, dim) block: (list of
        densities or None, gradients).

        Per-row scalars (eta, rho and the sums) are combined as Python
        floats, which cost less than numpy calls on C-vectors and are the
        same IEEE operations.
        """
        cfg, lay = self.config, self.layout
        theta, beta, eta, zrho, w = lay.split(z)
        grad = np.empty_like(z)
        etas = eta.tolist()
        if cfg.has_rho:
            rho = np.tanh(zrho)
            rhos, rho_col = rho.tolist(), rho[:, None]
        else:
            rhos, rho_col = [0.0] * len(z), 0.0
        nu = np.exp(w)

        ll, g_theta, g_beta = self.likelihood.value_and_grad(theta, beta,
                                                              with_value)
        e = _process_residuals(theta, eta[:, None], rho_col)
        s = e / nu**2

        g_theta -= s
        if self.K > 1:
            g_theta[:, :-1] += rho_col * s[:, 1:]
        grad[:, lay.theta] = g_theta
        g_beta -= beta / cfg.sigma**2
        grad[:, lay.beta] = g_beta
        grad[:, lay.eta] = [s0 + (1.0 - r) * rest - h for s0, r, rest, h in zip(
            s[:, 0].tolist(), rhos, np.add.reduce(s[:, 1:], axis=1).tolist(),
            etas)]
        if cfg.has_rho:
            # rho ~ scaled Beta(2,2): log(3/4) + log(1 - rho^2), plus the
            # atanh Jacobian log(1 - rho^2)
            one_m_r2 = [1.0 - r * r for r in rhos]
            d_rho = (np.vecdot(s[:, 1:], theta[:, :-1] - eta[:, None]).tolist()
                     if self.K > 1 else [0.0] * len(z))
            # chain rule through rho = tanh(zrho); the prior and Jacobian
            # terms each contribute -2 rho directly
            grad[:, lay.rho] = [d * m - 4.0 * r if m > 0 else math.nan
                                for d, m, r in zip(d_rho, one_m_r2, rhos)]
        # d/dw of process + Gamma prior + Jacobian
        g_nu = grad[:, lay.nu]
        np.multiply(e, s, out=g_nu)
        g_nu -= nu
        if not with_value:
            return None, grad

        process_const = 0.5 * self.K * _LOG_2PI
        beta_const = -0.5 * self.p * math.log(2.0 * math.pi * cfg.sigma**2)
        value = []
        for c, (lik, w_sum, es, bb, h, nu_sum) in enumerate(zip(
                ll, np.add.reduce(w, axis=1).tolist(),
                np.vecdot(e, s).tolist(), np.vecdot(beta, beta).tolist(),
                etas, np.add.reduce(nu, axis=1).tolist())):
            v = (lik
                 # AR(1)/independent process density for theta
                 + (-w_sum - process_const - 0.5 * es)
                 # beta ~ N(0, sigma^2 I)
                 + (beta_const - 0.5 * bb / cfg.sigma**2)
                 # eta ~ N(0, 1)
                 + (-0.5 * _LOG_2PI - 0.5 * h * h)
                 # nu_k ~ Gamma(1, 1), plus the log-nu Jacobian
                 + (-nu_sum + w_sum))
            if cfg.has_rho:
                m = one_m_r2[c]
                v = v + (math.log(0.75) + 2.0 * math.log(m)) if m > 0 else -math.inf
            value.append(v)
        return value, grad


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


def cum_hazard_knots(hazards: np.ndarray, partition: Partition) -> np.ndarray:
    """Lambda0 at the partition endpoints for hazard levels exp(theta): 0,
    then dtau * cumsum(hazards) along the last axis; Lambda0(t) is their
    ``np.interp`` on the endpoints. A (M, K) block gives (M, K + 1) knots in
    one pass, row m bit-identical to the knots of hazards[m] alone."""
    hazards = np.asarray(hazards, dtype=float)
    knots = np.zeros(hazards.shape[:-1] + (hazards.shape[-1] + 1,))
    np.cumsum(hazards, axis=-1, out=knots[..., 1:])
    knots[..., 1:] *= partition.dtau
    return knots
