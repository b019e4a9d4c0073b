"""Posterior summaries and multi-chain convergence diagnostics.

``summarize`` reports moments and empirical quantiles per parameter; the
standard error of the mean comes in a naive i.i.d. flavor (sd/sqrt(N)) and a
time-series flavor via nonoverlapping batch means with batch size
floor(sqrt(M)). Quantiles use the type-7 (linear interpolation) convention,
which fixes the credible-interval endpoints; they are computed bit for bit
as ``np.quantile(method="linear")`` does, without its import of numpy.ma.

``psrf`` is the Gelman-Rubin potential scale reduction factor with the
Brooks-Gelman degrees-of-freedom correction and an upper confidence limit
from the 97.5% quantile of the between/within variance ratio's sampling
distribution, an F(C - 1, w_df) quantile that ``_f_quantile`` computes in
numpy: the module needs nothing beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["SummaryTable", "PsrfReport", "summarize", "psrf"]


@dataclass(frozen=True)
class SummaryTable:
    names: tuple[str, ...]
    mean: np.ndarray
    sd: np.ndarray
    naive_se: np.ndarray
    ts_se: np.ndarray           # NaN where too few batches
    probs: tuple[float, ...]
    quantiles: np.ndarray       # (params, probs)
    n_draws: int                # pooled across chains
    n_chains: int

    def to_text(self) -> str:
        """Two-block layout: moments, then quantiles."""
        width = max([len(n) for n in self.names] + [8])
        lines = [f"Draws per chain = {self.n_draws // self.n_chains}, "
                 f"chains = {self.n_chains}", "",
                 "1. Empirical mean and standard deviation for each variable,",
                 "   plus standard error of the mean:", ""]
        head = (f"{'':{width}}  {'Mean':>12} {'SD':>12} {'Naive SE':>12} "
                f"{'Time-series SE':>14}")
        lines.append(head)
        for i, name in enumerate(self.names):
            ts = f"{self.ts_se[i]:>14.6g}" if np.isfinite(self.ts_se[i]) else f"{'--':>14}"
            lines.append(f"{name:{width}}  {self.mean[i]:>12.6g} "
                         f"{self.sd[i]:>12.6g} {self.naive_se[i]:>12.6g} {ts}")
        lines += ["", "2. Quantiles for each variable:", ""]
        head = f"{'':{width}} " + " ".join(f"{100 * p:>11.4g}%" for p in self.probs)
        lines.append(head)
        for i, name in enumerate(self.names):
            row = " ".join(f"{q:>12.6g}" for q in self.quantiles[i])
            lines.append(f"{name:{width}} {row}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PsrfReport:
    names: tuple[str, ...]
    point: np.ndarray
    upper: np.ndarray

    def to_text(self) -> str:
        width = max([len(n) for n in self.names] + [8])
        lines = ["Potential scale reduction factors:", "",
                 f"{'':{width}}  {'Point est.':>10} {'Upper C.I.':>10}"]
        for i, name in enumerate(self.names):
            lines.append(f"{name:{width}}  {self.point[i]:>10.3f} "
                         f"{self.upper[i]:>10.3f}")
        return "\n".join(lines)


def _as_chain_list(chains) -> list[np.ndarray]:
    out = [np.asarray(c, dtype=float) for c in chains]
    if any(c.ndim != 2 for c in out):
        raise DataError("chains must be (draws, parameters) matrices")
    if len({c.shape[1] for c in out}) != 1:
        raise DataError("chains have differing parameter counts")
    return out


def _param_names(names, q: int) -> tuple[str, ...]:
    """One name per parameter: ``names``, or param_1..param_q if None."""
    if names is None:
        return tuple(f"param_{j + 1}" for j in range(q))
    names = tuple(names)
    if len(names) != q:
        raise DataError(f"{len(names)} names for {q} parameters")
    return names


def _quantiles(x: np.ndarray, probs) -> np.ndarray:
    """(len(probs), columns) type-7 quantiles of each column of ``x``, NaN
    for a column holding a NaN: one sort, then numpy's lerp."""
    s = np.sort(x, axis=0)
    at = (len(s) - 1) * np.asarray(probs, dtype=float)
    # as numpy indexes: at the top both neighbours are the last row, and
    # the weight is counted from index -1
    top = at >= len(s) - 1
    lo = np.where(top, -1.0, np.floor(at))
    hi = np.where(top, -1.0, lo + 1.0)
    below, above = s[lo.astype(np.intp)], s[hi.astype(np.intp)]
    g = (at - lo)[:, None]
    with np.errstate(invalid="ignore"):      # inf - inf is NaN, as in numpy
        diff = above - below
        out = np.where(g < 0.5, below + diff * g, above - diff * (1 - g))
    out[:, np.isnan(s[-1])] = np.nan
    return out


def _batch_means_var(chain: np.ndarray) -> np.ndarray:
    """Batch-means estimate of the long-run variance per column; NaN if < 4 batches."""
    m = chain.shape[0]
    bsize = int(np.sqrt(m))
    nb = m // bsize
    if nb < 4:
        return np.full(chain.shape[1], np.nan)
    used = chain[:nb * bsize]
    means = used.reshape(nb, bsize, -1).mean(axis=1)
    return bsize * means.var(axis=0, ddof=1)


def summarize(chains, probs=(0.025, 0.975), names=None) -> SummaryTable:
    """Summarize a list of per-chain (draws, parameters) matrices.

    Moments and quantiles pool all chains; the time-series SE averages the
    per-chain batch-means variances.
    """
    chains = _as_chain_list(chains)
    pooled = np.vstack(chains)
    n_total, q = pooled.shape
    if n_total < 2:
        raise DataError("need at least 2 draws to summarize")
    probs = tuple(float(p) for p in probs)
    if any(not 0 <= p <= 1 for p in probs):
        raise DataError("quantile probabilities must be in [0, 1]")
    names = _param_names(names, q)

    mean = pooled.mean(axis=0)
    sd = pooled.std(axis=0, ddof=1)
    naive_se = sd / np.sqrt(n_total)
    bm = np.array([_batch_means_var(c) for c in chains])   # (chains, q)
    ts_se = np.sqrt(bm.mean(axis=0) / n_total)
    quantiles = _quantiles(pooled, probs).T
    return SummaryTable(names=names, mean=mean, sd=sd, naive_se=naive_se,
                        ts_se=ts_se, probs=probs, quantiles=quantiles,
                        n_draws=n_total, n_chains=len(chains))


# Stirling's series for log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2, in
# powers 1/x, 1/x^3, ..., 1/x^11; from x = 10 on the next term is below 1e-15
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_STIRLING_FROM = 10.0


def _stirling_tail(x: np.ndarray) -> np.ndarray:
    r = (1.0 / x) ** 2
    acc = 0.0
    for coef in reversed(_STIRLING):
        acc = acc * r + coef
    return acc / x


def _log_beta(a: float, b: np.ndarray) -> np.ndarray:
    """log B(a, b) for a scalar a > 0 and an array b > 0.

    Where b >= 10, lgamma(b) - lgamma(a + b) is written out from Stirling's
    series so that its large terms cancel on paper, not in floating point:
    the plain difference is off by 3e-8 at a = 1/2, b = 5e7.
    """
    out = np.empty_like(b)
    big = b >= _STIRLING_FROM
    bb = b[big]
    out[big] = (math.lgamma(a) - (bb - 0.5) * np.log1p(a / bb)
                - a * np.log(a + bb) + a
                + _stirling_tail(bb) - _stirling_tail(a + bb))
    out[~big] = [math.lgamma(a) + math.lgamma(v) - math.lgamma(a + v)
                 for v in b[~big].tolist()]
    return out


def _log_ibeta(v, alpha, beta, log_norm):
    """log I_s(alpha, beta) at s = exp(v) <= 1/2, and its derivative in v.

    I_s = s^alpha (1 - s)^beta / (alpha B) * 2F1(alpha + beta, 1; alpha + 1; s)
    (Abramowitz and Stegun 26.5.23), whose series has positive terms with
    ratios tending to s, so no digits cancel; ``log_norm`` is
    log(alpha B(alpha, beta)). Terms are summed 64 at a time until the last
    is below 1e-17 of the sum.
    """
    s = np.exp(v)
    total = np.ones_like(s)
    term = np.ones_like(s)
    n = 0.0
    while np.any(term > 1e-17 * total):
        k = np.arange(n + 1.0, n + 65.0)[:, None]
        terms = term * np.cumprod(s * (alpha + beta + k - 1.0) / (alpha + k),
                                  axis=0)
        total += terms.sum(axis=0)
        term = terms[-1]
        n += 64.0
    log_i = alpha * v + beta * np.log1p(-s) - log_norm + np.log(total)
    return log_i, alpha / ((1.0 - s) * total)


def _f_quantile(p: float, d1: float, d2) -> np.ndarray:
    """The p-quantile of F(d1, d2) for each d2; NaN where d2 is not finite
    and positive, inf where it overflows.

    With a = d1/2 and b = d2/2, F = (b/a) y/(1 - y) for y ~ Beta(a, b).
    The root of I_y(a, b) = p is found in log y when it lies at or below
    1/2, else as the root of I_u(b, a) = 1 - p in log u, u = 1 - y, so the
    series always runs at s <= 1/2. Newton steps on the log distribution
    function fall back to bisection when they leave the bracket. The start
    is the top of the bracket: 1/2, or for y the point (a + sqrt(a/(1-p)))
    / (a + b), which Cantelli's inequality puts above the root (the mean
    of (a + b) y is a, its variance below a).
    """
    d2 = np.asarray(d2, dtype=float)
    out = np.full(d2.shape, np.nan)
    ok = np.isfinite(d2) & (d2 > 0)
    a, b = 0.5 * d1, 0.5 * d2[ok]
    log_b = _log_beta(a, b)
    log_half = math.log(0.5)
    at_half, _ = _log_ibeta(np.full_like(b, log_half), b, np.full_like(b, a),
                            log_b + np.log(b))
    flip = at_half > math.log1p(-p)       # the root y lies above 1/2
    alpha, beta = np.where(flip, b, a), np.where(flip, a, b)
    target = np.where(flip, math.log1p(-p), math.log(p))
    log_norm = log_b + np.log(alpha)
    reach = a + math.sqrt(a / (1.0 - p))
    hi = np.where(flip, log_half, np.log(np.minimum(0.5, reach / (a + b))))
    lo = np.full_like(b, -np.inf)
    v = hi.copy()
    active = np.ones(b.shape, dtype=bool)
    for _ in range(100):
        g, slope = _log_ibeta(v, alpha, beta, log_norm)
        g -= target
        hi = np.where(g > 0, v, hi)
        lo = np.where(g < 0, v, lo)
        newton = g / slope
        step = v - newton
        done = np.abs(newton) <= 1e-12
        step = np.where(done | ((step > lo) & (step < hi)), step,
                        0.5 * (lo + hi))
        v = np.where(active, step, v)
        active &= ~done
        if not active.any():
            break
    s = np.exp(v)
    with np.errstate(over="ignore"):
        out[ok] = np.where(flip, np.exp(np.log(b / a) - v + np.log1p(-s)),
                           b / a * (s / (1.0 - s)))
    return out


def psrf(chains, names=None) -> PsrfReport:
    """Gelman-Rubin diagnostic over a list of C >= 2 equal-length chains,
    each a (draws, parameters) matrix.

    The upper limit takes the 97.5% quantile of F(C - 1, w_df) from
    ``_f_quantile``; it is NaN for a parameter whose within-chain degrees
    of freedom w_df are not finite, as when every chain has the same
    variance.
    """
    chain_list = _as_chain_list(chains)
    if len(chain_list) < 2:
        raise DataError("psrf needs at least 2 chains")
    lengths = {c.shape[0] for c in chain_list}
    if len(lengths) != 1:
        raise DataError(f"chains have unequal lengths {sorted(lengths)}")
    m = lengths.pop()
    if m < 4:
        raise DataError("chains must have at least 4 draws")
    c = len(chain_list)
    names = _param_names(names, chain_list[0].shape[1])

    x = np.stack(chain_list)                      # (C, M, Q)
    xbar = x.mean(axis=1)                         # (C, Q) chain means
    s2 = x.var(axis=1, ddof=1)                    # (C, Q) chain variances
    w = s2.mean(axis=0)                           # within-chain variance
    if np.any(w == 0):
        bad = names[int(np.nonzero(w == 0)[0][0])]
        raise DataError(f"zero within-chain variance for {bad!r}")
    b = m * xbar.var(axis=0, ddof=1)              # between-chain variance

    muhat = xbar.mean(axis=0)
    var_w = s2.var(axis=0, ddof=1) / c
    var_b = 2.0 * b**2 / (c - 1)
    # cov over chains of (s2, xbar^2) and (s2, xbar)
    def _cov(u, v):
        return ((u - u.mean(axis=0)) * (v - v.mean(axis=0))).sum(axis=0) / (c - 1)
    cov_wb = (m / c) * (_cov(s2, xbar**2) - 2.0 * muhat * _cov(s2, xbar))

    v_hat = (m - 1) / m * w + (1.0 + 1.0 / c) * b / m
    var_v = ((m - 1)**2 * var_w + (1 + 1 / c)**2 * var_b
             + 2 * (m - 1) * (1 + 1 / c) * cov_wb) / m**2
    with np.errstate(divide="ignore", invalid="ignore"):
        df_v = 2.0 * v_hat**2 / var_v
        df_adj = np.where(np.isfinite(df_v), (df_v + 3.0) / (df_v + 1.0), 1.0)
        r2_fixed = (m - 1.0) / m
        r2_random = (1.0 + 1.0 / c) / m * b / w
        w_df = 2.0 * w**2 / var_w
        fq = _f_quantile(0.975, c - 1, w_df)
        point = np.sqrt(df_adj * (r2_fixed + r2_random))
        upper = np.sqrt(df_adj * (r2_fixed + fq * r2_random))
    return PsrfReport(names=names, point=point, upper=upper)
