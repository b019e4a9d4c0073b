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
distribution.
"""

from __future__ import annotations

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


def _as_chain_list(draws) -> list[np.ndarray]:
    if isinstance(draws, np.ndarray):
        chains = [draws]
    else:
        chains = [np.asarray(c, dtype=float) for c in draws]
    out = []
    for c in chains:
        c = np.asarray(c, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        if c.ndim != 2:
            raise DataError("draws must be vectors or M x Q matrices")
        out.append(c)
    if len({c.shape[1] for c in out}) != 1:
        raise DataError("chains have differing parameter counts")
    return out


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


def summarize(draws, probs=(0.025, 0.975), names=None) -> SummaryTable:
    """Summarize one draw matrix or a list of per-chain matrices.

    Moments and quantiles pool all chains; the time-series SE averages the
    per-chain batch-means variances.
    """
    chains = _as_chain_list(draws)
    pooled = np.vstack(chains)
    n_total, q = pooled.shape
    if n_total < 2:
        raise DataError("need at least 2 draws to summarize")
    probs = tuple(float(p) for p in probs)
    if any(not 0 <= p <= 1 for p in probs):
        raise DataError("quantile probabilities must be in [0, 1]")
    if names is None:
        names = tuple(f"param_{j + 1}" for j in range(q))
    else:
        names = tuple(names)
        if len(names) != q:
            raise DataError(f"{len(names)} names for {q} parameters")

    mean = pooled.mean(axis=0)
    sd = pooled.std(axis=0, ddof=1)
    naive_se = sd / np.sqrt(n_total)
    bm = np.array([_batch_means_var(c) for c in chains])   # (chains, q)
    ts_se = np.sqrt(bm.mean(axis=0) / n_total)
    quantiles = _quantiles(pooled, probs).T
    return SummaryTable(names=names, mean=mean, sd=sd, naive_se=naive_se,
                        ts_se=ts_se, probs=probs, quantiles=quantiles,
                        n_draws=n_total, n_chains=len(chains))


def psrf(chains, names=None) -> PsrfReport:
    """Gelman-Rubin diagnostic over C >= 2 equal-length chains."""
    # the F quantile scipy.stats.f.ppf computes, without importing
    # scipy.stats, which costs most of a run's import time and memory
    from scipy.special import fdtri

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
    q = chain_list[0].shape[1]
    if names is None:
        names = tuple(f"param_{j + 1}" for j in range(q))
    else:
        names = tuple(names)

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
        fq = fdtri(c - 1, w_df, 0.975)
        point = np.sqrt(df_adj * (r2_fixed + r2_random))
        upper = np.sqrt(df_adj * (r2_fixed + fq * r2_random))
    return PsrfReport(names=names, point=point, upper=upper)
