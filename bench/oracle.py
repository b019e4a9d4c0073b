"""Reference computations that the benchmark checks causalpch's outputs against.

Nothing here calls causalpch: the g-formula, the intervention on the design,
the cumulative hazard, the effective sample size and the synthetic cohort's
true marginal contrast are written out again from their definitions.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

#: Posterior of the adjusted AR(1) veteran fit as published: (mean, sd).
PUBLISHED_BETA = {"A": (0.24801, 0.187073),
                  "karno": (-0.03767, 0.004806),
                  "celltypeadeno": (0.68840, 0.281906)}

#: Half-width of a chain's allowed beta-mean window, in published SDs.
BETA_MEAN_SDS = 3.0
#: A chain whose beta SD is below this share of the published SD is frozen.
COLLAPSED_SD_SHARE = 0.1
#: Per draw and time, Monte Carlo g-computation may sit this many of its
#: standard deviations from the closed form (Dirichlet weight sums have
#: heavier than normal tails, so the per-draw bound is wide).
Z_PER_DRAW = 8.0
#: Posterior means average many independent draws, so they get a normal bound.
Z_POSTERIOR_MEAN = 5.0
#: The synthetic contrast must lie within this many posterior SDs of the
#: posterior mean of ate(t).
Z_COVERAGE = 4.0


# ------------------------------------------------------------------ files

def read_matrix(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Fit:
    """draws.csv + meta.json of one fit, split into the blocks the checks use."""

    def __init__(self, out_dir):
        self.meta = read_json(out_dir / "meta.json")
        names, mat = read_matrix(out_dir / "draws.csv")
        m = self.meta
        K = m["K"]
        cols = m["design_columns"]
        self.theta = mat[:, :K]
        self.beta = mat[:, K:K + len(cols)]
        self.chain = mat[:, names.index("chain")].astype(int)
        self.columns = cols
        self.terms = m["terms"]
        self.X = np.asarray(m["design_matrix"], dtype=float)
        self.y = np.asarray(m["y"], dtype=float)
        self.delta = np.asarray(m["delta"], dtype=float)
        self.endpoints = np.asarray(m["partition"]["endpoints"], dtype=float)
        self.treat = m["treat_col"]

    def by_chain(self, values: np.ndarray) -> np.ndarray:
        """Stack rows of a per-draw array into (chains, draws per chain, ...)."""
        ids = sorted(set(self.chain.tolist()))
        return np.stack([values[self.chain == c] for c in ids])


# ------------------------------------------------------------- g-formula

def intervene(X, terms, columns, treat, a) -> np.ndarray:
    """Design with treatment set to ``a``; products involving it recomputed."""
    out = X.copy()
    for j, comps in enumerate(terms):
        if treat not in comps:
            continue
        value = np.full(len(X), float(a))
        for c in comps:
            if c != treat:
                value = value * X[:, columns.index(c)]
        out[:, j] = value
    return out


def cum_hazard(hazard_levels: np.ndarray, endpoints: np.ndarray,
               times: np.ndarray) -> np.ndarray:
    """Lambda0 at ``times`` for each row of piecewise-constant levels, (M, T)."""
    width = np.diff(endpoints)
    exposure = np.clip(times[:, None] - endpoints[None, :-1], 0.0, width[None, :])
    return hazard_levels @ exposure.T


def gformula(fit: Fit, times: np.ndarray, B: int) -> dict[str, np.ndarray]:
    """Closed-form marginal survival per draw with uniform weights 1/n.

    Also returns, per draw and time, the variance of causalpch's Monte Carlo
    estimate around it: the Bayesian-bootstrap part, Var(sum w_i a_i) =
    sum (a_i - mean a)^2 / (n (n + 1)) for w ~ Dirichlet(1, ..., 1), plus
    the simulation part, E[sum w_i^2 S_i (1 - S_i)] / B with
    E[w_i^2] = 2 / (n (n + 1)). Both arms share one weight draw, so the
    bootstrap part of ``ate`` is taken over the per-subject differences.
    """
    n = len(fit.X)
    lam0 = cum_hazard(np.exp(fit.theta), fit.endpoints, times)     # (M, T)
    arms = {a: intervene(fit.X, fit.terms, fit.columns, fit.treat, a)
            for a in (0, 1)}
    M, T = lam0.shape
    out = {k: np.empty((M, T)) for k in
           ("s0", "s1", "ate", "var0", "var1", "var_ate")}
    bb = 1.0 / (n * (n + 1.0))
    for m in range(M):
        surv, sim = {}, 0.0
        for a in (0, 1):
            rate = np.exp(arms[a] @ fit.beta[m])
            s = np.exp(-rate[:, None] * lam0[m][None, :])           # (n, T)
            mean = s.mean(axis=0)
            sim_a = 2.0 * (s * (1 - s)).sum(axis=0) / B
            out[f"s{a}"][m] = mean
            out[f"var{a}"][m] = bb * (((s - mean) ** 2).sum(axis=0) + sim_a)
            surv[a], sim = s, sim + sim_a
        d = surv[1] - surv[0]
        out["ate"][m] = d.mean(axis=0)
        out["var_ate"][m] = bb * (((d - d.mean(axis=0)) ** 2).sum(axis=0) + sim)
    return out


def check_gcomp(fit: Fit, out_dir) -> tuple[list[str], float]:
    """Check surv_ref/surv_trt/ate.csv against the closed form and basic laws.

    Returns the problems found and the largest gap between posterior-mean
    Monte Carlo survival and posterior-mean closed-form survival.
    """
    problems = []
    gmeta = read_json(out_dir / "gcomp_meta.json")
    header, ate = read_matrix(out_dir / "ate.csv")
    _, s_ref = read_matrix(out_dir / "surv_ref.csv")
    _, s_trt = read_matrix(out_dir / "surv_trt.csv")
    times = np.array(header, dtype=float)
    if ate.shape != (len(fit.theta), len(times)):
        return [f"ate.csv has shape {ate.shape}, expected "
                f"({len(fit.theta)}, {len(times)})"], math.nan
    if np.max(np.abs(ate - (s_trt - s_ref))) > 1e-12:
        problems.append("ate != surv_trt - surv_ref")
    for label, s in (("surv_ref", s_ref), ("surv_trt", s_trt)):
        if np.any(s < 0) or np.any(s > 1):
            problems.append(f"{label} outside [0, 1]")
        order = np.argsort(times, kind="stable")
        if np.any(np.diff(s[:, order], axis=1) > 0):
            problems.append(f"{label} increases over time")

    exact = gformula(fit, times, gmeta["B"])
    pairs = ((s_ref, exact["s0"], exact["var0"], "arm 0"),
             (s_trt, exact["s1"], exact["var1"], "arm 1"),
             (ate, exact["ate"], exact["var_ate"], "ate"))
    M = len(ate)
    worst = 0.0
    for got, want, var, label in pairs:
        z = np.abs(got - want) / np.sqrt(np.maximum(var, 1e-300))
        gap = np.abs(got - want)
        if np.any((gap > 1e-9) & (z > Z_PER_DRAW)):
            problems.append(f"{label}: a draw is {z.max():.1f} SD from the "
                            f"closed-form g-formula")
        mean_gap = np.abs(got.mean(axis=0) - want.mean(axis=0))
        mean_sd = np.sqrt(var.sum(axis=0)) / M
        if np.any(mean_gap > Z_POSTERIOR_MEAN * mean_sd + 1e-9):
            problems.append(f"{label}: posterior mean is "
                            f"{(mean_gap / mean_sd).max():.1f} SD from the "
                            f"closed-form g-formula")
        if label != "ate":
            worst = max(worst, float(mean_gap.max()))
    return problems, worst


# --------------------------------------------------------------- chains

def check_chains(fit: Fit) -> tuple[list[str], int, list[str]]:
    """Beta means of each chain against the published table.

    Returns (problems, collapsed chain count, per-chain notes). A chain whose
    beta SD fell far below the published SD is counted as collapsed and its
    mean is not judged.
    """
    problems, notes, collapsed = [], [], 0
    cols = [fit.columns.index(name) for name in PUBLISHED_BETA]
    for c, block in enumerate(fit.by_chain(fit.beta[:, cols]), start=1):
        means, sds = block.mean(axis=0), block.std(axis=0, ddof=1)
        frozen = [name for name, sd in zip(PUBLISHED_BETA, sds)
                  if sd < COLLAPSED_SD_SHARE * PUBLISHED_BETA[name][1]]
        if frozen:
            collapsed += 1
            notes.append(f"chain {c} collapsed (beta SD of {', '.join(frozen)} "
                         f"below {COLLAPSED_SD_SHARE:g} x published)")
            continue
        for name, mean in zip(PUBLISHED_BETA, means):
            pub_mean, pub_sd = PUBLISHED_BETA[name]
            if abs(mean - pub_mean) > BETA_MEAN_SDS * pub_sd:
                problems.append(f"chain {c}: {name} mean {mean:.4f}, published "
                                f"{pub_mean} +- {BETA_MEAN_SDS:g} x {pub_sd}")
    return problems, collapsed, notes


def events_per_interval(y, delta, endpoints) -> np.ndarray:
    """Event counts per interval (tau_{k-1}, tau_k]."""
    k = np.searchsorted(endpoints, y, side="left") - 1
    return np.bincount(k[delta == 1], minlength=len(endpoints) - 1)


# ------------------------------------------------------------------ ESS

def ess(chains: np.ndarray) -> float:
    """Split-chain effective sample size of one scalar, chains as (C, M).

    Autocorrelations by FFT, combined over split chains, truncated by
    Geyer's initial monotone sequence (Vehtari et al. 2021, without rank
    normalisation).
    """
    chains = np.asarray(chains, dtype=float)
    half = chains.shape[1] // 2
    x = np.concatenate([chains[:, :half], chains[:, -half:]])
    m, n = x.shape
    if n < 4:
        return math.nan
    xc = x - x.mean(axis=1, keepdims=True)
    f = np.fft.rfft(xc, n=2 * n, axis=1)
    acov = np.fft.irfft(f * np.conj(f), axis=1)[:, :n] / n
    within = (acov[:, 0] * n / (n - 1)).mean()
    var_plus = (n - 1) / n * within + x.mean(axis=1).var(ddof=1)
    if not var_plus > 0:
        return math.nan
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    tau, prev, t = -1.0, math.inf, 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        prev = min(pair, prev)
        tau += 2.0 * prev
        t += 2
    return m * n / tau


def min_ess(blocks: np.ndarray) -> float:
    """Smallest ESS over the last axis of a (C, M, Q) array."""
    vals = [ess(blocks[:, :, q]) for q in range(blocks.shape[2])]
    vals = [v for v in vals if math.isfinite(v)]
    return min(vals) if vals else math.nan


# ------------------------------------------------------- synthetic cohort

#: Data-generating model of synthetic-large-n: x ~ N(0, 1), z ~ Bernoulli,
#: treatment confounded by x and z, Weibull baseline, and an A*x interaction.
SYNTH = {"p_z": 0.4, "treat": (-0.2, 0.6, -0.3),
         "beta": {"A": -0.5, "x": 0.5, "z": 0.4, "A:x": -0.3},
         "shape": 1.3, "scale": 1.5, "censor": (0.5, 3.0)}
SYNTH_FORMULA = "Surv(y, delta) ~ A*x + z"
SYNTH_TIMES = (0.5, 1.0, 2.0)


def synthetic_cohort(n: int, seed: int) -> dict[str, np.ndarray]:
    s = SYNTH
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    z = (rng.random(n) < s["p_z"]).astype(float)
    a0, ax, az = s["treat"]
    A = (rng.random(n) < 1.0 / (1.0 + np.exp(-(a0 + ax * x + az * z)))).astype(float)
    b = s["beta"]
    lin = b["A"] * A + b["x"] * x + b["z"] * z + b["A:x"] * A * x
    t = s["scale"] * (rng.standard_exponential(n) / np.exp(lin)) ** (1 / s["shape"])
    c = rng.uniform(*s["censor"], n)
    return {"y": np.minimum(t, c), "delta": (t <= c).astype(float),
            "A": A, "x": x, "z": z}


def synthetic_truth(times) -> np.ndarray:
    """True marginal contrast S_1(t) - S_0(t) over the population of x and z.

    Exact in z; Gauss-Hermite quadrature with 80 nodes in x.
    """
    s = SYNTH
    b = s["beta"]
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights = weights / weights.sum()
    lam0 = (np.asarray(times, dtype=float) / s["scale"]) ** s["shape"]
    surv = {}
    for a in (0, 1):
        total = np.zeros(len(lam0))
        for z, pz in ((0.0, 1 - s["p_z"]), (1.0, s["p_z"])):
            rate = np.exp(b["A"] * a + b["x"] * nodes + b["z"] * z
                          + b["A:x"] * a * nodes)
            total += pz * (weights @ np.exp(-rate[:, None] * lam0[None, :]))
        surv[a] = total
    return surv[1] - surv[0]
