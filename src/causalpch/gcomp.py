"""Posterior g-computation: marginal survival curves and their contrast.

For each posterior draw m the confounder distribution gets a fresh Bayesian
bootstrap weight vector pi ~ Dirichlet(1, ..., 1). Under each intervention
a in {0, 1}, every subject's design row is rewritten (treatment column and
all interaction columns involving it), which gives the subject's survival
S_i(t) = exp(-exp(x_i'beta) Lambda0(t)) under that arm. The marginal curve
of an arm is the pi-weighted average of B simulated survival curves per
subject; the contrast ate(t) is the survival difference between the arms.

The B simulations of a subject matter only through how many fail between
consecutive sorted grid times, so they are drawn as counts,
Multinomial(B, p_i) with cell probabilities p_i from S_i, one draw per
subject and arm. Weighted by pi / B, the counts give pi @ S(grid) by a
reverse cumulative sum, at a cost that does not grow with B. Evaluation
grids beyond the maximum observed time are rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .formula import Term
from .hazard_model import Partition, cum_base_hazard

__all__ = ["GcompResult", "draw_bb_weights", "apply_intervention",
           "gcompute", "exact_marginal_survival"]


@dataclass(frozen=True)
class GcompResult:
    """Posterior draws of marginal survival per arm and their difference.

    ``surv_ref`` is the curve under treatment == ref_level, ``surv_trt`` the
    curve under the other arm; ``ate = surv_trt - surv_ref`` elementwise.
    """

    times: np.ndarray       # (T,) evaluation grid
    surv_ref: np.ndarray    # (M, T)
    surv_trt: np.ndarray    # (M, T)
    ate: np.ndarray         # (M, T)
    ref_level: int
    B: int
    seed: int
    grid_source: str        # "midpoints" or "user"


def draw_bb_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Bayesian-bootstrap weight vector, Dirichlet(1,...,1), via
    normalized unit exponentials."""
    if n < 1:
        raise DataError(f"need n >= 1, got {n}")
    g = rng.standard_exponential(n)
    return g / g.sum()


def apply_intervention(X: np.ndarray, terms: tuple[Term, ...],
                       columns: tuple[str, ...], treat_col: str,
                       a: int) -> np.ndarray:
    """Design matrix with treatment set to ``a`` for every subject.

    The treatment main-effect column becomes the constant ``a``; every
    interaction column involving the treatment is recomputed from the
    intervened value and the partner column. Other columns are untouched.
    """
    if a not in (0, 1):
        raise DataError(f"intervention must be 0 or 1, got {a!r}")
    if treat_col not in columns:
        raise DataError(f"treatment column {treat_col!r} not in design")
    out = np.array(X, dtype=float)
    by_name = {name: j for j, name in enumerate(columns)}
    out[:, by_name[treat_col]] = float(a)
    for j, term in enumerate(terms):
        if not term.is_interaction or treat_col not in term.components:
            continue
        u, v = term.components
        if u == treat_col and v == treat_col:
            out[:, j] = float(a) * float(a)
        else:
            partner = v if u == treat_col else u
            out[:, j] = float(a) * X[:, by_name[partner]]
    return out


def _validate_grid(grid: np.ndarray, partition: Partition) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise DataError("empty evaluation grid")
    beyond = grid[grid > partition.max_time]
    if beyond.size:
        raise DataError(
            f"time {beyond[0]:g} is greater than the maximum observed time "
            f"{partition.max_time:g}; inference past the horizon is not "
            "identified")
    if np.any(grid < 0):
        raise DataError("evaluation times must be nonnegative")
    return grid


def _subject_survival(X: np.ndarray, beta: np.ndarray,
                      lam: np.ndarray) -> np.ndarray:
    """(n, T) survival exp(-exp(x_i'beta) Lambda0(t)) of each subject.

    The product with Lambda0(t) = 0 is taken as 0, so survival is 1 there
    even where the rate exp(x_i'beta) overflowed.
    """
    with np.errstate(over="ignore"):
        cum = np.multiply(np.exp(X @ beta)[:, None], lam,
                          out=np.zeros((len(X), len(lam))), where=lam > 0)
    return np.exp(-cum)


def _arm_survival(posterior, grid: np.ndarray):
    """Per posterior draw, each subject's (n, T) survival on ``grid`` under
    arm 0 and under arm 1; refuses a design without both arms."""
    design = posterior.design
    arms = [apply_intervention(design.X, design.terms, design.columns,
                               posterior.treat_col, a) for a in (0, 1)]
    design.check_treatment(posterior.treat_col)
    for theta, beta in zip(posterior.hazard_draws, posterior.beta_draws):
        lam = cum_base_hazard(theta, posterior.partition, grid)
        yield [_subject_survival(X, beta, lam) for X in arms]


def gcompute(posterior, ref: int = 0, b: int = 1000,
             grid: np.ndarray | None = None, seed: int | None = None,
             bb_weights: bool = True) -> GcompResult:
    """Posterior g-computation over a HazardPosterior.

    ``grid`` defaults to the partition midpoints. ``seed`` defaults to the
    fit's seed; per-draw RNG streams are derived from it, so results are
    reproducible and independent of evaluation order. ``bb_weights=False``
    replaces the Bayesian bootstrap with fixed uniform weights 1/n.
    """
    if ref not in (0, 1):
        raise DataError(f"ref must be 0 or 1, got {ref!r}")
    if b < 1:
        raise DataError(f"B must be >= 1, got {b}")
    partition = posterior.partition
    if grid is None:
        grid = partition.midpoints.copy()
        grid_source = "midpoints"
    else:
        grid = _validate_grid(grid, partition)
        grid_source = "user"

    if seed is None:
        seed = posterior.config.seed
    n = posterior.design.n
    M = len(posterior.draws)
    surv = np.empty((2, M, len(grid)))
    order = np.argsort(grid, kind="stable")
    # disjoint from the sampler's chain spawn keys (c,)
    root = np.random.SeedSequence(seed, spawn_key=(0x6C0,))
    per_draw = _arm_survival(posterior, grid[order])
    for m, (arms, stream) in enumerate(zip(per_draw, root.spawn(M))):
        rng = np.random.Generator(np.random.Philox(stream))
        pi = draw_bb_weights(n, rng) if bb_weights else np.full(n, 1.0 / n)
        for a, S in enumerate(arms):
            # cell j: simulations failing in (t_{j-1}, t_j], clipped at 0
            cells = -np.diff(S, axis=1, prepend=1.0, append=0.0)
            counts = rng.multinomial(b, np.maximum(cells, 0.0, out=cells))
            mass = pi @ counts / b
            surv[a, m, order] = np.cumsum(mass[::-1])[::-1][1:]
    return GcompResult(times=grid, surv_ref=surv[ref], surv_trt=surv[1 - ref],
                       ate=surv[1 - ref] - surv[ref], ref_level=ref, B=b,
                       seed=seed, grid_source=grid_source)


def exact_marginal_survival(posterior, ref: int, grid: np.ndarray):
    """Simulation-free marginal survival per arm: the uniform 1/n average of
    exp(-exp(x'beta) Lambda0(t)) over subjects.

    Plug-in version of the g-formula used as an internal consistency oracle
    for the Monte Carlo path. Returns (surv_ref, surv_trt, ate), each (M, T).
    """
    if ref not in (0, 1):
        raise DataError(f"ref must be 0 or 1, got {ref!r}")
    grid = _validate_grid(grid, posterior.partition)
    n = posterior.design.n
    pi = np.full(n, 1.0 / n)
    surv = np.empty((2, len(posterior.draws), len(grid)))
    for m, arms in enumerate(_arm_survival(posterior, grid)):
        for a, S in enumerate(arms):
            surv[a, m] = pi @ S
    return surv[ref], surv[1 - ref], surv[1 - ref] - surv[ref]
