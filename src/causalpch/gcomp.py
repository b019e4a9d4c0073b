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

The Lambda0 knots of all draws come from one ``cum_hazard_knots`` pass over
the (M, K) hazard draws, and a draw interpolates its own on the grid. A
draw's cells, 1 - S(t_0), S(t_{j-1}) - S(t_j) and S(t_{T-1}), are written
into one (n, T + 1) buffer per thread.

Draws are independent, each with its own Philox stream, and most of a
draw's time is spent in the multinomial counts, which release the GIL. So
once one draw's counting work, n * (T + 1) cells per arm, reaches
``PARALLEL_CELLS``, the draws are split into contiguous chunks, one per CPU
the process may use: the calling thread runs the first chunk and threads run
the rest. Every stream is spawned before any thread starts and each draw
writes only its own rows, so the output bytes do not depend on the number of
CPUs. This is not a setting; ``fit --threads`` does not govern it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .formula import Term
from .hazard_model import Partition, cum_hazard_knots

__all__ = ["GcompResult", "draw_bb_weights", "apply_intervention",
           "gcompute", "exact_marginal_survival"]

# Cells per arm, n * (T + 1), from which a draw's counts are worth a thread.
# Two threads against one on the veteran posterior (200 draws, B=1000, 2
# vCPUs) took 1.26-1.58x the time at 411 cells, 0.84-0.97x at 2,329,
# 0.67-0.77x at 4,521 and 0.59-0.66x at 13,837.
PARALLEL_CELLS = 4096


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
    interaction column involving the treatment is recomputed as the product
    of its two component columns in the intervened matrix. Other columns
    are untouched.
    """
    if a not in (0, 1):
        raise DataError(f"intervention must be 0 or 1, got {a!r}")
    if treat_col not in columns:
        raise DataError(f"treatment column {treat_col!r} not in design")
    out = np.array(X, dtype=float)
    by_name = {name: j for j, name in enumerate(columns)}
    out[:, by_name[treat_col]] = float(a)
    for j, term in enumerate(terms):
        if term.is_interaction and treat_col in term.components:
            u, v = term.components
            out[:, j] = out[:, by_name[u]] * out[:, by_name[v]]
    return out


def _validate_grid(grid: np.ndarray, partition: Partition) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise DataError("empty evaluation grid")
    if not np.all(np.isfinite(grid)):
        raise DataError("evaluation times must be finite numbers")
    beyond = grid[grid > partition.max_time]
    if beyond.size:
        raise DataError(
            f"time {beyond[0]:g} is greater than the maximum observed time "
            f"{partition.max_time:g}; inference past the horizon is not "
            "identified")
    if np.any(grid < 0):
        raise DataError("evaluation times must be nonnegative")
    return grid


def _subject_survival(X: np.ndarray, beta: np.ndarray, lam: np.ndarray,
                      positive: np.ndarray) -> np.ndarray:
    """(n, T) survival exp(-exp(x_i'beta) Lambda0(t)) of each subject.

    The product is taken only where ``positive`` (Lambda0(t) > 0) holds and
    is 0 elsewhere, so survival is 1 there even where the rate exp(x_i'beta)
    overflowed.
    """
    with np.errstate(over="ignore"):
        cum = np.multiply(np.exp(X @ beta)[:, None], lam,
                          out=np.zeros((len(X), len(lam))), where=positive)
    return np.exp(np.negative(cum, out=cum), out=cum)


def _arm_survival(posterior, grid: np.ndarray):
    """The map from a draw index m to each subject's (n, T) survival on
    ``grid`` under arm 0 and under arm 1; refuses a design without both
    arms. The map only reads shared arrays, so threads may call it.
    ``grid`` must lie in [0, max time] (see ``_validate_grid``)."""
    design = posterior.design
    arms = [apply_intervention(design.X, design.terms, design.columns,
                               posterior.treat_col, a) for a in (0, 1)]
    design.check_treatment(posterior.treat_col)
    endpoints, betas = posterior.partition.endpoints, posterior.beta_draws
    knots = cum_hazard_knots(posterior.hazard_draws, posterior.partition)

    def survival(m: int) -> list[np.ndarray]:
        lam = np.interp(grid, endpoints, knots[m])
        positive = lam > 0
        return [_subject_survival(X, betas[m], lam, positive) for X in arms]
    return survival


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_split(run, count: int, workers: int) -> None:
    """``run(chunk)`` over ``range(count)`` cut into ``workers`` contiguous
    chunks: the calling thread runs the first, one thread each the rest.

    Returns once every thread has finished. An exception from the calling
    thread's chunk, else the first from a worker's, then reaches the caller.
    """
    bounds = [count * w // workers for w in range(workers + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    failures = []

    def guarded(chunk):
        try:
            run(chunk)
        except BaseException as exc:    # raised again in the calling thread
            failures.append(exc)

    threads = []
    try:
        for chunk in chunks[1:]:
            threads.append(threading.Thread(target=guarded, args=(chunk,)))
            threads[-1].start()
        run(chunks[0])
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]


def gcompute(posterior, ref: int = 0, b: int = 1000,
             grid: np.ndarray | None = None,
             seed: int | None = None) -> GcompResult:
    """Posterior g-computation over a HazardPosterior.

    ``grid`` defaults to the partition midpoints. ``seed`` defaults to the
    fit's seed; per-draw RNG streams are derived from it, so results are
    reproducible and independent of evaluation order and of the number of
    CPUs the draws run on (see the module docstring). Each draw's stream
    gives first its Bayesian-bootstrap weights, then the counts of each arm.
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
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed!r}")
    n = posterior.design.n
    M = len(posterior.draws)
    surv = np.empty((2, M, len(grid)))
    order = np.argsort(grid, kind="stable")
    survival = _arm_survival(posterior, grid[order])
    # disjoint from the sampler's chain spawn keys (c,); all spawned here,
    # before any thread starts, so draw m's stream is the same on any CPUs
    streams = np.random.SeedSequence(seed, spawn_key=(0x6C0,)).spawn(M)

    def run(draws: range) -> None:
        # cell j: simulations failing in (t_{j-1}, t_j], with t_{-1} = 0
        # (survival 1) and t_T = infinity (survival 0), clipped at 0
        cells = np.empty((n, len(grid) + 1))
        for m in draws:
            rng = np.random.Generator(np.random.Philox(streams[m]))
            pi = draw_bb_weights(n, rng)
            for a, S in enumerate(survival(m)):
                np.subtract(1.0, S[:, 0], out=cells[:, 0])
                np.subtract(S[:, :-1], S[:, 1:], out=cells[:, 1:-1])
                cells[:, -1] = S[:, -1]
                counts = rng.multinomial(b, np.maximum(cells, 0.0, out=cells))
                mass = pi @ counts / b
                surv[a, m, order] = np.cumsum(mass[::-1])[::-1][1:]

    parallel = n * (len(grid) + 1) >= PARALLEL_CELLS
    _run_split(run, M, max(1, min(_usable_cpus(), M)) if parallel else 1)
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
    survival = _arm_survival(posterior, grid)
    for m in range(len(posterior.draws)):
        for a, S in enumerate(survival(m)):
            surv[a, m] = pi @ S
    return surv[ref], surv[1 - ref], surv[1 - ref] - surv[ref]
