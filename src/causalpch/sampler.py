"""Static-length Hamiltonian Monte Carlo over the hazard-model posterior.

All chains of a run move in lockstep as one (C, dim) block: every
iteration draws each chain's momentum, integrates the whole block through
one velocity-Verlet trajectory of fixed length (identity mass matrix, a
step size per chain) and applies a Metropolis test per chain on the full
Hamiltonian. Each chain tunes its own step size during warmup by Nesterov
dual averaging (gamma=0.05, t0=10, kappa=0.75) toward a target acceptance
rate, then freezes it at the averaged iterate. No mass-matrix adaptation,
no NUTS.

The target is any object with ``dim``, ``log_posterior_grad(z) ->
(log density, gradient)`` and ``grad(z) -> gradient`` that take a (C, dim)
block and give each row what it gives alone; ``HazardModel`` is one.
Interior leapfrog steps call ``grad`` alone, so a trajectory evaluates the
log density once, at its end point, for the Metropolis test. ``grad`` must
be non-finite wherever the density is -inf, so the draws equal those of the
tests' reference integrator, which evaluates it at every step.

Randomness comes from numpy's counter-based Philox generator. Chain c of a
run with seed s uses ``SeedSequence(s, spawn_key=(c,))`` and calls it in
the order a lone chain would, so chain c's draws are bit-for-bit those of
running it alone and do not depend on how many chains run beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import DataError, NumericalError
from .formula import DesignMatrix, FormulaSpec, build_design, format_formula
from .hazard_model import (AR1, HazardModel, ParameterLayout, Partition,
                           PriorConfig, expand_person_time, make_partition)

__all__ = ["SamplerConfig", "HazardPosterior", "LeapfrogResult", "leapfrog",
           "DualAveraging", "run_hmc_chain", "sample", "RNG_NAME"]

RNG_NAME = "numpy-philox4x64; chain c uses SeedSequence(seed, spawn_key=(c,))"

#: Hamiltonian increase treated as a divergent trajectory. One-sided on
#: purpose: large energy *drops* are routine while burning in from a random
#: start and must stay acceptable, while increases of this size only happen
#: when the integrator blows up.
DIVERGENCE_ENERGY = 1000.0

DA_GAMMA = 0.05
DA_T0 = 10.0
DA_KAPPA = 0.75

MAX_INIT_RETRIES = 100
INIT_RADIUS = 1.0       # half-width of the uniform start box, per coordinate


@dataclass(frozen=True)
class SamplerConfig:
    warmup: int = 1000
    post_iter: int = 1000
    chains: int = 1
    seed: int = 0
    leapfrog_steps: int = 32
    target_accept: float = 0.8
    # accepted and checked, but without effect: the chains run in lockstep
    threads: int | None = 1

    def __post_init__(self):
        if self.warmup < 1 or self.post_iter < 1:
            raise DataError("warmup and post_iter must be >= 1")
        if self.leapfrog_steps < 1:
            raise DataError("leapfrog_steps must be >= 1")
        if self.chains < 1:
            raise DataError("chains must be >= 1")
        if not 0.0 < self.target_accept < 1.0:
            raise DataError("target_accept must be in (0, 1)")
        if self.threads is not None and self.threads < 1:
            raise DataError(f"threads must be >= 1, got {self.threads!r}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed!r}")


class LeapfrogResult(NamedTuple):
    position: np.ndarray
    momentum: np.ndarray
    value: np.ndarray       # log posterior at the final position, -inf if diverged
    grad: np.ndarray
    diverged: np.ndarray    # a non-finite position, gradient or density


def leapfrog(target, q: np.ndarray, p: np.ndarray, grad: np.ndarray,
             step_size, n_steps: int) -> LeapfrogResult:
    """Integrate Hamilton's equations for ``n_steps`` velocity-Verlet steps.

    ``q``, ``p`` and ``grad`` (the log density's gradient at ``q``) are a
    (C, dim) block, or one point if ``target.grad`` takes one (that of
    ``HazardModel`` does not); ``step_size`` is a scalar or a (C, 1) column.
    The mass matrix is the identity. Interior steps evaluate ``target.grad``,
    the last one ``target.log_posterior_grad``. Finiteness is checked once,
    at the end: a non-finite position stays non-finite under later steps,
    and a non-finite gradient makes the momentum and then the next position
    non-finite. Reversible: negating the final momentum and integrating
    again returns to the start up to floating-point error.
    """
    half_step = 0.5 * step_size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = p + half_step * grad
        q = q.copy()
        buf = np.empty_like(q)
        for _ in range(n_steps - 1):
            q += np.multiply(step_size, p, out=buf)
            p += np.multiply(step_size, target.grad(q), out=buf)
        q += np.multiply(step_size, p, out=buf)
        value, grad = target.log_posterior_grad(q)
        p += np.multiply(half_step, grad, out=buf)
        diverged = ~(np.isfinite(value) & np.isfinite(q).all(axis=-1)
                     & np.isfinite(grad).all(axis=-1))
    return LeapfrogResult(q, p, np.where(diverged, -math.inf, value), grad,
                          diverged)


class DualAveraging:
    """Nesterov dual averaging of log step size (Hoffman-Gelman constants)."""

    def __init__(self, initial_step: float, target: float):
        self.mu = math.log(10.0 * initial_step)
        self.target = target
        self.h_bar = 0.0
        self.log_step_bar = math.log(initial_step)
        self.t = 0

    def update(self, accept_prob: float) -> float:
        """Feed one acceptance probability; returns the next step size."""
        self.t += 1
        frac = 1.0 / (self.t + DA_T0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - accept_prob)
        log_step = self.mu - math.sqrt(self.t) / DA_GAMMA * self.h_bar
        weight = self.t ** (-DA_KAPPA)
        self.log_step_bar = weight * log_step + (1.0 - weight) * self.log_step_bar
        return math.exp(log_step)

    def adapted_step(self) -> float:
        """The averaged iterate; use after warmup ends."""
        return math.exp(self.log_step_bar)


def _metropolis(h0: np.ndarray, res: LeapfrogResult) -> tuple[list, list]:
    """Per row of a trajectory block from energies ``h0``: (acceptance
    probabilities, diverged flags). A row diverged if it met a non-finite
    point or ends at a non-finite energy or one more than DIVERGENCE_ENERGY
    above its ``h0``."""
    with np.errstate(over="ignore", invalid="ignore"):
        h1 = -res.value + 0.5 * np.vecdot(res.momentum, res.momentum)
        diverged = (res.diverged | ~np.isfinite(h1)
                    | (h1 - h0 > DIVERGENCE_ENERGY)).tolist()
    # math.exp on Python floats, not np.exp: the two differ in the last bit
    accept = [0.0 if d else math.exp(min(0.0, a - b))
              for d, a, b in zip(diverged, h0.tolist(), h1.tolist())]
    return accept, diverged


def _find_initial_step(target, q: np.ndarray, value: np.ndarray,
                       grad: np.ndarray, rng) -> float:
    """Double/halve a trial step until one leapfrog step of the one-row
    block ``q`` lands in (0.25, 0.95)."""
    step = 1.0
    p = rng.standard_normal(q.shape)
    h0 = -value + 0.5 * np.vecdot(p, p)
    for _ in range(100):
        (accept,), _ = _metropolis(h0, leapfrog(target, q, p, grad, step, 1))
        if accept > 0.95:
            step *= 2.0
        elif accept < 0.25:
            step /= 2.0
        else:
            break
    return step


@dataclass
class ChainResult:
    draws: np.ndarray           # (post_iter, dim) unconstrained
    accept_rate: float          # mean Metropolis acceptance probability
    divergences: int            # post-warmup divergent trajectories
    step_size: float


def run_hmc_chain(target, config: SamplerConfig,
                  rngs: list[np.random.Generator]) -> list[ChainResult]:
    """Run warmup + retained iterations of static HMC, one chain per
    generator, all chains advancing in lockstep as one (C, dim) block."""
    dim, n_chains = target.dim, len(rngs)
    q, value = np.empty((n_chains, dim)), np.empty(n_chains)
    grad, step = np.empty((n_chains, dim)), np.empty((n_chains, 1))
    for c, rng in enumerate(rngs):
        for _ in range(MAX_INIT_RETRIES):
            row = rng.uniform(-INIT_RADIUS, INIT_RADIUS, (1, dim))
            row_value, row_grad = target.log_posterior_grad(row)
            if np.isfinite(row_value).all() and np.isfinite(row_grad).all():
                break
        else:
            raise NumericalError(f"no finite log posterior after "
                                 f"{MAX_INIT_RETRIES} initialization draws")
        q[c], value[c], grad[c] = row[0], row_value[0], row_grad[0]
        step[c] = _find_initial_step(target, row, row_value, row_grad, rng)
    averaging = [DualAveraging(s, target=config.target_accept)
                 for s in step[:, 0].tolist()]

    draws = np.empty((n_chains, config.post_iter, dim))
    accept_sum, divergences = [0.0] * n_chains, [0] * n_chains
    for it in range(config.warmup + config.post_iter):
        p = np.stack([rng.standard_normal(dim) for rng in rngs])
        h0 = -value + 0.5 * np.vecdot(p, p)
        res = leapfrog(target, q, p, grad, step, config.leapfrog_steps)
        accept, diverged = _metropolis(h0, res)
        for c, rng in enumerate(rngs):
            if not diverged[c] and rng.random() < accept[c]:
                q[c], value[c], grad[c] = res.position[c], res.value[c], res.grad[c]
            if it < config.warmup:
                step[c] = averaging[c].update(accept[c])
                if it == config.warmup - 1:
                    step[c] = averaging[c].adapted_step()
            else:
                accept_sum[c] += accept[c]
                divergences[c] += diverged[c]
        if it >= config.warmup:
            draws[:, it - config.warmup] = q
    return [ChainResult(draws=draws[c],
                        accept_rate=accept_sum[c] / config.post_iter,
                        divergences=divergences[c], step_size=float(step[c, 0]))
            for c in range(n_chains)]


@dataclass
class HazardPosterior:
    """Retained posterior draws (constrained scale) plus fit metadata.

    Draw rows follow ``layout``, with one beta per formula term. Rows are
    stacked chain-major; chain_ids/iter_ids label them.
    """

    draws: np.ndarray
    chain_ids: np.ndarray
    iter_ids: np.ndarray
    partition: Partition
    model_kind: str
    sigma: float
    formula: str
    treat_col: str
    design: DesignMatrix
    accept_rate: tuple[float, ...]
    divergences: tuple[int, ...]
    step_sizes: tuple[float, ...]
    config: SamplerConfig
    rng_name: str = RNG_NAME

    @property
    def K(self) -> int:
        return self.partition.K

    @property
    def term_names(self) -> tuple[str, ...]:
        return self.design.columns

    @property
    def p(self) -> int:
        return len(self.term_names)

    @property
    def layout(self) -> ParameterLayout:
        return ParameterLayout(self.K, self.p, self.model_kind == AR1)

    @property
    def n_chains(self) -> int:
        return int(self.chain_ids.max()) if len(self.chain_ids) else 0

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.layout.names(self.term_names)

    @property
    def hazard_draws(self) -> np.ndarray:
        """Baseline-hazard level draws exp(theta), (draws, K)."""
        return np.exp(self.draws[:, self.layout.theta])

    @property
    def beta_draws(self) -> np.ndarray:
        return self.draws[:, self.layout.beta]

    def chains(self) -> list[np.ndarray]:
        """Split the draw matrix back into per-chain blocks."""
        return [self.draws[self.chain_ids == c]
                for c in range(1, self.n_chains + 1)]


def _draw_labels(chains: int, post_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """The (chain, iter) labels of chain-major draw rows, both 1-based."""
    return (np.repeat(np.arange(1, chains + 1), post_iter),
            np.tile(np.arange(1, post_iter + 1), chains))


def sample(data: Dataset, formula_spec: FormulaSpec, prior_config: PriorConfig,
           sampler_config: SamplerConfig) -> HazardPosterior:
    """Draw from the hazard-model posterior.

    The treatment column must appear as a main effect in the formula
    (g-computation intervenes on it), must be 0/1 and must have subjects in
    both arms.
    """
    design = build_design(data, formula_spec)
    if data.treat_col not in formula_spec.main_effects:
        raise DataError(f"treatment column {data.treat_col!r} must appear in "
                        "the formula as a main effect")
    design.check_treatment(data.treat_col)

    partition = make_partition(float(design.y.max()), prior_config.K)
    person_time = expand_person_time(design.y, partition)
    model = HazardModel(design, person_time, partition, prior_config)

    n_chains = sampler_config.chains
    results = run_hmc_chain(model, sampler_config, [
        np.random.Generator(np.random.Philox(np.random.SeedSequence(
            sampler_config.seed, spawn_key=(c,))))
        for c in range(n_chains)])

    for c, res in enumerate(results):
        rate = res.divergences / sampler_config.post_iter
        if rate > 0.20:
            raise NumericalError(
                f"chain {c + 1}: {res.divergences} divergent transitions "
                f"({rate:.0%} of retained draws); decrease the step size by "
                "raising target_accept, or increase leapfrog_steps")

    draws = np.vstack([model.layout.constrain(r.draws) for r in results])
    chain_ids, iter_ids = _draw_labels(n_chains, sampler_config.post_iter)
    return HazardPosterior(
        draws=draws, chain_ids=chain_ids, iter_ids=iter_ids,
        partition=partition, model_kind=prior_config.model_kind,
        sigma=prior_config.sigma, formula=format_formula(formula_spec),
        treat_col=data.treat_col, design=design,
        accept_rate=tuple(r.accept_rate for r in results),
        divergences=tuple(r.divergences for r in results),
        step_sizes=tuple(r.step_size for r in results),
        config=sampler_config)
