"""Static-length Hamiltonian Monte Carlo over the hazard-model posterior.

One chain = velocity-Verlet leapfrog trajectories of fixed length with an
identity mass matrix and a Metropolis accept step on the full Hamiltonian.
Step size is tuned during warmup by Nesterov dual averaging (gamma=0.05,
t0=10, kappa=0.75) toward a target acceptance rate, then frozen at the
averaged iterate. No mass-matrix adaptation, no NUTS.

Interior leapfrog steps need only the gradient, so a trajectory evaluates
the log density once, at its end point, for the Metropolis test. The draws
are the same as when every step evaluated it: the gradient is computed the
same way, and at a saturated rho, where only the density is -inf, it is
NaN, so the same trajectories are flagged divergent.

Randomness comes from numpy's counter-based Philox generator. Chain c of a
run with seed s uses ``SeedSequence(s, spawn_key=(c,))``, so multi-chain
results are reproducible bit-for-bit and independent of execution order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
#: purpose: large energy *drops* are routine while burning in from a jittered
#: start and must stay acceptable, while increases of this size only happen
#: when the integrator blows up.
DIVERGENCE_ENERGY = 1000.0

DA_GAMMA = 0.05
DA_T0 = 10.0
DA_KAPPA = 0.75

MAX_INIT_RETRIES = 100


@dataclass(frozen=True)
class SamplerConfig:
    warmup: int = 1000
    post_iter: int = 1000
    chains: int = 1
    seed: int = 0
    leapfrog_steps: int = 32
    target_accept: float = 0.8
    init_jitter: float = 1.0
    threads: int | None = 1         # worker threads for chains; None = chains

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


class LeapfrogResult(NamedTuple):
    position: np.ndarray
    momentum: np.ndarray
    value: float            # log posterior at the final position
    grad: np.ndarray
    diverged: bool          # a non-finite value/gradient was encountered


def leapfrog(position: np.ndarray, momentum: np.ndarray, step_size: float,
             n_steps: int, grad_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
             value_grad: tuple[float, np.ndarray] | None = None,
             grad_only: Callable[[np.ndarray], np.ndarray] | None = None
             ) -> LeapfrogResult:
    """Integrate Hamilton's equations for ``n_steps`` velocity-Verlet steps.

    ``grad_fn(q) -> (log density, gradient)``; the mass matrix is the
    identity. If ``grad_only(q) -> gradient`` is given, it serves every step
    but the last, so the density is evaluated once, at the end point; it must
    return a non-finite gradient wherever the density is -inf. Reversible:
    negating the final momentum and integrating again returns to the start
    up to floating-point error.
    """
    q = np.array(position, dtype=float)
    p = np.array(momentum, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, grad = grad_fn(q) if value_grad is None else value_grad
        if not (np.isfinite(value) and np.isfinite(grad).all()):
            return LeapfrogResult(q, p, -math.inf, grad, True)
        p = p + 0.5 * step_size * grad
        for step in range(n_steps):
            q = q + step_size * p
            if not np.isfinite(q).all():
                return LeapfrogResult(q, p, -math.inf, grad, True)
            last = step == n_steps - 1
            if grad_only is None or last:
                value, grad = grad_fn(q)
                finite = np.isfinite(value) and np.isfinite(grad).all()
            else:
                grad = grad_only(q)
                finite = np.isfinite(grad).all()
            if not finite:
                return LeapfrogResult(q, p, -math.inf, grad, True)
            p = p + (0.5 * step_size if last else step_size) * grad
    return LeapfrogResult(q, p, value, grad, False)


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


def _find_initial_step(q: np.ndarray, value: float, grad: np.ndarray,
                       grad_fn, rng) -> float:
    """Double/halve a trial step until one leapfrog step lands in (0.25, 0.95)."""
    step = 1.0
    p = rng.standard_normal(len(q))
    h0 = -value + 0.5 * float(p @ p)
    for _ in range(100):
        res = leapfrog(q, p, step, 1, grad_fn, value_grad=(value, grad))
        with np.errstate(over="ignore", invalid="ignore"):
            h1 = -res.value + 0.5 * float(res.momentum @ res.momentum)
        if res.diverged or not np.isfinite(h1):
            accept = 0.0
        else:
            accept = math.exp(min(0.0, h0 - h1))
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


def run_hmc_chain(grad_fn, dim: int, config: SamplerConfig,
                  rng: np.random.Generator, grad_only=None) -> ChainResult:
    """Run warmup + retained iterations of static HMC on one target.

    ``grad_fn`` and the optional ``grad_only`` are as in ``leapfrog``.
    """
    q = None
    for _ in range(MAX_INIT_RETRIES):
        cand = rng.uniform(-config.init_jitter, config.init_jitter, dim)
        value, grad = grad_fn(cand)
        if np.isfinite(value) and np.isfinite(grad).all():
            q = cand
            break
    if q is None:
        raise NumericalError(
            f"no finite log posterior after {MAX_INIT_RETRIES} initialization draws")

    step = _find_initial_step(q, value, grad, grad_fn, rng)
    averaging = DualAveraging(step, target=config.target_accept)

    draws = np.empty((config.post_iter, dim))
    accept_sum = 0.0
    divergences = 0
    n_leap = config.leapfrog_steps
    for it in range(config.warmup + config.post_iter):
        p = rng.standard_normal(dim)
        h0 = -value + 0.5 * float(p @ p)
        res = leapfrog(q, p, step, n_leap, grad_fn, value_grad=(value, grad),
                       grad_only=grad_only)
        if res.diverged:
            accept_prob, diverged = 0.0, True
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                h1 = -res.value + 0.5 * float(res.momentum @ res.momentum)
            diverged = not np.isfinite(h1) or (h1 - h0) > DIVERGENCE_ENERGY
            accept_prob = 0.0 if diverged else math.exp(min(0.0, h0 - h1))
        if not diverged and rng.random() < accept_prob:
            q, value, grad = res.position, res.value, res.grad
        if it < config.warmup:
            step = averaging.update(accept_prob)
            if it == config.warmup - 1:
                step = averaging.adapted_step()
        else:
            draws[it - config.warmup] = q
            accept_sum += accept_prob
            divergences += diverged
    return ChainResult(draws=draws, accept_rate=accept_sum / config.post_iter,
                       divergences=divergences, step_size=step)


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
    def theta_draws(self) -> np.ndarray:
        """Log baseline-hazard draws, (draws, K)."""
        return self.draws[:, self.layout.theta]

    @property
    def hazard_draws(self) -> np.ndarray:
        """Baseline-hazard level draws exp(theta), (draws, K)."""
        return np.exp(self.theta_draws)

    @property
    def beta_draws(self) -> np.ndarray:
        return self.draws[:, self.layout.beta]

    @property
    def eta_draws(self) -> np.ndarray:
        return self.draws[:, self.layout.eta]

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
    if np.any(design.y <= 0):
        raise DataError("observed times must be positive")

    partition = make_partition(float(design.y.max()), prior_config.K)
    person_time = expand_person_time(design.y, partition)
    model = HazardModel(design, person_time, partition, prior_config)

    def one_chain(c: int) -> ChainResult:
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(sampler_config.seed, spawn_key=(c,))))
        return run_hmc_chain(model.log_posterior_grad, model.dim,
                             sampler_config, rng, grad_only=model.grad)

    n_chains = sampler_config.chains
    workers = sampler_config.threads or n_chains
    if workers > 1 and n_chains > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_chain, range(n_chains)))
    else:
        results = [one_chain(c) for c in range(n_chains)]

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
