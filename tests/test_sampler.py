import math

import numpy as np
import pytest
from scipy import stats

import causalpch.sampler as sampler
from causalpch import (DataError, HazardModel, NumericalError, PriorConfig,
                       SamplerConfig, expand_person_time, make_partition,
                       parse_formula, sample, summarize)
from causalpch.dataset import Dataset
from causalpch.formula import DesignMatrix, Term
from causalpch.sampler import (DIVERGENCE_ENERGY, DualAveraging,
                               LeapfrogResult, _metropolis, leapfrog,
                               run_hmc_chain)

from conftest import Target, random_survival_data


def gaussian_target(cov_diag):
    prec = 1.0 / np.asarray(cov_diag, dtype=float)

    def value_grad(z):
        return float(-0.5 * np.sum(prec * z * z)), -prec * z

    return Target(value_grad, len(prec))


class CountingTarget(Target):
    """A standard Gaussian target that counts its density and gradient calls."""

    def __init__(self, dim):
        super().__init__(self.count_value_grad, dim)
        self.value_calls = self.grad_calls = 0

    def count_value_grad(self, z):
        self.value_calls += 1
        return float(-0.5 * z @ z), -z

    def grad(self, z):
        self.grad_calls += 1
        return -z


class TestLeapfrog:
    def test_zero_gradient_moves_linearly(self):
        flat = Target(lambda z: (0.0, np.zeros_like(z)), 2)
        q = np.array([1.0, -2.0])
        p = np.array([0.5, 0.25])
        res = leapfrog(flat, q, p, np.zeros(2), step_size=0.1, n_steps=7)
        assert np.allclose(res.position, q + 0.7 * p, atol=1e-14)
        assert np.allclose(res.momentum, p, atol=1e-14)
        assert not res.diverged

    def test_energy_conservation_small_step(self):
        target = gaussian_target([1.0])
        q, p = np.array([0.3]), np.array([-1.1])
        value, grad = target.log_posterior_grad(q)
        h0 = -value + 0.5 * float(p @ p)
        res = leapfrog(target, q, p, grad, step_size=1e-3, n_steps=100)
        h1 = -res.value + 0.5 * float(res.momentum @ res.momentum)
        assert abs(h1 - h0) < 1e-4

    def test_reversibility(self):
        rng = np.random.default_rng(0)
        scales = rng.uniform(0.5, 2.0, 4)
        target = gaussian_target(scales)
        q = rng.standard_normal(4)
        p = rng.standard_normal(4)
        fwd = leapfrog(target, q, p, target.grad(q), step_size=0.05,
                       n_steps=30)
        back = leapfrog(target, fwd.position, -fwd.momentum, fwd.grad,
                        step_size=0.05, n_steps=30)
        assert np.allclose(back.position, q, atol=1e-8)
        assert np.allclose(-back.momentum, p, atol=1e-8)

    def test_divergence_flag_on_nonfinite(self):
        def cliff(z):
            if z[0] > 1.0:
                return -math.inf, np.full_like(z, np.nan)
            return 0.0, np.zeros_like(z)

        res = leapfrog(Target(cliff, 1), np.array([0.9]), np.array([5.0]),
                       np.zeros(1), 0.5, 3)
        assert res.diverged
        assert res.value == -math.inf

    @pytest.mark.parametrize("n_steps, grad_calls", [(8, 7), (1, 0)])
    def test_density_only_at_the_end_point(self, n_steps, grad_calls):
        target = CountingTarget(3)
        q = np.array([0.2, -0.4, 0.1])
        res = leapfrog(target, q, np.ones(3), -q, 0.1, n_steps)
        assert not res.diverged
        assert (target.value_calls, target.grad_calls) == (1, grad_calls)


def trajectory(value=0.0, momentum=(0.0,), diverged=False):
    """A one-row trajectory block."""
    return LeapfrogResult(np.zeros((1, 1)), np.array([momentum], dtype=float),
                          np.array([value]), np.zeros((1, 1)),
                          np.array([diverged]))


class TestMetropolis:
    @pytest.mark.parametrize("res", [
        trajectory(-math.inf, diverged=True),
        trajectory(math.nan),
        trajectory(momentum=(math.inf,)),
        trajectory(-(DIVERGENCE_ENERGY + 1.0)),
    ], ids=["diverged", "nan_value", "infinite_momentum", "energy_rise"])
    def test_divergent(self, res):
        assert _metropolis(np.zeros(1), res) == ([0.0], [True])

    def test_acceptance_probability(self):
        h0 = np.zeros(1)
        assert _metropolis(h0, trajectory(-2.0)) == ([math.exp(-2.0)], [False])
        assert _metropolis(h0, trajectory(3.0)) == ([1.0], [False])
        # a rise of exactly DIVERGENCE_ENERGY is rejected but not divergent
        assert _metropolis(h0, trajectory(-DIVERGENCE_ENERGY)) == ([0.0], [False])


class TestDualAveraging:
    def test_moves_toward_target(self):
        da = DualAveraging(initial_step=1.0, target=0.8)
        # persistently low acceptance drives the step down
        for _ in range(50):
            step = da.update(0.1)
        assert step < 1.0
        assert da.adapted_step() < 1.0

    def test_high_acceptance_raises_step(self):
        da = DualAveraging(initial_step=0.1, target=0.8)
        for _ in range(50):
            step = da.update(1.0)
        assert step > 0.1


class TestHmcChain:
    def test_gaussian_moments_within_mcse(self):
        cfg = SamplerConfig(warmup=500, post_iter=4000, seed=0,
                            leapfrog_steps=8, target_accept=0.8)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(42)))
        [res] = run_hmc_chain(gaussian_target([1.0, 4.0]), cfg, [rng])
        table = summarize([res.draws])
        for j, true_sd in enumerate((1.0, 2.0)):
            mcse = table.ts_se[j]
            assert abs(table.mean[j]) < 3 * mcse
            assert table.sd[j] == pytest.approx(true_sd, rel=0.10)
        assert res.divergences == 0

    def test_kolmogorov_smirnov_detailed_balance(self):
        # fixed-length trajectories resonate on an isotropic Gaussian, so the
        # draws are thinned by their measured autocorrelation time before the
        # iid-based KS test
        from conftest import integrated_autocorr_time

        cfg = SamplerConfig(warmup=500, post_iter=20000, seed=0,
                            leapfrog_steps=4, target_accept=0.7)
        for seed in (1, 2):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(seed)))
            [res] = run_hmc_chain(gaussian_target([1.0, 1.0]), cfg, [rng])
            tau = max(integrated_autocorr_time(res.draws[:, j])
                      for j in range(2))
            thinned = res.draws[::max(1, int(np.ceil(5 * tau)))]
            for j in range(2):
                p = stats.kstest(thinned[:, j], "norm").pvalue
                assert p > 0.01, f"seed {seed} coord {j}: KS p={p:.4f}"

    def test_init_failure_raises(self):
        def hopeless(z):
            return -math.inf, np.zeros_like(z)

        cfg = SamplerConfig(warmup=10, post_iter=10)
        rng = np.random.default_rng(0)
        with pytest.raises(NumericalError, match="initialization"):
            run_hmc_chain(Target(hopeless, 3), cfg, [rng])


def reference_leapfrog(target, q, p, grad, step_size, n_steps):
    """Row by row: the density and gradient of the row alone at every step,
    stopping at the first non-finite one."""
    step_sizes = np.broadcast_to(step_size, (len(q), 1))[:, 0]
    rows = [reference_row(target, *row, n_steps)
            for row in zip(q, p, grad, step_sizes)]
    return LeapfrogResult(*(np.array(field) for field in zip(*rows)))


def reference_row(target, q, p, grad, step_size, n_steps):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = p + 0.5 * step_size * grad
        for step in range(n_steps):
            q = q + step_size * p
            if not np.all(np.isfinite(q)):
                return LeapfrogResult(q, p, -math.inf, grad, True)
            value, grad = target.log_posterior_grad(q)
            if not (np.isfinite(value) and np.all(np.isfinite(grad))):
                return LeapfrogResult(q, p, -math.inf, grad, True)
            p = p + (step_size if step < n_steps - 1 else 0.5 * step_size) * grad
    return LeapfrogResult(q, p, value, grad, False)


def assert_same_chain(a, b):
    assert a.draws.tobytes() == b.draws.tobytes()
    assert a.accept_rate == b.accept_rate
    assert a.step_size == b.step_size
    assert a.divergences == b.divergences


class TestGradientOnlySteps:
    @pytest.mark.parametrize("target, seed, diverging",
                             [(0.9, 1, False), (0.3, 2, True)])
    def test_chain_matches_reference_integrator(self, monkeypatch, target,
                                                seed, diverging):
        # at target 0.3 the step is large enough that trajectories blow up,
        # some of them at a saturated rho, where only the density is -inf;
        # the lockstep block of three chains must equal each chain run alone
        X, y, delta = random_survival_data(np.random.default_rng(0), n=30)
        part = make_partition(float(y.max()), 5)
        design = DesignMatrix(X=X, columns=("x0", "x1"),
                              terms=(Term(("x0",)), Term(("x1",))),
                              y=y, delta=delta)
        model = HazardModel(design, expand_person_time(y, part), part,
                            PriorConfig(model_kind="ar1", K=5))
        cfg = SamplerConfig(warmup=50, post_iter=50, leapfrog_steps=8,
                            target_accept=target)

        def run(*seeds):
            return run_hmc_chain(model, cfg, [
                np.random.Generator(np.random.Philox(np.random.SeedSequence(s)))
                for s in seeds])

        seeds = (seed, seed + 10, seed + 20)
        lockstep = run(*seeds)
        alone = [run(s)[0] for s in seeds]
        monkeypatch.setattr(sampler, "leapfrog", reference_leapfrog)
        [ref] = run(seed)
        assert_same_chain(lockstep[0], ref)
        for a, b in zip(lockstep, alone):
            assert_same_chain(a, b)
        assert (ref.divergences > 0) == diverging


def tiny_dataset(n=24, seed=0):
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < 0.5).astype(float)
    y = rng.exponential(2.0, n).clip(0.05, 9.5)
    y[0] = 10.0
    delta = (rng.random(n) < 0.8).astype(float)
    delta[0] = 1.0
    return Dataset(columns={"y": y, "delta": delta, "A": a,
                            "x": rng.standard_normal(n)})


class TestSample:
    def test_determinism_same_seed(self):
        data = tiny_dataset()
        spec = parse_formula("Surv(y, delta) ~ A + x")
        prior = PriorConfig(model_kind="ar1", K=4)
        cfg = SamplerConfig(warmup=60, post_iter=40, seed=7, leapfrog_steps=8)
        a = sample(data, spec, prior, cfg)
        b = sample(data, spec, prior, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert a.accept_rate == b.accept_rate

    def test_parallel_matches_sequential(self):
        data = tiny_dataset()
        spec = parse_formula("Surv(y, delta) ~ A")
        prior = PriorConfig(model_kind="independent", K=3)
        seq = sample(data, spec, prior,
                     SamplerConfig(warmup=50, post_iter=30, seed=3, chains=3,
                                   leapfrog_steps=6, threads=1))
        par = sample(data, spec, prior,
                     SamplerConfig(warmup=50, post_iter=30, seed=3, chains=3,
                                   leapfrog_steps=6, threads=3))
        assert np.array_equal(seq.draws, par.draws)
        assert seq.chain_ids.tolist() == par.chain_ids.tolist()

    def test_chains_run_in_lockstep(self, monkeypatch):
        # one runner call moves every chain, and chain c's draws depend on
        # the seed and c alone, not on how many chains run beside it
        calls = []
        run = sampler.run_hmc_chain

        def counting_run(target, config, rngs):
            calls.append(len(rngs))
            return run(target, config, rngs)

        monkeypatch.setattr(sampler, "run_hmc_chain", counting_run)
        data, spec = tiny_dataset(), parse_formula("Surv(y, delta) ~ A")
        prior = PriorConfig(model_kind="independent", K=3)
        two, three = (sample(data, spec, prior,
                             SamplerConfig(warmup=50, post_iter=30, seed=3,
                                           chains=c, leapfrog_steps=6))
                      for c in (2, 3))
        assert calls == [2, 3]
        assert three.draws[:60].tobytes() == two.draws.tobytes()
        assert three.step_sizes[:2] == two.step_sizes

    def test_chain_independence(self):
        data = tiny_dataset()
        spec = parse_formula("Surv(y, delta) ~ A")
        prior = PriorConfig(model_kind="independent", K=3)
        post = sample(data, spec, prior,
                      SamplerConfig(warmup=300, post_iter=1000, seed=11,
                                    chains=2, leapfrog_steps=12))
        chains = post.chains()
        summary = [c[:, prior.K] for c in chains]   # beta_A per chain
        r = np.corrcoef(summary[0], summary[1])[0, 1]
        assert abs(r) < 0.1

    def test_draw_layout_and_constraints(self):
        data = tiny_dataset()
        spec = parse_formula("Surv(y, delta) ~ A*x")
        prior = PriorConfig(model_kind="ar1", K=4)
        post = sample(data, spec, prior,
                      SamplerConfig(warmup=40, post_iter=25, seed=5,
                                    leapfrog_steps=6))
        K, p = 4, 3
        assert post.draws.shape == (25, K + p + 1 + 1 + K)
        assert post.param_names[:4] == ("theta_1", "theta_2", "theta_3",
                                        "theta_4")
        assert post.param_names[4:7] == ("A", "x", "A:x")
        rho = post.draws[:, K + p + 1]
        nu = post.draws[:, K + p + 2:]
        assert np.all(np.abs(rho) < 1)
        assert np.all(nu > 0)

    def test_prior_only_beta_block(self):
        # all-zero covariate column: the likelihood never sees its beta, so
        # that marginal posterior is exactly the N(0, sigma^2) prior; K is
        # kept small so every interval has events and the scale coordinates
        # stay data-pinned
        data = tiny_dataset(n=60, seed=0)
        data.columns["z"] = np.zeros(60)
        spec = parse_formula("Surv(y, delta) ~ A + z")
        prior = PriorConfig(model_kind="independent", K=2, sigma=3.0)
        post = sample(data, spec, prior,
                      SamplerConfig(warmup=800, post_iter=4000, seed=2,
                                    leapfrog_steps=32, target_accept=0.95))
        beta = post.beta_draws[:, 1]
        table = summarize([beta[:, None]])
        assert abs(table.mean[0]) < 3 * table.ts_se[0]
        assert table.sd[0] == pytest.approx(3.0, rel=0.10)

    def test_treatment_must_be_in_formula(self):
        data = tiny_dataset()
        spec = parse_formula("Surv(y, delta) ~ x")
        with pytest.raises(DataError, match="treatment"):
            sample(data, spec, PriorConfig(K=3),
                   SamplerConfig(warmup=5, post_iter=5))

    def test_nonbinary_treatment_rejected(self):
        data = tiny_dataset()
        data.columns["A"] = data.columns["x"]   # continuous
        spec = parse_formula("Surv(y, delta) ~ A")
        with pytest.raises(DataError, match="0/1"):
            sample(data, spec, PriorConfig(K=3),
                   SamplerConfig(warmup=5, post_iter=5))

    def test_excessive_divergences_hard_error(self):
        # an aggressive step on the ar1 funnel at tiny-data scale pushes the
        # post-warmup divergence rate over the 20% gate
        data = tiny_dataset()
        spec = parse_formula("Surv(y, delta) ~ A + x")
        prior = PriorConfig(model_kind="ar1", K=8)
        with pytest.raises(NumericalError, match="divergent"):
            sample(data, spec, prior,
                   SamplerConfig(warmup=40, post_iter=40, seed=0,
                                 leapfrog_steps=8, target_accept=0.6))
