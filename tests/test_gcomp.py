import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from causalpch import (DataError, apply_intervention, cum_base_hazard,
                       draw_bb_weights, exact_marginal_survival, gcompute,
                       make_partition)
from causalpch.formula import DesignMatrix, Term
from causalpch.sampler import HazardPosterior, SamplerConfig


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestBBWeights:
    def test_single_subject(self):
        w = draw_bb_weights(1, rng_for(0))
        assert w.tolist() == [1.0]

    def test_dirichlet_moments(self):
        n, reps = 137, 10000
        rng = rng_for(1)
        first = np.array([draw_bb_weights(n, rng)[0] for _ in range(reps)])
        target_mean = 1.0 / n
        mcse = first.std(ddof=1) / math.sqrt(reps)
        assert abs(first.mean() - target_mean) < 3 * mcse
        target_var = (n - 1) / (n**2 * (n + 1))
        assert first.var(ddof=1) == pytest.approx(target_var, rel=0.10)

    def test_invalid_n(self):
        with pytest.raises(DataError):
            draw_bb_weights(0, rng_for(0))


class TestApplyIntervention:
    def test_rewrites_treatment_and_interactions(self):
        X = np.array([[0.0, 2.0, 0.0, 5.0],
                      [1.0, 3.0, 3.0, 5.0]])
        terms = (Term(("A",)), Term(("x",)), Term(("A", "x")), Term(("w",)))
        cols = ("A", "x", "A:x", "w")
        X1 = apply_intervention(X, terms, cols, "A", 1)
        assert X1[:, 0].tolist() == [1.0, 1.0]
        assert X1[:, 2].tolist() == [2.0, 3.0]
        assert X1[:, 3].tolist() == [5.0, 5.0]    # untouched covariate
        X0 = apply_intervention(X, terms, cols, "A", 0)
        assert X0[:, 0].tolist() == [0.0, 0.0]
        assert X0[:, 2].tolist() == [0.0, 0.0]
        assert np.array_equal(X0[:, 1], X[:, 1])

    def test_bad_level(self):
        with pytest.raises(DataError):
            apply_intervention(np.zeros((2, 1)), (Term(("A",)),), ("A",), "A", 2)


def synthetic_posterior(M=40, n=12, K=6, seed=0, beta_a=0.4, identical=False):
    """Hand-built HazardPosterior bypassing MCMC."""
    rng = np.random.default_rng(seed)
    part = make_partition(12.0, K)
    terms = (Term(("A",)), Term(("x",)))
    a = (rng.random(n) < 0.5).astype(float)
    x = rng.standard_normal(n)
    X = np.column_stack([a, x])
    y = rng.uniform(0.5, 12.0, n)
    y[0] = 12.0
    delta = np.ones(n)
    design = DesignMatrix(X=X, columns=("A", "x"), terms=terms, y=y,
                          delta=delta)
    theta = rng.normal(-2.0, 0.3, (M, K))
    beta = np.column_stack([np.full(M, beta_a) + 0.05 * rng.standard_normal(M),
                            rng.normal(0.2, 0.05, M)])
    if identical:
        theta = np.repeat(theta[:1], M, axis=0)
        beta = np.repeat(beta[:1], M, axis=0)
    nu = np.ones((M, K))
    eta = np.zeros((M, 1))
    draws = np.hstack([theta, beta, eta, nu])
    return HazardPosterior(
        draws=draws, chain_ids=np.ones(M, int),
        iter_ids=np.arange(1, M + 1), partition=part,
        model_kind="independent", sigma=3.0,
        formula="Surv(y, delta) ~ A + x", treat_col="A", design=design,
        accept_rate=(0.9,), divergences=(0,),
        step_sizes=(0.1,), config=SamplerConfig(warmup=10, post_iter=M, seed=3))


class TestGcompute:
    def test_ate_identity_and_shapes(self):
        post = synthetic_posterior()
        res = gcompute(post, ref=0, b=64)
        assert res.surv_ref.shape == res.surv_trt.shape == res.ate.shape
        assert res.ate.shape == (40, post.partition.K)
        assert np.array_equal(res.ate, res.surv_trt - res.surv_ref)
        assert np.all((res.surv_ref >= 0) & (res.surv_ref <= 1))
        assert np.all((res.surv_trt >= 0) & (res.surv_trt <= 1))

    def test_rows_monotone_on_default_grid(self):
        post = synthetic_posterior()
        res = gcompute(post, ref=0, b=128)
        assert np.all(np.diff(res.surv_ref, axis=1) <= 1e-12)
        assert np.all(np.diff(res.surv_trt, axis=1) <= 1e-12)

    def test_ref_level_swaps_arms(self):
        post = synthetic_posterior()
        r0 = gcompute(post, ref=0, b=64, seed=9)
        r1 = gcompute(post, ref=1, b=64, seed=9)
        assert np.array_equal(r0.surv_ref, r1.surv_trt)
        assert np.array_equal(r0.surv_trt, r1.surv_ref)
        assert np.array_equal(r1.ate, -r0.ate)

    def test_seed_determinism(self):
        post = synthetic_posterior()
        a = gcompute(post, ref=0, b=32, seed=5)
        b = gcompute(post, ref=0, b=32, seed=5)
        assert np.array_equal(a.ate, b.ate)
        c = gcompute(post, ref=0, b=32, seed=6)
        assert not np.array_equal(a.ate, c.ate)

    def test_degenerate_posterior_matches_exact_plugin(self):
        post = synthetic_posterior(M=30, identical=True)
        grid = np.array([2.0, 6.0, 10.0])
        b = 4000
        res = gcompute(post, ref=0, b=b, grid=grid, bb_weights=False)
        ref_exact, trt_exact, ate_exact = exact_marginal_survival(
            post, ref=0, grid=grid)
        tol = 2.0 / math.sqrt(b)
        assert np.all(np.abs(res.ate - ate_exact) < tol)
        assert np.all(np.abs(res.surv_ref - ref_exact) < tol)
        # all rows equal each other up to Monte Carlo noise
        spread = res.ate.max(axis=0) - res.ate.min(axis=0)
        assert np.all(spread < 2 * tol)

    def test_null_effect_when_beta_a_zero(self):
        post = synthetic_posterior(M=25, beta_a=0.0)
        post.draws[:, post.K] = 0.0     # force the treatment coefficient to 0
        b = 1000
        res = gcompute(post, ref=0, b=b)
        assert np.all(np.abs(res.ate) < 3.0 / math.sqrt(b))

    def test_simulation_free_consistency(self):
        post = synthetic_posterior(M=60)
        grid = np.array([1.0, 4.0, 8.0, 11.5])
        b = 2000
        res = gcompute(post, ref=0, b=b, grid=grid)
        _, _, ate_exact = exact_marginal_survival(post, ref=0, grid=grid)
        diff = np.abs(res.ate.mean(axis=0) - ate_exact.mean(axis=0))
        assert np.all(diff < 2.0 / math.sqrt(b))

    def test_grid_beyond_horizon_rejected(self):
        post = synthetic_posterior()
        with pytest.raises(DataError, match="maximum observed time"):
            gcompute(post, ref=0, b=16, grid=np.array([5.0, 12.5]))

    def test_bad_ref(self):
        post = synthetic_posterior()
        with pytest.raises(DataError, match="ref"):
            gcompute(post, ref=2, b=16)

    def test_default_grid_is_midpoints(self):
        post = synthetic_posterior()
        res = gcompute(post, ref=0, b=8)
        assert np.allclose(res.times, post.partition.midpoints)
        assert res.grid_source == "midpoints"

    def test_single_arm_design_rejected(self):
        post = synthetic_posterior()
        post.design.X[:, 0] = 1.0
        with pytest.raises(DataError, match="not identified"):
            gcompute(post, ref=0, b=8)
        with pytest.raises(DataError, match="not identified"):
            exact_marginal_survival(post, ref=0, grid=np.array([2.0, 6.0]))


def inverse_cdf_gcompute(post, b, grid, seed, bb_weights=True):
    """Marginal survival per arm by the inverse-CDF path, (2, M, T).

    Simulates every event time, one Philox stream per draw as in
    ``gcompute``, sorts each subject's times and counts them against the
    grid; draws whose cumulative hazard outlives the partition get a time
    past the horizon.
    """
    part, design = post.partition, post.design
    arms = [apply_intervention(design.X, design.terms, design.columns,
                               post.treat_col, a) for a in (0, 1)]
    streams = np.random.SeedSequence(seed, spawn_key=(0x6C0,)).spawn(
        len(post.draws))
    out = np.zeros((2, len(post.draws), len(grid)))
    for m, stream in enumerate(streams):
        rng = np.random.Generator(np.random.Philox(stream))
        pi = (draw_bb_weights(design.n, rng) if bb_weights
              else np.full(design.n, 1.0 / design.n))
        hazard = post.hazard_draws[m]
        knots = np.concatenate(([0.0], part.dtau * np.cumsum(hazard)))
        for a in (0, 1):
            rate = np.exp(arms[a] @ post.beta_draws[m])
            targets = rng.standard_exponential((design.n, b)) / rate[:, None]
            j = np.searchsorted(knots, targets, side="left").clip(1, part.K) - 1
            times = part.endpoints[j] + (targets - knots[j]) / hazard[j]
            times[targets > knots[-1]] = part.max_time + part.dtau
            times.sort(axis=1)
            for i in range(design.n):
                counts = np.searchsorted(times[i], grid, side="right")
                out[a, m] += pi[i] * (1.0 - counts / b)
    return out


def degenerate_posterior(theta, beta, M=20, n=12):
    """Every draw has log hazard levels ``theta`` and coefficients ``beta``."""
    post = synthetic_posterior(M=M, n=n, K=len(theta))
    post.draws[:, :post.K] = theta
    post.draws[:, post.K:post.K + post.p] = beta
    return post


def mc_tolerance(surv, n, b):
    """4.5 Monte Carlo standard errors of a uniformly weighted survival."""
    return 4.5 * np.sqrt(surv * (1.0 - surv) / (n * b)) + 1e-12


class TestCountingKernel:
    @pytest.mark.parametrize("K, grid", [
        (6, np.array([3.0, 9.0])),
        (100, None),
        (6, np.array([9.0, 2.0, 9.0, 0.0, 12.0, 2.0])),
    ], ids=["two_times", "midpoints", "unsorted_duplicates"])
    def test_matches_inverse_cdf_reference(self, K, grid):
        # the same law, not the same streams: replicates of one hazard draw
        # with uniform weights agree in mean, and each kernel's variance is
        # sum_i w_i^2 S_i (1 - S_i) / B, which n*B or 1 trials per subject miss
        M, n, b = 400, 12, 1000
        part = make_partition(12.0, K)
        theta = np.log(np.diff(0.4 * np.sqrt(part.endpoints)) / part.dtau)
        post = degenerate_posterior(theta, [math.log(1.5), 0.2], M=M, n=n)
        res = gcompute(post, ref=0, b=b, grid=grid, seed=11, bb_weights=False)
        # another seed, so the two kernels' replicates are independent
        want = inverse_cdf_gcompute(post, b, res.times, 12, bb_weights=False)
        got = np.stack([res.surv_ref, res.surv_trt])
        d = post.design
        rates = [np.exp(apply_intervention(d.X, d.terms, d.columns, "A", a)
                        @ post.beta_draws[0]) for a in (0, 1)]
        lam = cum_base_hazard(post.hazard_draws[0], part, res.times)
        surv_i = np.exp(-np.multiply.outer(rates, lam))        # (2, n, T)
        var = np.sum(surv_i * (1.0 - surv_i), axis=1) / (n**2 * b)
        gap = np.abs(got.mean(axis=1) - want.mean(axis=1))
        assert np.all(gap < 4.5 * np.sqrt(2.0 * var / M) + 1e-12)
        lo, hi = chi2.ppf([1e-6, 1.0 - 1e-6], M - 1) / (M - 1)
        live = var > 0
        for surv in (got, want):
            ratio = surv.var(axis=1, ddof=1)[live] / var[live]
            assert np.all((ratio > lo) & (ratio < hi))
            # t = 0: every simulation survives, in every replicate
            assert np.allclose(surv[:, :, ~live[0]], 1.0, rtol=0, atol=1e-12)

    def test_constant_hazard_is_exponential(self):
        level, b = 0.25, 2000
        post = degenerate_posterior(np.full(6, math.log(level)), [0.0, 0.0])
        grid = np.array([0.5, 2.0, 5.0, 11.0])
        res = gcompute(post, ref=0, b=b, grid=grid, bb_weights=False)
        exact = np.exp(-level * grid)
        for surv in (res.surv_ref, res.surv_trt):
            assert np.all(np.abs(surv - exact) < mc_tolerance(exact, 12, b))

    def test_doubled_rate_squares_survival(self):
        theta = np.log([0.05, 0.2, 0.1, 0.3, 0.05, 0.1])
        b = 2000
        post = degenerate_posterior(theta, [math.log(2.0), 0.0])
        grid = np.array([1.0, 4.0, 7.5, 12.0])
        res = gcompute(post, ref=0, b=b, grid=grid, bb_weights=False)
        surv = np.exp(-cum_base_hazard(np.exp(theta), post.partition, grid))
        assert np.all(np.abs(res.surv_ref - surv) < mc_tolerance(surv, 12, b))
        assert np.all(np.abs(res.surv_trt - surv**2)
                      < mc_tolerance(surv**2, 12, b))

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    def test_overflowing_rate_dies_after_time_zero(self):
        post = degenerate_posterior(np.full(6, math.log(0.1)), [1000.0, 0.0],
                                    M=3)
        res = gcompute(post, ref=0, b=50, grid=np.array([3.0, 0.0, 12.0]))
        assert np.allclose(res.surv_trt, (res.times == 0).astype(float),
                           rtol=0, atol=1e-12)
        assert np.all(np.isfinite(res.surv_ref))

    def test_exact_plugin_survives_time_zero_when_rate_overflows(self):
        post = degenerate_posterior(np.full(6, math.log(0.1)), [1000.0, 0.0],
                                    M=3)
        _, trt, ate = exact_marginal_survival(post, ref=0,
                                              grid=np.array([3.0, 0.0, 12.0]))
        assert np.allclose(trt, np.tile([0.0, 1.0, 0.0], (3, 1)),
                           rtol=0, atol=1e-12)
        assert np.all(np.isfinite(ate))

    def test_never_allocates_per_simulation(self):
        # peak below one float array of n*B: counts, not simulated times
        n, b = 137, 2000
        post = synthetic_posterior(M=4, n=n, K=100)
        tracemalloc.start()
        try:
            gcompute(post, ref=0, b=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * b


class TestSimulateEventTimes:
    """Event-time simulation seen through ``gcompute``'s survival curves."""

    def test_sentinel_fraction(self):
        # Lambda0(max) = 0.1: about exp(-0.1) of the simulations outlive the
        # partition, and they count as survivors at the horizon
        b = 4000
        post = degenerate_posterior(np.full(6, math.log(0.1 / 12.0)),
                                    [0.0, 0.0])
        res = gcompute(post, ref=0, b=b, grid=np.array([12.0]),
                       bb_weights=False)
        surv = math.exp(-0.1)
        assert np.all(np.abs(res.surv_ref - surv) < mc_tolerance(surv, 12, b))


class TestConditionalSurvival:
    """Survival counted from one shared set of simulations per subject."""

    def test_all_sentinel(self):
        # no simulation fails within the partition: survival 1 everywhere
        tiny = degenerate_posterior(np.full(6, -40.0), [0.0, 0.0], M=3)
        res = gcompute(tiny, ref=0, b=100, grid=np.array([1.0, 6.0, 12.0]))
        assert np.allclose(res.surv_ref, 1.0, rtol=0, atol=1e-12)
        assert np.allclose(res.surv_trt, 1.0, rtol=0, atol=1e-12)

    def test_monotone_on_shared_set(self):
        # one simulation per subject and an unsorted grid: only counting one
        # shared set against every time keeps each curve non-increasing
        post = synthetic_posterior(M=20)
        grid = np.array([9.0, 1.0, 3.0, 2.0, 6.0])
        res = gcompute(post, ref=0, b=1, grid=grid, seed=6)
        order = np.argsort(grid)
        for surv in (res.surv_ref, res.surv_trt):
            assert np.all(np.diff(surv[:, order], axis=1) <= 1e-12)
