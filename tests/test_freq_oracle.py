import math

import numpy as np
import pytest
from scipy import optimize

from causalpch import (expand_person_time, make_partition, pch_mle)
from causalpch.freq_oracle import _profile
from causalpch.hazard_model import _PoissonLikelihood

from conftest import design_of, log_likelihood, person_time_for


def occupied_instance(rng, n, K, p):
    """Random instance in which every interval contains at least one event,
    so the MLE is interior and comparable across optimizers."""
    while True:
        X = rng.standard_normal((n, p)) * 0.5
        y = rng.uniform(0.05, 10.0, n)
        y[np.argmax(y)] = 10.0
        delta = (rng.random(n) < 0.85).astype(float)
        part = make_partition(10.0, K)
        pt = expand_person_time(y, part)
        events = np.bincount((pt.k_star - 1)[delta == 1], minlength=K)
        if np.all(events > 0):
            return X, y, delta, part, pt


class TestPchMle:
    def test_single_interval_closed_form(self):
        y = np.array([2.0, 3.0, 5.0])
        delta = np.array([1.0, 0.0, 1.0])
        part, pt = person_time_for(y, 1)
        fit = pch_mle(design_of(np.zeros((3, 0)), y, delta), pt)
        assert fit.converged
        assert fit.theta_hat[0] == pytest.approx(delta.sum() / y.sum(),
                                                 rel=1e-10)

    def test_matches_derivative_free_optimizer(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            X, y, delta, part, pt = occupied_instance(rng, n=25, K=4, p=2)
            fit = pch_mle(design_of(X, y, delta), pt)
            assert fit.converged, f"trial {trial} did not converge"
            lik = _PoissonLikelihood(X, pt, delta)

            def negloglik(z):
                return -log_likelihood(lik, z[:4], z[4:])

            z0 = np.concatenate([np.full(4, -1.0), np.zeros(2)])
            res = optimize.minimize(negloglik, z0, method="Powell",
                                    options={"maxiter": 100000,
                                             "xtol": 1e-10, "ftol": 1e-12})
            ours = log_likelihood(lik, np.log(fit.theta_hat), fit.beta_hat)
            assert abs(ours - (-res.fun)) < 1e-6
            # and our optimum dominates random points
            for _ in range(200):
                z = z0 + rng.uniform(-1.5, 1.5, 6)
                assert log_likelihood(lik, z[:4], z[4:]) <= ours + 1e-9

    def test_zero_event_intervals_reported_as_zero(self):
        # events only in the first two of five intervals
        y = np.array([0.5, 1.2, 1.8, 3.9, 9.0, 10.0])
        delta = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        part, pt = person_time_for(y, 5)
        fit = pch_mle(design_of(np.zeros((6, 0)), y, delta), pt)
        assert fit.converged
        assert np.all(fit.theta_hat[:1] > 0)
        assert np.all(fit.theta_hat[2:] == 0.0)

    def test_gradient_vanishes_at_fit(self):
        rng = np.random.default_rng(1)
        X, y, delta, part, pt = occupied_instance(rng, n=30, K=3, p=2)
        fit = pch_mle(design_of(X, y, delta), pt)
        lik = _PoissonLikelihood(X, pt, delta)
        _, g_theta, g_beta = lik.value_and_grad(np.log(fit.theta_hat)[None],
                                                fit.beta_hat[None])
        assert np.abs(np.concatenate([g_theta[0], g_beta[0]])).max() < 1e-8

    @pytest.mark.parametrize("p", [1, 2])
    def test_profile_derivatives_match_finite_differences(self, p):
        rng = np.random.default_rng(3)
        X, y, delta, part, pt = occupied_instance(rng, n=20, K=3, p=p)
        lik = _PoissonLikelihood(X, pt, delta)
        beta, h = rng.uniform(-0.5, 0.5, p), 1e-6
        _, grad, hess, _ = _profile(lik, beta)
        steps = h * np.eye(p)
        fd_grad = [(_profile(lik, beta + e)[0] - _profile(lik, beta - e)[0])
                   / (2 * h) for e in steps]
        fd_hess = np.column_stack([(_profile(lik, beta + e)[1]
                                    - _profile(lik, beta - e)[1]) / (2 * h)
                                   for e in steps])
        assert np.allclose(fd_grad, grad, rtol=1e-6, atol=1e-6)
        assert np.allclose(fd_hess, hess, rtol=1e-6, atol=1e-6)

    def test_profile_is_likelihood_at_closed_form_hazards(self):
        # l(beta) differs from the full log-likelihood at theta = log(d/A)
        # by a constant
        rng = np.random.default_rng(4)
        X, y, delta, part, pt = occupied_instance(rng, n=20, K=3, p=2)
        lik = _PoissonLikelihood(X, pt, delta)
        gaps = []
        for beta in rng.uniform(-0.5, 0.5, (3, 2)):
            value, _, _, A = _profile(lik, beta)
            gaps.append(log_likelihood(lik, np.log(lik.d_events / A), beta)
                        - value)
        assert np.ptp(gaps) < 1e-10

    def test_covariate_shift_invariance(self):
        rng = np.random.default_rng(2)
        X, y, delta, part, pt = occupied_instance(rng, n=28, K=3, p=2)
        fit = pch_mle(design_of(X, y, delta), pt)
        shifted = pch_mle(design_of(X + 7.5, y, delta), pt)
        assert np.allclose(np.exp(fit.beta_hat), np.exp(shifted.beta_hat),
                           rtol=1e-8)

    def test_separation_flagged(self):
        # perfectly separated binary covariate: immediate events iff x = 1,
        # long censored follow-up otherwise, so beta_hat diverges
        n = 30
        x = np.repeat([0.0, 1.0], n // 2)
        y = np.concatenate([np.full(n // 2, 10.0), np.full(n // 2, 0.1)])
        delta = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        part, pt = person_time_for(y, 2)
        fit = pch_mle(design_of(x[:, None], y, delta), pt)
        assert fit.separated
        assert not fit.converged

    def test_veteran_zero_and_spike_pattern(self, veteran_design):
        part = make_partition(float(veteran_design.y.max()), 100)
        pt = expand_person_time(veteran_design.y, part)
        fit = pch_mle(veteran_design, pt)
        assert fit.converged
        late = fit.theta_hat[90:]
        assert (late == 0.0).sum() >= 8          # event-free late intervals
        assert late.max() > 10 * np.median(fit.theta_hat[:40])   # spike

    def test_full_gradient_vanishes_at_veteran_fit(self, veteran_design):
        # the returned fit, with event-free hazards exactly 0, is stationary
        # in beta and in every theta of an interval with events
        part = make_partition(float(veteran_design.y.max()), 100)
        pt = expand_person_time(veteran_design.y, part)
        fit = pch_mle(veteran_design, pt)
        assert fit.converged
        lik = _PoissonLikelihood(veteran_design.X, pt, veteran_design.delta)
        with np.errstate(divide="ignore"):
            theta = np.log(fit.theta_hat)
        _, (g_theta,), (g_beta,) = lik.value_and_grad(
            theta[None], fit.beta_hat[None], with_value=False)
        assert np.abs(g_beta).max() < 1e-8
        assert np.abs(g_theta[lik.d_events > 0]).max() < 1e-8
