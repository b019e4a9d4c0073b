import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from causalpch import (DataError, HazardModel, HazardPosterior,
                       ParameterLayout, ParameterState, PriorConfig,
                       SamplerConfig, cum_hazard_knots, expand_person_time,
                       log_prior, make_partition, to_unconstrained)
from causalpch.formula import DesignMatrix, Term
from causalpch.hazard_model import Partition, PersonTime, _PoissonLikelihood

from conftest import log_likelihood, random_survival_data


def random_state(rng, K, p, ar1=True):
    return ParameterState(
        theta_tilde=rng.normal(-1.0, 0.7, K),
        beta=rng.normal(0.0, 0.5, p),
        eta=float(rng.normal(0.0, 0.8)),
        rho=float(rng.uniform(-0.9, 0.9)) if ar1 else 0.0,
        nu=rng.uniform(0.3, 2.0, K))


class TestPartition:
    def test_365_by_100(self):
        part = make_partition(365.0, 100)
        assert part.dtau == pytest.approx(3.65, abs=1e-12)
        assert part.K == 100
        assert part.endpoints[0] == 0.0

    def test_999_by_100(self):
        part = make_partition(999.0, 100)
        assert part.dtau == pytest.approx(9.99, abs=1e-12)
        assert part.endpoints[-1] == 999.0
        assert part.midpoints[0] == pytest.approx(4.995)

    def test_single_interval(self):
        part = make_partition(10.0, 1)
        assert part.endpoints.tolist() == [0.0, 10.0]
        assert part.midpoints.tolist() == [5.0]

    def test_equal_spacing(self):
        part = make_partition(7.3, 13)
        widths = np.diff(part.endpoints)
        assert np.allclose(widths, widths[0])

    def test_nonpositive_max_time(self):
        with pytest.raises(DataError):
            make_partition(0.0, 10)

    def test_unequal_widths_rejected(self):
        with pytest.raises(DataError, match="equally spaced"):
            Partition(endpoints=np.array([0.0, 49.95, 99.9, 199.8, 999.0]))

    @pytest.mark.parametrize("max_time, K", [(999.0, 100), (7.3, 13),
                                             (1e-3, 100000), (4e6, 3)])
    def test_linspace_grids_pass_the_spacing_check(self, max_time, K):
        assert make_partition(max_time, K).K == K


def exposure(pt):
    """Each subject's total exposure: full intervals, then the last one."""
    return (pt.k_star - 1) * pt.dtau + pt.dt_last


class TestPersonTime:
    def test_worked_example(self):
        part = make_partition(3.65 * 4, 4)   # dtau = 3.65
        pt = expand_person_time(np.array([5.0]), part)
        assert pt.k_star[0] == 2
        assert (pt.dtau, pt.dt_last[0]) == pytest.approx((3.65, 1.35))
        assert exposure(pt)[0] == pytest.approx(5.0)

    def test_time_at_right_endpoint_stays_in_interval(self):
        part = make_partition(10.0, 4)
        pt = expand_person_time(np.array([2.5, 10.0]), part)
        assert pt.k_star.tolist() == [1, 4]
        assert pt.dt_last[0] == pytest.approx(2.5)
        assert pt.dt_last[1] == pytest.approx(2.5)

    def test_exposure_sums_to_time(self):
        part = make_partition(9.0, 7)
        y = np.array([0.3, 4.5, 8.999, 9.0])
        pt = expand_person_time(y, part)
        assert exposure(pt) == pytest.approx(y, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1.0, exclude_min=True),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=80, deadline=None)
    def test_exposure_property(self, frac, K):
        part = make_partition(17.0, K)
        y = np.array([frac * 17.0])
        pt = expand_person_time(y, part)
        assert exposure(pt)[0] == pytest.approx(y[0], rel=1e-9)
        assert 0 < pt.dt_last[0] <= pt.dtau * (1 + 1e-12)

    def test_out_of_range(self):
        part = make_partition(10.0, 4)
        with pytest.raises(DataError):
            expand_person_time(np.array([11.0]), part)
        with pytest.raises(DataError):
            expand_person_time(np.array([0.0]), part)


def continuous_time_loglik(theta_tilde, beta, X, y, delta, endpoints):
    """Independent oracle: exact piecewise integration of the step hazard."""
    theta = np.exp(theta_tilde)
    ll = 0.0
    for i in range(len(y)):
        xb = float(np.dot(X[i], beta))
        lam0 = 0.0
        k_i = None
        for k in range(len(theta)):
            lo, hi = endpoints[k], endpoints[k + 1]
            lam0 += theta[k] * max(0.0, min(y[i], hi) - min(y[i], lo))
            if lo < y[i] <= hi:
                k_i = k
        ll += -math.exp(xb) * lam0 + delta[i] * (theta_tilde[k_i] + xb)
    return ll


class TestLogLikelihood:
    def test_single_cell_worked_example(self):
        part = make_partition(2.0, 1)
        pt = expand_person_time(np.array([2.0]), part)
        state = ParameterState(theta_tilde=np.zeros(1), beta=np.zeros(0),
                               eta=0.0, rho=0.0, nu=np.ones(1))
        ll = log_likelihood(_PoissonLikelihood(np.zeros((1, 0)), pt,
                                               np.array([1.0])),
                            state.theta_tilde, state.beta)
        assert ll == pytest.approx(math.log(2.0) - 2.0, rel=1e-12)

    def test_poisson_minus_continuous_is_constant(self):
        rng = np.random.default_rng(5)
        for ds in range(3):
            X, y, delta = random_survival_data(rng, n=25, p=2)
            K = 6
            part = make_partition(float(y.max()), K)
            pt = expand_person_time(y, part)
            expected = float(delta @ np.log(pt.dt_last))
            lik = _PoissonLikelihood(X, pt, delta)
            diffs = []
            for _ in range(5):
                state = random_state(rng, K, 2)
                pois = log_likelihood(lik, state.theta_tilde, state.beta)
                cont = continuous_time_loglik(state.theta_tilde, state.beta,
                                              X, y, delta, part.endpoints)
                diffs.append(pois - cont)
            assert np.allclose(diffs, expected, atol=1e-8)

    def test_mu_invariance_under_dt_rescaling(self):
        # doubling every exposure while shifting theta by -log 2 leaves each
        # Poisson mean unchanged; the likelihood moves only through the
        # delta*log(dt) offset
        rng = np.random.default_rng(7)
        X, y, delta = random_survival_data(rng, n=15, p=1)
        part = make_partition(float(y.max()), 5)
        pt = expand_person_time(y, part)
        doubled = PersonTime(k_star=pt.k_star, dt_last=2 * pt.dt_last,
                             dtau=2 * pt.dtau, K=pt.K)
        state = random_state(rng, 5, 1)
        shifted = ParameterState(theta_tilde=state.theta_tilde - math.log(2),
                                 beta=state.beta, eta=state.eta,
                                 rho=state.rho, nu=state.nu)
        base = log_likelihood(_PoissonLikelihood(X, pt, delta),
                              state.theta_tilde, state.beta)
        moved = log_likelihood(_PoissonLikelihood(X, doubled, delta),
                               shifted.theta_tilde, shifted.beta)
        assert moved == pytest.approx(base, rel=1e-12)


class TestLogPrior:
    def test_ar1_at_rho_zero_matches_independent(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 8, 2, ar1=False)
        ind = log_prior(state, PriorConfig(model_kind="independent", K=8))
        ar = log_prior(state, PriorConfig(model_kind="ar1", K=8))
        # same process term; the AR1 density only adds the rho prior at 0
        assert ar - ind == pytest.approx(math.log(0.75), rel=1e-12)

    def test_scaled_beta_density_shape(self):
        # with K=1 the process term is rho-free, so differencing log_prior in
        # rho isolates the scaled Beta(2,2) density (3/4)(1 - rho^2)
        rng = np.random.default_rng(4)
        base = random_state(rng, 1, 1, ar1=False)
        cfg = PriorConfig(model_kind="ar1", K=1)
        def with_rho(r):
            return ParameterState(theta_tilde=base.theta_tilde, beta=base.beta,
                                  eta=base.eta, rho=r, nu=base.nu)
        lp0 = log_prior(with_rho(0.0), cfg)
        for r in (0.3, -0.62, 0.9):
            assert log_prior(with_rho(r), cfg) - lp0 == \
                pytest.approx(math.log1p(-r**2), rel=1e-12)
        assert log_prior(with_rho(1.0), cfg) == -math.inf
        assert log_prior(with_rho(-1.0), cfg) == -math.inf

    def test_rho_interval_probability(self):
        # CDF of Beta(2,2) on (0,1) is 3u^2 - 2u^3 with u = (rho+1)/2
        F = lambda u: 3 * u**2 - 2 * u**3
        assert F(0.9) - F(0.1) == pytest.approx(0.944, abs=1e-12)
        # quadrature of the implied density agrees
        val, _ = integrate.quad(lambda r: 0.75 * (1 - r**2), -0.8, 0.8)
        assert val == pytest.approx(0.944, abs=1e-10)

    def test_sigma3_hazard_ratio_interval(self):
        lo, hi = math.exp(-1.96 * 3.0), math.exp(1.96 * 3.0)
        assert lo == pytest.approx(0.0028, abs=5e-4)
        assert hi == pytest.approx(357.8, abs=0.05)

    def test_conditional_density_matches_ar1_recursion(self):
        # as a function of theta_k alone, the prior is N(eta(1-rho) +
        # rho*theta_{k-1}, nu_k^2) (times terms constant in theta_k)
        rng = np.random.default_rng(9)
        K = 6
        state = random_state(rng, K, 0)
        cfg = PriorConfig(model_kind="ar1", K=K)
        k = 3
        m_k = state.eta * (1 - state.rho) + state.rho * state.theta_tilde[k - 1]
        nu_k = state.nu[k]

        def lp_at(x):
            # shift theta_k to x and cascade rho^j shifts downstream so every
            # later residual stays fixed; only the k-th density term moves
            theta = state.theta_tilde.copy()
            shift = x - state.theta_tilde[k]
            for j in range(k, K):
                theta[j] += shift * state.rho ** (j - k)
            return log_prior(ParameterState(theta, state.beta, state.eta,
                                            state.rho, state.nu), cfg)

        x1, x2 = m_k + 0.37, m_k - 1.2
        expected = (-0.5 * (x1 - m_k)**2 / nu_k**2) - (-0.5 * (x2 - m_k)**2 / nu_k**2)
        assert lp_at(x1) - lp_at(x2) == pytest.approx(expected, rel=1e-10)

    def test_forward_simulation_conditional_mean(self):
        rng = np.random.default_rng(10)
        eta, rho, nu_k, prev = -0.4, 0.7, 0.9, -1.1
        draws = eta * (1 - rho) + rho * prev + nu_k * rng.standard_normal(200_000)
        assert draws.mean() == pytest.approx(eta * (1 - rho) + rho * prev,
                                             abs=4 * nu_k / math.sqrt(200_000))

    def test_finite_on_valid_states_only(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, 4, 2)
        cfg = PriorConfig(model_kind="ar1", K=4)
        assert math.isfinite(log_prior(state, cfg))
        bad_nu = ParameterState(state.theta_tilde, state.beta, state.eta,
                                state.rho, np.array([1.0, 0.0, 1.0, 1.0]))
        assert log_prior(bad_nu, cfg) == -math.inf


class TestTransforms:
    def test_identity_and_special_points(self):
        cfg = PriorConfig(model_kind="ar1", K=2)
        state = ParameterState(theta_tilde=np.array([0.5, -0.5]),
                               beta=np.array([1.0]), eta=0.3, rho=0.0,
                               nu=np.ones(2))
        z = to_unconstrained(state, cfg)
        assert z.tolist() == [0.5, -0.5, 1.0, 0.3, 0.0, 0.0, 0.0]
        layout = ParameterLayout(cfg.K, 1, cfg.has_rho)
        assert layout.log_jacobian(z) == 0.0   # all nu = 1 and rho = 0

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for kind in ("independent", "ar1"):
            cfg = PriorConfig(model_kind=kind, K=5)
            state = random_state(rng, 5, 3, ar1=(kind == "ar1"))
            z = to_unconstrained(state, cfg)
            layout = ParameterLayout(cfg.K, 3, cfg.has_rho)
            theta, beta, eta, rho, nu = layout.split(layout.constrain(z))
            log_jac = layout.log_jacobian(z)
            assert np.allclose(theta, state.theta_tilde, atol=1e-12)
            assert np.allclose(beta, state.beta, atol=1e-12)
            assert eta == pytest.approx(state.eta, abs=1e-12)
            assert (0.0 if rho is None else rho) == pytest.approx(state.rho,
                                                                  abs=1e-12)
            assert np.allclose(nu, state.nu, rtol=1e-12)
            expected_jac = float(np.log(state.nu).sum())
            if kind == "ar1":
                expected_jac += math.log1p(-state.rho**2)
            assert log_jac == pytest.approx(expected_jac, rel=1e-12)

    @pytest.mark.parametrize("kind,change", [
        ("ar1", dict(rho=1.0)),
        ("ar1", dict(rho=-1.0)),
        ("ar1", dict(nu=np.array([1.0, 0.0]))),
        ("ar1", dict(nu=np.array([1.0, -0.5]))),
        ("ar1", dict(nu=np.array([1.0, np.inf]))),
        ("ar1", dict(eta=np.nan)),
        ("ar1", dict(rho=np.nan)),
        ("ar1", dict(theta_tilde=np.array([0.0, np.inf]))),
        ("ar1", dict(beta=np.array([np.nan]))),
        ("ar1", dict(theta_tilde=np.zeros(3))),
        ("ar1", dict(nu=np.ones(1))),
        ("independent", dict(nu=np.array([0.0, 1.0]))),
        ("independent", dict(eta=np.inf)),
    ])
    def test_state_outside_support_rejected(self, kind, change):
        cfg = PriorConfig(model_kind=kind, K=2)
        state = ParameterState(**{**dict(theta_tilde=np.zeros(2),
                                         beta=np.ones(1), eta=0.3, rho=0.0,
                                         nu=np.ones(2)), **change})
        with pytest.raises(DataError):
            to_unconstrained(state, cfg)

    def test_jacobian_normalizes_transformed_density(self):
        # 1-D slice: nu ~ Gamma(1,1) pushed through w = log nu integrates to 1
        val, _ = integrate.quad(lambda w: math.exp(-math.exp(w) + w), -30, 6)
        assert val == pytest.approx(1.0, abs=1e-9)


KIND_AND_P = [(kind, p) for kind in ("independent", "ar1") for p in (0, 2)]


@pytest.mark.parametrize("kind,p", KIND_AND_P)
class TestParameterLayout:
    K = 3

    def layout(self, kind, p):
        return ParameterLayout(self.K, p, kind == "ar1")

    def test_split_holds_the_indices_of_names(self, kind, p):
        layout = self.layout(kind, p)
        terms = tuple(f"x{j}" for j in range(p))
        names = layout.names(terms)
        assert len(names) == layout.dim
        at = {name: i for i, name in enumerate(names)}
        ks = range(1, self.K + 1)
        theta, beta, eta, rho, nu = layout.split(np.arange(layout.dim))
        assert theta.tolist() == [at[f"theta_{k}"] for k in ks]
        assert beta.tolist() == [at[t] for t in terms]
        assert eta == at["eta"]
        assert rho == at.get("rho")
        assert nu.tolist() == [at[f"nu_{k}"] for k in ks]

    def test_constrain_block_equals_rows(self, kind, p):
        layout = self.layout(kind, p)
        block = np.random.default_rng(19).normal(0.0, 3.0, (40, layout.dim))
        before = block.copy()
        out = layout.constrain(block)
        assert block.tobytes() == before.tobytes()
        for row, expected in zip(block, out):
            assert layout.constrain(row).tobytes() == expected.tobytes()
        assert block.tobytes() == before.tobytes()

    def test_unconstrain_inverts_constrain(self, kind, p):
        layout = self.layout(kind, p)
        block = np.random.default_rng(21).normal(0.0, 1.0, (40, layout.dim))
        back = layout.unconstrain(layout.constrain(block))
        assert np.allclose(back, block, rtol=0, atol=1e-12)

    def test_to_unconstrained_follows_layout(self, kind, p):
        cfg = PriorConfig(model_kind=kind, K=self.K)
        state = random_state(np.random.default_rng(20), self.K, p,
                             ar1=(kind == "ar1"))
        theta, beta, eta, rho, nu = self.layout(kind, p).split(
            to_unconstrained(state, cfg))
        assert theta.tobytes() == state.theta_tilde.tobytes()
        assert beta.tobytes() == state.beta.tobytes()
        assert eta == state.eta
        assert rho == (np.arctanh(state.rho) if kind == "ar1" else None)
        assert nu.tobytes() == np.log(state.nu).tobytes()

    def test_posterior_slices_follow_param_names(self, kind, p):
        terms = tuple(f"x{j}" for j in range(p))
        n, dim = 4, self.layout(kind, p).dim
        design = DesignMatrix(X=np.zeros((n, p)), columns=terms,
                              terms=tuple(Term((t,)) for t in terms),
                              y=np.ones(n), delta=np.ones(n))
        draws = np.arange(6.0 * dim).reshape(6, dim)
        post = HazardPosterior(
            draws=draws, chain_ids=np.ones(6, int), iter_ids=np.arange(1, 7),
            partition=make_partition(1.0, self.K), model_kind=kind, sigma=3.0,
            formula="", treat_col="A", design=design, accept_rate=(1.0,),
            divergences=(0,), step_sizes=(0.1,), config=SamplerConfig())
        names = post.param_names
        assert post.beta_draws.tolist() == draws[:, [names.index(t)
                                                     for t in terms]].tolist()
        assert post.hazard_draws.tolist() == np.exp(draws[:, :self.K]).tolist()
        assert names[:self.K] == tuple(f"theta_{k}" for k in range(1, self.K + 1))


def build_model(rng, n=20, p=2, K=5, kind="ar1"):
    X, y, delta = random_survival_data(rng, n=n, p=p)
    part = make_partition(float(y.max()), K)
    pt = expand_person_time(y, part)
    design = DesignMatrix(X=X, columns=tuple(f"x{j}" for j in range(p)),
                          terms=tuple(Term((f"x{j}",)) for j in range(p)),
                          y=y, delta=delta)
    cfg = PriorConfig(model_kind=kind, K=K)
    return HazardModel(design, pt, part, cfg), cfg


def finite_difference(f, z, h=1e-5):
    g = np.empty_like(z)
    for j in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        g[j] = (f(zp) - f(zm)) / (2 * h)
    return g


class TestLogPosteriorGrad:
    @pytest.mark.parametrize("kind", ["independent", "ar1"])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(13)
        model, _ = build_model(rng, kind=kind)
        for _ in range(4):
            z = rng.uniform(-1.0, 1.0, model.dim)
            value, grad = model.log_posterior_grad(z)
            fd = finite_difference(lambda v: model.log_posterior_grad(v)[0], z)
            assert np.all(np.abs(grad - fd) <= 1e-5 * (1.0 + np.abs(grad)))

    def test_value_decomposes_into_parts(self):
        rng = np.random.default_rng(14)
        model, cfg = build_model(rng)
        z = rng.uniform(-0.8, 0.8, model.dim)
        value, _ = model.log_posterior_grad(z)
        layout = model.layout
        theta, beta, eta, rho, nu = layout.split(layout.constrain(z))
        state = ParameterState(theta, beta, float(eta), float(rho), nu)
        log_jac = layout.log_jacobian(z)
        ll = log_likelihood(model.likelihood, state.theta_tilde, state.beta)
        lp = log_prior(state, cfg)
        assert value == pytest.approx(ll + lp + log_jac, rel=1e-10)

    def test_zero_design_beta_gradient_is_prior_only(self):
        rng = np.random.default_rng(15)
        n, p, K = 12, 2, 3
        y = rng.uniform(0.5, 9.5, n)
        delta = np.ones(n)
        part = make_partition(10.0, K)
        y[0] = 10.0
        pt = expand_person_time(y, part)
        design = DesignMatrix(X=np.zeros((n, p)), columns=("a", "b"),
                              terms=(Term(("a",)), Term(("b",))),
                              y=y, delta=delta)
        cfg = PriorConfig(model_kind="independent", K=K)
        model = HazardModel(design, pt, part, cfg)
        z = rng.uniform(-1, 1, model.dim)
        _, grad = model.log_posterior_grad(z)
        beta = z[K:K + p]
        assert np.allclose(grad[K:K + p], -beta / cfg.sigma**2, atol=1e-14)

    def test_non_finite_input_reports_divergence(self):
        rng = np.random.default_rng(16)
        model, _ = build_model(rng)
        z = np.full(model.dim, 200.0)   # exp overflow territory
        value, _ = model.log_posterior_grad(z)
        assert value == -math.inf


class TestGradOnly:
    @pytest.mark.parametrize("kind", ["independent", "ar1"])
    def test_bitwise_equal_to_log_posterior_grad(self, kind):
        rng = np.random.default_rng(17)
        model, _ = build_model(rng, n=30, kind=kind)
        points = [rng.uniform(-2.0, 2.0, model.dim) for _ in range(20)]
        for z in points:
            value, grad = model.log_posterior_grad(z)
            assert np.isfinite(value)
            assert model.grad(z[None])[0].tobytes() == grad.tobytes()

    def test_non_finite_wherever_density_is_minus_inf(self):
        rng = np.random.default_rng(18)
        model, _ = build_model(rng, n=30)
        rho_at = model.layout.rho
        saturated = rng.uniform(-1.0, 1.0, model.dim)
        saturated[rho_at] = 40.0            # tanh(40) == 1.0 in doubles
        overflowing = np.full(model.dim, 200.0)
        for z in (saturated, overflowing):
            value, grad = model.log_posterior_grad(z)
            assert value == -math.inf
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                only = model.grad(z[None])[0]
            assert not np.isfinite(only).all()
            assert only.tobytes() == grad.tobytes()
        assert np.isfinite(np.delete(model.grad(saturated[None])[0],
                                     rho_at)).all()


class TestBlockKernel:
    @pytest.mark.parametrize("kind", ["independent", "ar1"])
    @pytest.mark.parametrize("K", [1, 5])
    @pytest.mark.parametrize("C", [1, 2, 3])
    def test_rows_equal_single_calls(self, kind, K, C):
        rng = np.random.default_rng(19)
        model, _ = build_model(rng, n=30, K=K, kind=kind)
        saturated = rng.uniform(-1.0, 1.0, model.dim)
        if kind == "ar1":
            saturated[model.layout.rho] = 40.0     # tanh(40) == 1.0
        points = [rng.uniform(-2.0, 2.0, model.dim), saturated,
                  np.full(model.dim, 200.0)]          # exp overflows
        # every special point takes each row position in some block
        for shift in range(3):
            block = np.array([points[(shift + c) % 3] for c in range(C)])
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                values, grads = model.log_posterior_grad(block)
                only = model.grad(block)
                for c in range(C):
                    value, grad = model.log_posterior_grad(block[c])
                    assert values[c] == value
                    assert grads[c].tobytes() == grad.tobytes()
                    assert only[c].tobytes() == grad.tobytes()
        assert values.shape == (C,) and grads.shape == (C, model.dim)


def lambda0(hazards, part, t):
    """Lambda0(t): the knots interpolated on the partition endpoints."""
    return np.interp(t, part.endpoints, cum_hazard_knots(hazards, part))


class TestCumBaseHazard:
    def test_constant_hazard(self):
        part = make_partition(10.0, 5)
        for t in (0.0, 3.3, 10.0):
            assert lambda0(np.full(5, 0.7), part, t) == \
                pytest.approx(0.7 * t, rel=1e-12)

    def test_two_full_intervals(self):
        part = make_partition(4.0, 2)
        theta = np.array([0.3, 1.1])
        assert lambda0(theta, part, 4.0) == \
            pytest.approx(0.3 * 2 + 1.1 * 2, rel=1e-12)

    def test_piecewise_interpolation_exact(self):
        # hazard 2 on the first interval, then 0.5: Lambda0(t) = 2t, then
        # 2 + 0.5 (t - 1); check it at hand-picked times
        part = make_partition(5.0, 5)
        theta = np.array([2.0, 0.5, 0.5, 0.5, 0.5])
        vals = lambda0(theta, part, np.array([0.5, 1.0, 1.5, 5.0]))
        assert vals == pytest.approx([1.0, 2.0, 2.25, 4.0], rel=1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(17)
        part = make_partition(7.0, 9)
        theta = rng.uniform(0.05, 2.0, 9)

        def step_hazard(u):
            k = min(np.searchsorted(part.endpoints, u, side="left"), 9) - 1
            return theta[max(k, 0)]

        for t in rng.uniform(0.1, 7.0, 5):
            num, _ = integrate.quad(step_hazard, 0, t, limit=400,
                                    points=part.endpoints[part.endpoints < t])
            assert lambda0(theta, part, float(t)) == \
                pytest.approx(num, abs=1e-10)

    def test_monotone_and_continuous(self):
        part = make_partition(5.0, 4)
        theta = np.array([1.0, 0.2, 2.0, 0.5])
        grid = np.linspace(0, 5, 101)
        vals = lambda0(theta, part, grid)
        assert np.all(np.diff(vals) >= -1e-14)

    @pytest.mark.parametrize("K", [1, 7, 100])
    def test_all_draws_knots_match_each_draw(self, K):
        # g-computation interpolates every draw on knots from one (M, K)
        # cumulative sum; each row must equal the draw's own Lambda0 bit for
        # bit, and the knots the former 0-then-dtau*cumsum concatenation
        rng = np.random.default_rng(K)
        part = make_partition(365.0 * rng.uniform(0.5, 3.0), K)
        hazards = np.exp(rng.uniform(math.log(1e-8), math.log(1e3), (40, K)))
        hazards[0], hazards[1] = 1e-8, 1e3
        t_max = part.max_time
        grid = np.concatenate([[0.0, t_max, 0.0, t_max],
                               rng.uniform(0.0, t_max, 25),
                               part.endpoints[::-1], part.midpoints])
        grid[10:13] = grid[9]                   # repeated times
        knots = cum_hazard_knots(hazards, part)
        assert knots.shape == (40, K + 1)
        for m, theta in enumerate(hazards):
            former = np.concatenate(([0.0], part.dtau * np.cumsum(theta)))
            assert knots[m].tobytes() == former.tobytes()
            assert (np.interp(grid, part.endpoints, knots[m]).tobytes()
                    == lambda0(theta, part, grid).tobytes())
