import math

import numpy as np
import pytest

from causalpch import DataError, psrf, summarize
from causalpch.diagnostics import _quantiles

from conftest import run_fresh_python


class TestSummarize:
    def test_worked_example(self):
        table = summarize(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert table.mean[0] == 3.0
        assert table.sd[0] == pytest.approx(math.sqrt(2.5), rel=1e-12)
        assert table.naive_se[0] == pytest.approx(math.sqrt(2.5 / 5), rel=1e-12)
        # type-7 quantile: h = (5-1)*0.025 + 1 -> 1.1
        assert table.quantiles[0, 0] == pytest.approx(1.1, rel=1e-12)
        assert table.quantiles[0, 1] == pytest.approx(4.9, rel=1e-12)

    def test_constant_draws(self):
        table = summarize(np.full(64, 2.5))
        assert table.sd[0] == 0.0
        assert np.all(table.quantiles[0] == 2.5)

    def test_ts_se_absent_for_short_series(self):
        # M=8 -> batch size 2, 4 batches: present; M=6 -> 3 batches: absent
        assert math.isfinite(summarize(np.arange(8.0)).ts_se[0])
        assert math.isnan(summarize(np.arange(6.0)).ts_se[0])

    def test_quantile_monotonicity(self):
        rng = np.random.default_rng(0)
        table = summarize(rng.standard_normal(500),
                          probs=(0.05, 0.25, 0.5, 0.75, 0.95))
        assert np.all(np.diff(table.quantiles[0]) >= 0)

    def test_pooled_chains_match_concatenation(self):
        rng = np.random.default_rng(1)
        chains = [rng.standard_normal((400, 2)) for _ in range(3)]
        pooled = summarize(chains)
        flat = summarize(np.vstack(chains))
        assert np.allclose(pooled.mean, flat.mean, atol=0)
        assert np.allclose(pooled.sd, flat.sd, rtol=1e-12)
        assert pooled.n_chains == 3
        assert pooled.n_draws == 1200

    def test_ts_se_tracks_autocorrelation(self):
        # a strongly autocorrelated series must report a larger ts_se than
        # the naive iid standard error
        rng = np.random.default_rng(2)
        x = np.empty(4000)
        x[0] = 0.0
        for i in range(1, len(x)):
            x[i] = 0.9 * x[i - 1] + rng.standard_normal()
        table = summarize(x)
        assert table.ts_se[0] > 2 * table.naive_se[0]

    def test_names_and_matrix_input(self):
        rng = np.random.default_rng(3)
        table = summarize(rng.standard_normal((100, 2)), names=("a", "b"))
        assert table.names == ("a", "b")
        with pytest.raises(DataError):
            summarize(rng.standard_normal((100, 2)), names=("a",))

    def test_too_few_draws(self):
        with pytest.raises(DataError):
            summarize(np.array([1.0]))

    def test_text_layout_two_blocks(self):
        rng = np.random.default_rng(4)
        text = summarize(rng.standard_normal((50, 1)), names=("A",)).to_text()
        assert "1. Empirical mean and standard deviation" in text
        assert "2. Quantiles for each variable" in text
        assert "Time-series SE" in text


SPECIAL_VALUES = ("none", "inf", "-inf", "nan", "constant", "ties")


class TestQuantiles:
    @pytest.mark.parametrize("special", SPECIAL_VALUES)
    def test_bit_equal_to_numpy_linear(self, special):
        rng = np.random.default_rng(SPECIAL_VALUES.index(special))
        for _ in range(200):
            n, q = int(rng.integers(1, 40)), int(rng.integers(1, 4))
            x = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), (n, q))
            hit = rng.random((n, q)) < 0.2
            if special == "inf":
                x[hit] = np.inf
            elif special == "-inf":
                x[hit] = -np.inf
            elif special == "nan":
                x[hit] = np.nan
            elif special == "constant":
                x[:, 0] = x[0, 0]
            elif special == "ties":
                x = rng.integers(-3, 4, (n, q)).astype(float)
            probs = (0.0, 1.0, 0.025, 0.975, *rng.random(3))
            with np.errstate(invalid="ignore"):
                want = np.quantile(x, probs, axis=0, method="linear")
            assert np.array_equal(_quantiles(x, probs), want, equal_nan=True)


class TestPsrf:
    def test_same_distribution_upper_near_one(self):
        rng = np.random.default_rng(5)
        chains = [rng.standard_normal(1000) for _ in range(3)]
        report = psrf(chains)
        assert report.upper[0] < 1.05
        assert report.point[0] < 1.05

    def test_disjoint_chains_flagged(self):
        rng = np.random.default_rng(6)
        chains = [rng.standard_normal(500), rng.standard_normal(500) + 10.0]
        report = psrf(chains)
        assert report.point[0] > 3.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        chains = [rng.standard_normal((300, 2)) for _ in range(4)]
        base = psrf(chains)
        moved = psrf([5.0 - 2.5 * c for c in chains])
        assert np.allclose(base.point, moved.point, atol=1e-10)
        assert np.allclose(base.upper, moved.upper, atol=1e-10)

    def test_zero_within_chain_variance(self):
        with pytest.raises(DataError, match="zero within-chain"):
            psrf([np.ones(10), np.ones(10)])

    def test_needs_two_chains(self):
        with pytest.raises(DataError):
            psrf([np.arange(10.0)])

    def test_unequal_lengths(self):
        with pytest.raises(DataError):
            psrf([np.arange(10.0), np.arange(12.0)])

    def test_point_estimate_can_dip_below_one(self):
        # with nearly identical chains the small-sample estimate may be just
        # under 1, as in published tables; it must never be wildly below
        rng = np.random.default_rng(8)
        base = rng.standard_normal(2000)
        chains = [base + 1e-3 * rng.standard_normal(2000) for _ in range(3)]
        report = psrf(chains)
        assert report.point[0] > 0.99

    def test_upper_limit_uses_tabulated_f_quantile(self):
        # two chains with variances phi^2 and 1 give w_df = 10 within-chain
        # degrees of freedom; the upper limit scales the between-chain part
        # by F_0.975(1, 10) = 6.9367 from printed tables
        rng = np.random.default_rng(9)
        m = 200
        base = rng.standard_normal(m)
        base = (base - base.mean()) / base.std(ddof=1)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        chains = [phi * base, base + 0.3]
        report = psrf(chains)
        w = (phi**2 + 1.0) / 2.0
        b = m * np.var([0.0, 0.3], ddof=1)
        r2_fixed = (m - 1.0) / m
        r2_random = 1.5 / m * b / w
        df_adj = report.point[0]**2 / (r2_fixed + r2_random)
        fq = (report.upper[0]**2 / df_adj - r2_fixed) / r2_random
        assert fq == pytest.approx(6.9367, abs=5e-4)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats dominates import time and memory; psrf does not need it
    proc = run_fresh_python(
        "import sys, causalpch; before = 'scipy.stats' in sys.modules; "
        "causalpch.psrf([[1.0, 2.0, 4.0, 3.0], [2.0, 1.0, 0.0, 5.0]]); "
        "print(before, 'scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
